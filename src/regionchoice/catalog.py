"""Built-in projections whose matrices reproduce the published tables.

Each entry ships a flat PD code together with a relabeling (row and column
orders) under which the computed region choice matrices equal the reference
matrices entry-for-entry.  The relabeling is found by permutation search and
checked at load time, so a catalog entry that stops matching its table raises
``InternalInvariantError`` rather than silently drifting.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .diagram import (FlatDiagram, InternalInvariantError, _Record, apply_r1,
                      arcs)

TYPE_CHECKING = False  # type checkers read it as True; no typing import
if TYPE_CHECKING:
    from .incidence import RegionChoiceMatrix

# reference tables: single-rule matrices, rows v1..vn, columns r1..r_{n+2}
REFERENCE_SINGLE: dict[str, tuple[tuple[int, ...], ...]] = {
    "3_1": ((1, 1, 1, 1, 0),
            (1, 1, 0, 1, 1),
            (1, 0, 1, 1, 1)),
    "4_1": ((1, 1, 1, 1, 0, 0),
            (0, 1, 1, 1, 1, 0),
            (1, 1, 0, 0, 1, 1),
            (1, 0, 0, 1, 1, 1)),
    "5_1": ((1, 1, 1, 0, 0, 0, 1),
            (1, 1, 0, 1, 0, 0, 1),
            (1, 0, 1, 0, 1, 0, 1),
            (1, 0, 0, 1, 0, 1, 1),
            (1, 0, 0, 0, 1, 1, 1)),
    "5_2": ((1, 1, 1, 0, 0, 1, 0),
            (1, 1, 0, 1, 1, 0, 0),
            (0, 1, 0, 1, 1, 1, 0),
            (1, 0, 1, 0, 0, 1, 1),
            (1, 0, 0, 0, 1, 1, 1)),
    "6_1": ((1, 1, 1, 0, 0, 0, 1, 0),
            (1, 0, 1, 0, 0, 1, 1, 0),
            (1, 1, 0, 1, 1, 0, 0, 0),
            (0, 1, 0, 1, 1, 0, 1, 0),
            (1, 0, 0, 0, 0, 1, 1, 1),
            (1, 0, 0, 0, 1, 0, 1, 1)),
    "6_2": ((1, 1, 1, 0, 0, 0, 1, 0),
            (1, 1, 0, 1, 1, 0, 0, 0),
            (0, 1, 0, 0, 1, 1, 1, 0),
            (1, 0, 1, 0, 0, 0, 1, 1),
            (1, 0, 0, 1, 1, 1, 0, 0),
            (1, 0, 0, 0, 0, 1, 1, 1)),
    "6_3": ((1, 1, 1, 1, 0, 0, 0, 0),
            (1, 1, 0, 0, 1, 1, 0, 0),
            (0, 1, 0, 1, 1, 0, 0, 1),
            (0, 0, 1, 1, 0, 0, 1, 1),
            (1, 0, 0, 0, 1, 1, 0, 1),
            (1, 0, 1, 0, 0, 0, 1, 1)),
    "example2_4": ((1, 1, 1, 0, 0, 0),
                   (0, 1, 1, 1, 1, 0),
                   (0, 1, 1, 0, 1, 1),
                   (0, 1, 0, 1, 1, 1)),
}

REFERENCE_DOUBLE: dict[str, tuple[tuple[int, ...], ...]] = {
    "d0": ((2, 1, 1),),
    "example2_4": ((1, 2, 1, 0, 0, 0),
                   (0, 1, 1, 1, 1, 0),
                   (0, 1, 1, 0, 1, 1),
                   (0, 1, 0, 1, 1, 1)),
}

# standard minimal projections, flat PD codes
_PD_CODES: dict[str, tuple[tuple[int, int, int, int], ...]] = {
    "d0": ((1, 2, 2, 1),),
    "3_1": ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)),
    "4_1": ((4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8)),
    "5_1": ((2, 8, 3, 7), (4, 10, 5, 9), (6, 2, 7, 1), (8, 4, 9, 3),
            (10, 6, 1, 5)),
    "5_2": ((1, 4, 2, 5), (3, 8, 4, 9), (5, 10, 6, 1), (9, 6, 10, 7),
            (7, 2, 8, 3)),
    "6_1": ((1, 4, 2, 5), (7, 10, 8, 11), (3, 9, 4, 8), (9, 3, 10, 2),
            (5, 12, 6, 1), (11, 6, 12, 7)),
    "6_2": ((1, 4, 2, 5), (5, 10, 6, 11), (3, 9, 4, 8), (9, 3, 10, 2),
            (7, 12, 8, 1), (11, 6, 12, 7)),
    "6_3": ((4, 2, 5, 1), (8, 4, 9, 3), (12, 9, 1, 10), (10, 5, 11, 6),
            (6, 11, 7, 12), (2, 8, 3, 7)),
}

NAMES = ("d0", "example2_4", "3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3")


class CatalogError(KeyError):
    """Unknown catalog name."""


class CatalogEntry(_Record):
    """A shipped projection plus the relabeling onto the reference tables."""

    name: str
    diagram: FlatDiagram
    row_order: tuple[int, ...]   # canonical crossing index of reference row i
    col_order: tuple[int, ...]   # canonical region index of reference column j

    def matrix(self, rule: str) -> RegionChoiceMatrix:
        """Region choice matrix in the reference-table labeling."""
        from .incidence import build_matrix
        return build_matrix(self.diagram, rule).permuted(
            self.row_order, self.col_order)


def match_labeling(matrix, target):
    """Row/column orders carrying ``matrix`` onto ``target``, or None.

    Deterministic: the lexicographically first row order that works wins,
    and columns are matched smallest-index-first within equal columns.
    """
    rows = len(matrix)
    cols = len(matrix[0])
    if rows != len(target) or cols != len(target[0]):
        return None
    for row_order in permutations(range(rows)):
        columns = [tuple(matrix[i][j] for i in row_order)
                   for j in range(cols)]
        used = [False] * cols
        col_order = []
        for j in range(cols):
            want = tuple(target[i][j] for i in range(rows))
            pick = next((k for k in range(cols)
                         if not used[k] and columns[k] == want), None)
            if pick is None:
                break
            used[pick] = True
            col_order.append(pick)
        else:
            return tuple(row_order), tuple(col_order)
    return None


def _example2_4_diagram() -> FlatDiagram:
    """The three-crossing projection with one kink added into a region
    touching all three crossings; selected as the first kink placement whose
    matrices reproduce the reference tables."""
    from .incidence import DOUBLE, build_matrix
    base = FlatDiagram(_PD_CODES["3_1"], None)
    target = REFERENCE_DOUBLE["example2_4"]
    for arc in arcs(base):
        for side in ("left", "right"):
            candidate = apply_r1(base, arc.label, side)
            got = build_matrix(candidate, DOUBLE).entries
            if match_labeling(got, target) is not None:
                return FlatDiagram(candidate.crossings, "example2_4")
    raise InternalInvariantError(
        "catalog entry example2_4: no kink placement reproduces the "
        "reference tables")


@lru_cache(maxsize=None)
def catalog_entry(name: str) -> CatalogEntry:
    if name not in NAMES:
        raise CatalogError(
            f"unknown catalog name {name!r}; choose from {', '.join(NAMES)}")
    # the labeling check builds matrices; listing the names needs none
    from .incidence import DOUBLE, SINGLE, build_matrix
    if name == "example2_4":
        diagram = _example2_4_diagram()
    else:
        diagram = FlatDiagram(_PD_CODES[name], name)
    rule = DOUBLE if name in REFERENCE_DOUBLE else SINGLE
    reference = (REFERENCE_DOUBLE.get(name) or REFERENCE_SINGLE[name])
    found = match_labeling(build_matrix(diagram, rule).entries, reference)
    if found is None:
        raise InternalInvariantError(
            f"catalog entry {name} does not reproduce its reference matrix")
    entry = CatalogEntry(name, diagram, *found)
    if entry.matrix(rule).entries != reference:
        raise InternalInvariantError(
            f"catalog entry {name}: relabeled matrix mismatch")
    if name in REFERENCE_SINGLE and name in REFERENCE_DOUBLE:
        if entry.matrix(SINGLE).entries != REFERENCE_SINGLE[name]:
            raise InternalInvariantError(
                f"catalog entry {name}: single-rule matrix mismatch")
    return entry


def names() -> tuple[str, ...]:
    return NAMES

