"""Region choice matrices for the single and double counting rules."""

from __future__ import annotations

from operator import index, itemgetter, mul, ne

from .diagram import FlatDiagram, _Record, regions

SINGLE = "single"
DOUBLE = "double"


class RegionChoiceMatrix(_Record):
    """Integer crossings-by-regions matrix with its labelings.

    Single rule: entry 1 iff the region touches the crossing at all.
    Double rule: entry equals the corner count (0, 1 or 2).
    """

    rule: str
    entries: tuple[tuple[int, ...], ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.entries), len(self.col_labels))

    def permuted(self, row_order, col_order) -> "RegionChoiceMatrix":
        """Reorder rows/columns; entry (i, j) comes from the given indices."""
        return RegionChoiceMatrix(
            self.rule,
            tuple(tuple(self.entries[i][j] for j in col_order)
                  for i in row_order),
            tuple(self.row_labels[i] for i in row_order),
            tuple(self.col_labels[j] for j in col_order))


def build_matrix(diagram: FlatDiagram, rule: str) -> RegionChoiceMatrix:
    """Region choice matrix of the diagram under canonical labeling."""
    return RegionChoiceMatrix(
        rule, tuple(_Matrix(diagram, rule)),
        tuple(f"v{i + 1}" for i in range(diagram.crossing_count)),
        tuple(f"r{reg.index + 1}" for reg in regions(diagram)))


def apply(matrix: RegionChoiceMatrix, u) -> tuple[int, ...]:
    """Exact integer matrix-vector product."""
    _require_length(u, matrix.shape[1], "assignment")
    return tuple(sum(a * x for a, x in zip(row, u)) for row in matrix.entries)


def residual(matrix: RegionChoiceMatrix, u, b) -> tuple[int, ...]:
    """``M u + b``; the zero vector certifies a solution."""
    _require_length(b, matrix.shape[0], "point vector")
    return tuple(x + y for x, y in zip(apply(matrix, u), b))


def _residual(diagram: FlatDiagram, rule: str, u, b) -> tuple[int, ...]:
    """``M u + b`` for the rule's matrix of the diagram, with the length
    checks of ``residual``, read off the regions at the corners: row v
    holds ``diagram._region[4 v .. 4 v + 3]``, each corner once under the
    double rule and each region once under the single rule.  It reads the
    corner table afresh and shares nothing with a solve route, so that
    ``solvers.verify`` checks a route from outside."""
    if rule not in (SINGLE, DOUBLE):
        raise ValueError(f"unknown rule {rule!r}")
    _require_length(b, diagram.crossing_count, "point vector")
    _require_length(u, diagram.region_count, "assignment")
    region = diagram._region
    at = itemgetter(*region)(u)
    a0, a1, a2, a3 = at[0::4], at[1::4], at[2::4], at[3::4]
    if rule == SINGLE:
        # a region at two corners of a crossing is at opposite ones; the
        # second of them is dropped
        a2 = map(mul, a2, map(ne, region[2::4], region[0::4]))
        a3 = map(mul, a3, map(ne, region[3::4], region[1::4]))
    return tuple(map(sum, zip(a0, a1, a2, a3, b)))


class _Matrix:
    """The rule's matrix of a diagram as a read-only view that builds row v
    off the regions at v's corners, ``diagram._region[4 v .. 4 v + 3]``,
    only when the row is read: one count per corner under the double rule,
    a 0/1 entry under the single rule.  It compares equal to, hashes as and
    ``repr``s as the dense tuple of tuples; nothing dense is kept."""

    def __init__(self, diagram: FlatDiagram, rule: str) -> None:
        if rule not in (SINGLE, DOUBLE):
            raise ValueError(f"unknown rule {rule!r}")
        self._region, self._double = diagram._region, rule == DOUBLE
        self._starts = range(0, len(self._region), 4)

    def _row(self, d: int) -> tuple[int, ...]:
        """The row whose four corners start at dart ``d``."""
        line = [0] * (len(self._starts) + 2)
        for r in self._region[d:d + 4]:
            line[r] = line[r] + 1 if self._double else 1
        return tuple(line)

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, v) -> tuple[int, ...]:
        return self._row(self._starts[index(v)])

    def __iter__(self):
        return map(self._row, self._starts)

    def __eq__(self, other) -> bool:
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def _require_length(vector, expected: int, what: str) -> None:
    if len(vector) != expected:
        raise ValueError(
            f"{what} has length {len(vector)}, expected {expected}")


def mod2(matrix: RegionChoiceMatrix) -> tuple[tuple[int, ...], ...]:
    """Bit matrix of a single-rule matrix (the classical incidence matrix)."""
    if matrix.rule != SINGLE:
        raise ValueError("mod2 reduction is defined for single-rule matrices")
    return tuple(tuple(x % 2 for x in row) for row in matrix.entries)


def render_text(matrix: RegionChoiceMatrix) -> str:
    """Aligned plain-text table for eyeball comparison."""
    width = max(len(lab) for lab in matrix.col_labels)
    width = max(width, max((len(str(x)) for row in matrix.entries for x in row),
                           default=1))
    head = max(len(lab) for lab in matrix.row_labels)
    lines = [" " * (head + 2)
             + " ".join(lab.rjust(width) for lab in matrix.col_labels)]
    for lab, row in zip(matrix.row_labels, matrix.entries):
        lines.append(lab.rjust(head) + "  "
                     + " ".join(str(x).rjust(width) for x in row))
    return "\n".join(lines) + "\n"
