"""Region choice matrices for the single and double counting rules."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .diagram import FlatDiagram, _doubled_crossings, regions

SINGLE = "single"
DOUBLE = "double"


@dataclass(frozen=True)
class RegionChoiceMatrix:
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
    if rule not in (SINGLE, DOUBLE):
        raise ValueError(f"unknown rule {rule!r}")
    regs = regions(diagram)
    n = diagram.crossing_count
    rows = [[0] * len(regs) for _ in range(n)]
    # one step per corner: a corner at crossing v puts region j in row v
    for reg in regs:
        j = reg.index
        for v, _ in reg.corners:
            rows[v][j] = 1 if rule == SINGLE else rows[v][j] + 1
    return RegionChoiceMatrix(
        rule, tuple(map(tuple, rows)),
        tuple(f"v{i + 1}" for i in range(n)),
        tuple(f"r{j + 1}" for j in range(len(regs))))


def apply(matrix: RegionChoiceMatrix, u) -> tuple[int, ...]:
    """Exact integer matrix-vector product."""
    rows, cols = matrix.shape
    if len(u) != cols:
        raise ValueError(f"assignment has length {len(u)}, expected {cols}")
    return tuple(sum(a * x for a, x in zip(row, u)) for row in matrix.entries)


def residual(matrix: RegionChoiceMatrix, u, b) -> tuple[int, ...]:
    """``M u + b``; the zero vector certifies a solution."""
    rows, _ = matrix.shape
    if len(b) != rows:
        raise ValueError(f"point vector has length {len(b)}, expected {rows}")
    return tuple(x + y for x, y in zip(apply(matrix, u), b))


def rule_gap_columns(diagram: FlatDiagram) -> dict[int, tuple[int, ...]]:
    """Per region, the crossings it touches twice (support of A2 - A1)."""
    return dict(enumerate(_doubled_crossings(diagram)))


def mod2(matrix: RegionChoiceMatrix) -> tuple[tuple[int, ...], ...]:
    """Bit matrix of a single-rule matrix (the classical incidence matrix)."""
    if matrix.rule != SINGLE:
        raise ValueError("mod2 reduction is defined for single-rule matrices")
    return tuple(tuple(x % 2 for x in row) for row in matrix.entries)


# ---------------------------------------------------------------------------
# matrix documents


def to_document(matrix: RegionChoiceMatrix) -> str:
    return json.dumps({
        "rule": matrix.rule,
        "row_labels": list(matrix.row_labels),
        "col_labels": list(matrix.col_labels),
        "entries": [list(row) for row in matrix.entries],
    })


def from_document(text: str) -> RegionChoiceMatrix:
    doc = json.loads(text)
    return RegionChoiceMatrix(
        doc["rule"],
        tuple(tuple(int(x) for x in row) for row in doc["entries"]),
        tuple(doc["row_labels"]),
        tuple(doc["col_labels"]))


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
