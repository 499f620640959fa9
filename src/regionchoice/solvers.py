"""Region choice solvers: both counting rules, pinned kernels, add-1.

These couple the diagram geometry to the integer algebra.  Solvability for
every integral point vector is a theorem for valid knot projections: deleting
the two side columns of an arc leaves a unimodular matrix.  Every solve
factors that matrix once and checks a certificate, and a failure of either is
reported as an internal invariant violation rather than an input error.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import incidence, zlinalg
from .diagram import (CheckerboardColoring, ComponentSplit, FlatDiagram,
                      InternalInvariantError, _darts_by_label, arc_by_label,
                      arcs, checkerboard, is_knot, regions, splice)
from .incidence import DOUBLE, SINGLE, RegionChoiceMatrix
from .zlinalg import SolutionFamily

ALGEBRAIC = "algebraic"
GEOMETRIC = "geometric"


@dataclass(frozen=True)
class Add1Certificate:
    """An assignment whose point change is +1 at one crossing, 0 elsewhere."""

    crossing: int
    rule: str
    assignment: tuple[int, ...]
    path: str
    residual: tuple[int, ...]


@dataclass(frozen=True)
class PinnedKernelRequest:
    """Ask for a kernel solution with fixed values beside one arc."""

    arc: int
    a: int
    b: int
    rule: str = DOUBLE


@dataclass(frozen=True)
class VerificationReport:
    """Residual of a proposed solution, with a per-crossing breakdown."""

    rule: str
    residual: tuple[int, ...]
    passed: bool
    per_crossing: tuple[tuple[str, int], ...]


def _reduce_and_solve(diagram: FlatDiagram, rule: str, rhs, pins=None
                      ) -> tuple[RegionChoiceMatrix, list[SolutionFamily]]:
    """The rule's matrix and, from one factorisation of it, the solution
    family of ``A_rule u + b = o`` for each b in ``rhs``: canonical, that is
    zero on the pin pair with the kernel pinned to (1, 0) and (0, 1) there.
    The pin pair is ``pins``, two side regions of one arc, or by default
    ``_pin_pair(diagram)``.  Only a knot projection is solvable for every
    b, so a link raises ``ValueError``."""
    if not is_knot(diagram):
        raise ValueError("the region choice solve requires a knot projection")
    matrix = incidence.build_matrix(diagram, rule)
    return matrix, zlinalg.solve_pinned(
        matrix.entries, pins or _pin_pair(diagram), rhs)


def _pin_pair(diagram: FlatDiagram) -> tuple[int, int]:
    """Side regions ``(lo, hi)`` of the arc whose sorted sides are largest
    by ``(hi, lo)``.  Deleting any arc's two side columns leaves a
    unimodular matrix; this fixes one arc without filling the ``arcs``
    cache."""
    region_of = {corner: reg.index
                 for reg in regions(diagram) for corner in reg.corners}
    best = (-1, -1)
    for d1, d2 in _darts_by_label(diagram.crossings).values():
        lo, hi = sorted((region_of[d1], region_of[d2]))
        best = max(best, (hi, lo))
    return best[1], best[0]


def solve(diagram: FlatDiagram, rule: str, b) -> SolutionFamily:
    """All integral assignments u with ``A_rule u + b = o``."""
    return _reduce_and_solve(diagram, rule, [b])[1][0]


def kernel_basis(diagram: FlatDiagram, rule: str):
    zeros = (0,) * diagram.crossing_count
    return _reduce_and_solve(diagram, rule, [zeros])[1][0].kernel


def pinned_kernel(diagram: FlatDiagram, request: PinnedKernelRequest):
    """Kernel solution with prescribed values on the two sides of an arc."""
    sides = arc_by_label(diagram, request.arc).sides
    zeros = (0,) * diagram.crossing_count
    matrix, (family,) = _reduce_and_solve(diagram, request.rule, [zeros],
                                          sides)
    u = family.member(request.a, request.b)
    if any(incidence.apply(matrix, u)):
        raise InternalInvariantError("pinned vector left the kernel")
    return u


def _minor(k1, k2, r1: int, r2: int) -> int:
    """Determinant of the kernel basis restricted to regions r1, r2."""
    return k1[r1] * k2[r2] - k2[r1] * k1[r2]


def arc_unimodularity_report(diagram: FlatDiagram, rule: str) -> dict[int, int]:
    """Per arc label, |det| of the kernel basis restricted to its sides."""
    k1, k2 = kernel_basis(diagram, rule)
    return {arc.label: abs(_minor(k1, k2, *arc.sides))
            for arc in arcs(diagram)}


def add1_algebraic(diagram: FlatDiagram, rule: str, crossing: int) -> Add1Certificate:
    """Assignment with unit residual at one crossing, by direct solving."""
    n = diagram.crossing_count
    if not 0 <= crossing < n:
        raise ValueError(f"no crossing v{crossing + 1}")
    matrix, (family,) = _reduce_and_solve(diagram, rule,
                                          [_unit(n, crossing, -1)])
    u = family.particular
    return Add1Certificate(crossing, rule, u, ALGEBRAIC,
                           incidence.apply(matrix, u))


def _unit(n: int, crossing: int, value: int) -> tuple[int, ...]:
    return tuple(value if i == crossing else 0 for i in range(n))


def add1_geometric(diagram: FlatDiagram, crossing: int) -> Add1Certificate:
    """Assignment with unit residual at one crossing, by the splice and
    checkerboard construction (double rule only).

    Splice at the crossing; take a kernel solution on the component carrying
    the smaller darts, pinned to 0 and 1 beside the smoothed strand; flip its
    sign on the white regions of the other component's checkerboard coloring;
    merge back.  A single global negation absorbs the two-fold coloring and
    pin-order ambiguity.
    """
    split = splice(diagram, crossing)
    u1 = _component_pinned_kernel(split)
    sign2 = _component_checkerboard(split.second)
    u = tuple(u1[split.first.region_map[r]] * sign2[split.second.region_map[r]]
              for r in range(diagram.region_count))
    matrix = incidence.build_matrix(diagram, DOUBLE)
    target = _unit(diagram.crossing_count, crossing, 1)
    res = incidence.apply(matrix, u)
    if res == target:
        return Add1Certificate(crossing, DOUBLE, u, GEOMETRIC, res)
    neg = tuple(-x for x in u)
    res = incidence.apply(matrix, neg)
    if res == target:
        return Add1Certificate(crossing, DOUBLE, neg, GEOMETRIC, res)
    raise InternalInvariantError(
        "geometric add-1 construction certified neither u nor -u")


def _component_pinned_kernel(split: ComponentSplit):
    comp = split.first
    r1, r2 = comp.strand_sides
    if comp.diagram is None:
        values = [0, 0]
        values[r1], values[r2] = 0, 1
        return tuple(values)
    zeros = (0,) * comp.diagram.crossing_count
    _, (family,) = _reduce_and_solve(comp.diagram, DOUBLE, [zeros], (r1, r2))
    return family.kernel[1]


def _component_checkerboard(comp) -> CheckerboardColoring:
    if comp.diagram is None:
        return CheckerboardColoring((1, -1))
    return checkerboard(comp.diagram)


def solve_single_via_double(diagram: FlatDiagram, b):
    """Single-rule solution built from a double-rule one plus add-1 fixes.

    The double-rule assignment overshoots at each (necessarily reducible)
    crossing by the values of the regions with two corners there.  The
    canonical single-rule particular is linear in the right-hand side, so
    the sum of the add-1 fixes for all overshoots is the one particular for
    ``-overshoot``.
    """
    particular = solve(diagram, DOUBLE, b).particular
    overshoot = [0] * diagram.crossing_count
    for region, crossings in incidence.rule_gap_columns(diagram).items():
        for v in crossings:
            overshoot[v] += particular[region]
    matrix, (fix,) = _reduce_and_solve(
        diagram, SINGLE, [tuple(-x for x in overshoot)])
    u = tuple(x + y for x, y in zip(particular, fix.particular))
    if any(incidence.residual(matrix, u, tuple(b))):
        raise InternalInvariantError(
            "two-path single-rule construction has nonzero residual")
    return u


def solve_mod2(diagram: FlatDiagram, b) -> tuple[int, ...]:
    """Region subset solving the classical mod-2 problem; never unsolvable
    for a knot projection."""
    if not is_knot(diagram):
        raise ValueError("the mod-2 solve requires a knot projection")
    matrix = incidence.build_matrix(diagram, SINGLE)
    bits = zlinalg.solve_gf2(incidence.mod2(matrix),
                             tuple(x % 2 for x in b))
    if bits is None:
        raise InternalInvariantError(
            "mod-2 region choice problem reported unsolvable for a knot "
            "projection")
    return tuple(r for r, bit in enumerate(bits) if bit)


def verify(diagram: FlatDiagram, rule: str, u, b) -> VerificationReport:
    """Recompute the matrix and check ``A u + b = o``."""
    matrix = incidence.build_matrix(diagram, rule)
    res = incidence.residual(matrix, tuple(u), tuple(b))
    return VerificationReport(
        rule, res, not any(res),
        tuple((f"v{i + 1}", x) for i, x in enumerate(res)))
