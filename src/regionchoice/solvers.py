"""Region choice solvers: both counting rules, pinned kernels, add-1.

These couple the diagram geometry to the integer algebra.  Solvability for
every integral point vector is a theorem for valid knot projections: deleting
the two side columns of an arc leaves a unimodular matrix.  That matrix is
factored once per (diagram, rule) and kept for the queries that follow; every
call checks the certificate, and a failure of either is reported as an
internal invariant violation rather than an input error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add

from . import incidence, zlinalg
from .diagram import (FlatDiagram, InternalInvariantError, _require_crossing,
                      _strand_cut, arc_by_label, arcs, is_knot)
from .incidence import DOUBLE, SINGLE
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


@lru_cache(maxsize=8)
def _factored(diagram: FlatDiagram, rule: str) -> zlinalg._UnitFactorisation:
    """The one factorisation of the rule's matrix, pinned on
    ``_pin_pair(diagram)``, for the last few (diagram, rule) pairs asked.
    It keeps the rows it was built from, compiled into gathers, and every
    query reads them and its kernel off it.  Only a knot projection is
    solvable for every b, so a link raises ``ValueError``.

    The bound is set by the traffic: a sweep over one diagram needs 2
    entries, and 8 keep 3 interleaved diagrams under both rules.  Keeping
    the factorisation on the diagram instead would keep it alive as long as
    the diagram caches keep the diagram.
    """
    if not is_knot(diagram):
        raise ValueError("the region choice solve requires a knot projection")
    return zlinalg._UnitFactorisation(
        incidence._rows(diagram, rule), diagram.region_count,
        _pin_pair(diagram), "pinned solve")


def _certified(diagram: FlatDiagram, rule: str) -> zlinalg._UnitFactorisation:
    """``_factored(diagram, rule)`` with its certificate checked in this
    call: a factorisation that is ``fresh`` was checked when it was built,
    in this call, and every later call checks it again."""
    f = _factored(diagram, rule)
    if f.fresh:
        f.fresh = False
    else:
        f.check()
    return f


def _pin_pair(diagram: FlatDiagram) -> tuple[int, int]:
    """Side regions ``(lo, hi)`` of the arc whose sorted sides are largest
    by ``(hi, lo)``.  Deleting any arc's two side columns leaves a
    unimodular matrix; this fixes one arc without filling the ``arcs``
    cache.

    Every arc beside the last region has it as its high side, so only that
    region's arcs are looked at.  The corners at darts ``4 c + s`` and
    ``4 c + (s + 1) % 4`` lie on the two sides of the arc in slot
    ``s + 1`` of crossing ``c``, and each arc beside a face is that arc for
    one of the face's corners."""
    faces, region = diagram._faces, diagram._region
    lo = max(region[d - (d & 3) + ((d + 1) & 3)] for d in faces[-1])
    return lo, len(faces) - 1


def solve(diagram: FlatDiagram, rule: str, b) -> SolutionFamily:
    """All integral assignments u with ``A_rule u + b = o``."""
    return _certified(diagram, rule).families([b])[0]


def kernel_basis(diagram: FlatDiagram, rule: str):
    return _certified(diagram, rule).kernel


def pinned_kernel(diagram: FlatDiagram, request: PinnedKernelRequest):
    """Kernel solution with prescribed values on the two sides of an arc.

    The kernel minor ``d`` on the arc's sides is +-1 (criterion 6), so with
    ``z1``, ``z2`` the kernel vectors that are ``(d, 0)`` and ``(0, d)``
    there, ``d (a z1 + b z2)`` is the one.  It is checked to be in the
    kernel and to take the values on the sides."""
    f = _certified(diagram, request.rule)
    s1, s2 = arc_by_label(diagram, request.arc).sides
    d, z1, z2 = zlinalg._pair_basis(f.kernel, s1, s2)
    if d not in (1, -1):
        raise InternalInvariantError(
            f"kernel minor on the sides of arc {request.arc} is {d}, "
            "not +-1")
    a, b = request.a, request.b
    u = tuple(d * (a * x + b * y) for x, y in zip(z1, z2))
    if any(f.image(u)) or (u[s1], u[s2]) != (a, b):
        raise InternalInvariantError(
            f"pinned kernel vector for arc {request.arc} misses the kernel "
            "or its values")
    return u


def arc_unimodularity_report(diagram: FlatDiagram, rule: str) -> dict[int, int]:
    """Per arc label, |det| of the kernel basis restricted to its sides."""
    k1, k2 = kernel_basis(diagram, rule)
    return {arc.label: abs(zlinalg._minor(k1, k2, *arc.sides))
            for arc in arcs(diagram)}


def add1_algebraic(diagram: FlatDiagram, rule: str, crossing: int) -> Add1Certificate:
    """Assignment with unit residual at one crossing, by direct solving."""
    _require_crossing(diagram, crossing)
    n = diagram.crossing_count
    # families checks A u + b = o, so the residual A u is -b
    (family,) = _certified(diagram, rule).families([_unit(n, crossing, -1)])
    return Add1Certificate(crossing, rule, family.particular, ALGEBRAIC,
                           _unit(n, crossing, 1))


def _unit(n: int, crossing: int, value: int) -> tuple[int, ...]:
    u = [0] * n
    u[crossing] = value
    return tuple(u)


def add1_geometric(diagram: FlatDiagram, crossing: int) -> Add1Certificate:
    """Assignment with unit residual at one crossing (double rule only):
    ``u = +-e (alpha1 - alpha1(R1))`` with ``e = (-1)^alpha``, from the
    regions' winding numbers alpha about the knot and alpha1 about the
    first component of the splice at the crossing, whose first pin is
    ``R1``.  This is the paper's splice-and-checkerboard vector with no
    component built (README, "Layout"); ``tests/splice_oracle.py`` builds
    the components, as the reference it is checked against."""
    walk, p, q = _strand_cut(diagram, crossing)
    mate, region = diagram._mate, diagram._region
    # each winding's change from region[mate[d]] to region[d]; the first
    # component leaves through walk[q+1:] + walk[:p+1]
    step, step1 = [0] * len(mate), [0] * len(mate)
    for i, d in enumerate(walk):
        step[d], step[mate[d]] = 1, -1
        if not p < i <= q:
            step1[d], step1[mate[d]] = 1, -1
    n = diagram.crossing_count
    alpha, alpha1, reached = [0] + [None] * (n + 1), [0] * (n + 2), [0]
    for r in reached:
        for d in diagram._faces[r]:
            o = region[mate[d]]
            a, a1 = alpha[r] - step[d], alpha1[r] - step1[d]
            if alpha[o] is None:
                alpha[o], alpha1[o] = a, a1
                reached.append(o)
            elif alpha[o] != a or alpha1[o] != a1:
                raise InternalInvariantError(
                    f"winding numbers disagree across the arc at dart {d}")
    base = alpha1[region[min(walk[p], mate[walk[p]])]]
    u = tuple(base - b if a & 1 else b - base for a, b in zip(alpha, alpha1))
    target = _unit(n, crossing, 1)
    # A(-u) = -Au, so one product decides between u and -u
    res = incidence._residual(diagram, DOUBLE, u, (0,) * n)
    if res != target:
        u, res = tuple(-x for x in u), tuple(-x for x in res)
    if res != target:
        raise InternalInvariantError(
            "geometric add-1 construction certified neither u nor -u")
    return Add1Certificate(crossing, DOUBLE, u, GEOMETRIC, res)


def solve_single_via_double(diagram: FlatDiagram, b):
    """Single-rule solution built from a double-rule one plus add-1 fixes.

    The double-rule particular ``p`` overshoots at each (necessarily
    reducible) crossing by the values of the regions with two corners
    there, so ``A1 p + b = (A1 - A2) p`` is minus the overshoot.  The
    canonical single-rule particular is linear in the right-hand side, so
    the sum of the add-1 fixes is the one particular for ``A1 p + b``.
    """
    b = tuple(b)
    particular = solve(diagram, DOUBLE, b).particular
    f = _certified(diagram, SINGLE)
    (fix,) = f.families(
        [incidence._residual(diagram, SINGLE, particular, b)])
    u = tuple(x + y for x, y in zip(particular, fix.particular))
    if any(map(add, f.image(u), b)):
        raise InternalInvariantError(
            "two-path single-rule construction has nonzero residual")
    return u


def solve_mod2(diagram: FlatDiagram, b) -> tuple[int, ...]:
    """Region subset solving the classical mod-2 problem; never unsolvable
    for a knot projection."""
    if not is_knot(diagram):
        raise ValueError("the mod-2 solve requires a knot projection")
    b = tuple(x % 2 for x in b)
    incidence._require_length(b, diagram.crossing_count, "b")
    cols, region = diagram.region_count, diagram._region
    # every single-rule entry is 1: row v's bits are its corners' regions
    bits = zlinalg._solve_gf2(
        [1 << r0 | 1 << r1 | 1 << r2 | 1 << r3 | x << cols
         for r0, r1, r2, r3, x in zip(region[0::4], region[1::4],
                                      region[2::4], region[3::4], b)],
        cols)
    if bits is None:
        raise InternalInvariantError(
            "mod-2 region choice problem reported unsolvable for a knot "
            "projection")
    return tuple(r for r, bit in enumerate(bits) if bit)


def verify(diagram: FlatDiagram, rule: str, u, b) -> VerificationReport:
    """Check ``A u + b = o``, the matrix read afresh off the regions at the
    diagram's corners."""
    res = incidence._residual(diagram, rule, tuple(u), tuple(b))
    return VerificationReport(
        rule, res, not any(res),
        tuple((f"v{i + 1}", x) for i, x in enumerate(res)))
