"""Region choice solvers: both counting rules, pinned kernels, add-1.

These couple the diagram geometry to the integer algebra.  Solvability for
every integral point vector is a theorem for valid knot projections: deleting
the two side columns of an arc leaves a unimodular matrix.  The two rules
take two routes, each built once per diagram and kept for the queries that
follow.  The double rule is the paper's add-1 construction, summed: one
running sum over the strand and one pass down a spanning tree of the
regions, with no elimination.  The single rule's matrix is factored by the
engine of ``zlinalg``.  Every call checks the route's certificate, and a
failure of either is reported as an internal invariant violation rather
than an input error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, itemgetter, mul, sub
from typing import NoReturn

from . import incidence, zlinalg
from .diagram import (FlatDiagram, InternalInvariantError, _require_crossing,
                      _walk, arc_by_label, arcs, is_knot)
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


_KNOT_ONLY = "the region choice solve requires a knot projection"


@lru_cache(maxsize=8)
def _factored(diagram: FlatDiagram, rule: str):
    """The solve route for the rule's matrix, pinned on
    ``_pin_pair(diagram)``, for the last few (diagram, rule) pairs asked.
    The double rule needs no elimination: its route is the paper's add-1
    construction, summed (``_WindingSum``).  The single rule uses the
    engine: one factorisation, which keeps the rows it was built from,
    compiled into gathers.  Both offer ``particular``, ``kernel``,
    ``image``, ``check``, ``fail`` and ``fresh``, and every query reads its
    answers off them; no route keeps a matrix, and a solution family
    carries the view ``incidence._Matrix``.
    Only a knot projection is solvable for every b, so a link raises
    ``ValueError``.

    The bound is set by the traffic: a sweep over one diagram needs 2
    entries, and 8 keep 3 interleaved diagrams under both rules.  Keeping
    the route on the diagram instead would keep it alive as long as the
    diagram caches keep the diagram.
    """
    if rule == DOUBLE:
        return _WindingSum(diagram)
    if not is_knot(diagram):
        raise ValueError(_KNOT_ONLY)
    return zlinalg._UnitFactorisation(
        incidence._rows(diagram, rule), diagram.region_count,
        _pin_pair(diagram), "pinned solve")


def _certified(diagram: FlatDiagram, rule: str):
    """``_factored(diagram, rule)`` with its certificate checked in this
    call: a route that is ``fresh`` was checked when it was built, in this
    call, and every later call checks it again."""
    f = _factored(diagram, rule)
    if f.fresh:
        f.fresh = False
    else:
        f.check()
    return f


class _WindingSum:
    """The double rule's solution families, read off winding numbers with
    no elimination: the paper's add-1 construction at every crossing,
    summed (README, "Layout").

    Orient the knot along the strand from dart 0.  Let ``alpha`` be each
    region's winding number about it, ``alpha1[v]`` about the first
    component of the splice at crossing ``v``, and ``e = (-1)^alpha``.
    ``e`` and ``e alpha`` span the kernel of ``A2``, and
    ``A2 e alpha1[v] = sigma[v] e_v``, where ``sigma[v] = +-1`` is the sum
    of ``e alpha1[v]`` over v's four corners.  So
    ``u = -e sum_v sigma[v] b[v] alpha1[v]`` solves ``A2 u + b = o``.

    ``alpha1[v]`` moves by +-1 across the arcs of the first component: the
    strand's positions outside ``p[v] < i <= q[v]``, its two arrivals at
    v.  So the sum moves by a weight ``w[i]`` across the arc of position
    ``i``, a running sum over the positions of ``+x`` at each first
    arrival and ``-x`` at each second, for ``x = sigma[v] b[v]``; its
    constant adds a multiple of ``alpha``.  The sum is taken down a
    spanning tree of the regions rooted at the first pin, and the running
    sum starts at an arc between the two pins, so that the answer is 0 on
    both: multiples of ``e`` and ``e alpha`` are all that is dropped.

    Construction checks the certificate (``check``), and every later call
    checks it again.  Each answer's residual is checked from the corner
    table.  ``stage`` names the route in every ``InternalInvariantError``.
    """

    stage = "winding sum"

    def __init__(self, diagram: FlatDiagram) -> None:
        mate, faces, region = diagram._mate, diagram._faces, diagram._region
        walk = _walk(mate, 0, 2)
        if 2 * len(walk) != len(mate):
            raise ValueError(_KNOT_ONLY)
        n = diagram.crossing_count
        self.cols, self.mate, self.region, self.walk = n + 2, mate, region, walk
        arrival = [mate[d] >> 2 for d in walk]
        self.p, self.q = p, q = [-1] * n, [0] * n
        for i, v in enumerate(arrival):
            if p[v] < 0:
                p[v] = i
            else:
                q[v] = i
        # a spanning tree of the regions in breadth-first order from the
        # first pin: region o is reached from r across the arc at dart d,
        # which moves a sum by -w[i] if the strand leaves through d at
        # position i and by +w[i] if it arrives through d
        self.pins = r1, r2 = _pin_pair(diagram)
        position = dict(zip(walk, range(2 * n)))
        tree, reached = [], [r1]
        seen = bytearray(n + 2)
        seen[r1] = 1
        for r in reached:
            for d in faces[r]:
                o = region[mate[d]]
                if not seen[o]:
                    seen[o] = 1
                    reached.append(o)
                    i = position.get(d)
                    tree.append((o, r, i, -1) if i is not None
                                else (o, r, position[mate[d]], 1))
        # positions count from the arc the tree crosses from pin to pin
        self.start = k = next(i for o, _, i, _ in tree if o == r2)
        self.tree = [(o, r, (i - k) % (2 * n), s) for o, r, i, s in tree]
        turn = [1 if p[v] == i else -1 for i, v in enumerate(arrival)]
        self.turn = turn[k:] + turn[:k]
        self._at_arrival = itemgetter(*arrival[k:], *arrival[:k])
        self._at_corner = itemgetter(*region)
        # alpha1[v] on v's corners 1, 2, 3, less its value on corner 0: from
        # corner s to s + 1 it steps across the arc at dart 4 v + s + 1, by
        # -1 at the entry mate[walk[p]], +1 at the exit walk[q + 1] and 0
        # at the second component's two darts
        steps = [0] * len(mate)
        for v in range(n):
            steps[mate[walk[p[v]]]] -= 1
            steps[walk[(q[v] + 1) % (2 * n)]] += 1
        one = steps[1::4]
        two = list(map(add, one, steps[2::4]))
        self.corner_alpha1 = one, two, list(map(add, two, steps[3::4]))
        self.e, self.kernel, self.sigma = self._derived()
        self.fresh = True

    def _tree_pass(self, w) -> list[int]:
        """The sum that is 0 on the first pin and moves by the weights
        ``w``, indexed from ``start``, across the tree's arcs."""
        total = [0] * self.cols
        for o, r, i, s in self.tree:
            total[o] = total[r] + s * w[i]
        return total

    def _derived(self):
        """``e``, the kernel and ``sigma``, read afresh off the tree and the
        corners: ``alpha`` is the tree's sum with unit weights, 0 on the
        first pin and ``a = +-1`` on the second, so the kernel vectors that
        are (1, 0) and (0, 1) on the pins are ``e - a e alpha`` and
        ``-a e alpha``.  ``e`` and ``e alpha`` are checked to be in the
        kernel and every ``sigma[v]`` to be +-1."""
        alpha = self._tree_pass([1] * len(self.walk))
        e = [-1 if x & 1 else 1 for x in alpha]
        e_alpha = list(map(mul, e, alpha))
        at = self._at_corner(e)
        if any(_corner_sums(at)) or any(self.image(e_alpha)):
            self.fail("e or e alpha is outside the kernel")
        d = zlinalg._minor(e, e_alpha, *self.pins)
        if d not in (1, -1):
            self.fail(f"minor of e, e alpha on the pins is {d}")
        a = alpha[self.pins[1]]
        kernel = (tuple(map(sub, e, map(mul, e_alpha, repeat(a)))),
                  tuple(map(mul, e_alpha, repeat(-a))))
        one, two, three = self.corner_alpha1
        sigma = list(map(add, map(add, map(mul, one, at[1::4]),
                                  map(mul, two, at[2::4])),
                         map(mul, three, at[3::4])))
        if not set(sigma) <= {1, -1}:
            v = next(v for v, s in enumerate(sigma) if s not in (1, -1))
            self.fail(f"sigma at v{v + 1} is {sigma[v]}, not +-1")
        return e, kernel, sigma

    def check(self) -> None:
        """The certificate: ``e`` and ``e alpha``, summed down the tree
        again, lie in the kernel; the kernel is their pinned basis, with
        minor 1 on the pins; every ``sigma[v]`` is the sum at v's corners,
        and is +-1."""
        e, kernel, sigma = self._derived()
        if e != self.e:
            self.fail("e is not (-1)^alpha")
        if kernel != self.kernel:
            self.fail("kernel is not the pinned basis of e, e alpha")
        if zlinalg._minor(*self.kernel, *self.pins) != 1:
            self.fail("kernel minor on the pins is not 1")
        if sigma != self.sigma:
            self.fail("a sign sigma is not the sum at its corners")

    def particular(self, b) -> tuple[int, ...]:
        """The solution of ``A2 u + b = o`` that is zero on the pins."""
        w = list(accumulate(map(mul, self.turn, self._at_arrival(
            list(map(mul, self.sigma, b)))), initial=0))
        return tuple(map(mul, self.e, self._tree_pass(w)))

    def add1(self, v: int) -> tuple[int, ...]:
        """The paper's add-1 at v,
        ``sigma[v] e (alpha1[v] - alpha1[v](R1))``: its weights are 1 on
        the first component and 0 on the second, and ``R1`` is the region
        beside the least dart of the arc along which the strand first
        arrives at v."""
        p, q, k = self.p[v], self.q[v], self.start
        w = [1] * len(self.walk)
        w[p + 1:q + 1] = [0] * (q - p)
        alpha1 = self._tree_pass(w[k:] + w[:k])
        d = self.walk[p]
        base = alpha1[self.region[min(d, self.mate[d])]]
        s = self.sigma[v]
        return tuple(s * x * (a - base) for x, a in zip(self.e, alpha1))

    def image(self, u) -> list[int]:
        """``A2 u``, read off the regions at each crossing's corners."""
        return _corner_sums(self._at_corner(u))

    def fail(self, what: str) -> NoReturn:
        raise InternalInvariantError(f"{self.stage}, certificate: {what}")


def _corner_sums(at) -> list[int]:
    """Per crossing, the sum of ``at`` over its four corners."""
    return list(map(add, map(add, at[0::4], at[1::4]),
                    map(add, at[2::4], at[3::4])))


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
    return zlinalg._families(_certified(diagram, rule),
                             incidence._Matrix(diagram, rule), [b])[0]


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
    # _families checks A u + b = o, so the residual A u is -b
    (family,) = zlinalg._families(_certified(diagram, rule),
                                  incidence._Matrix(diagram, rule),
                                  [_unit(n, crossing, -1)])
    return Add1Certificate(crossing, rule, family.particular, ALGEBRAIC,
                           _unit(n, crossing, 1))


def _unit(n: int, crossing: int, value: int) -> tuple[int, ...]:
    u = [0] * n
    u[crossing] = value
    return tuple(u)


def add1_geometric(diagram: FlatDiagram, crossing: int) -> Add1Certificate:
    """Assignment with unit residual at one crossing (double rule only):
    ``u = sigma e (alpha1 - alpha1(R1))`` with ``e = (-1)^alpha``, from the
    regions' winding numbers alpha about the knot and alpha1 about the
    first component of the splice at the crossing, whose first pin is
    ``R1``: the double-rule route's sum at that one crossing
    (``_WindingSum.add1``).  This is the paper's splice-and-checkerboard
    vector with no component built (README, "Layout");
    ``tests/splice_oracle.py`` builds the components, as the reference it
    is checked against."""
    _require_crossing(diagram, crossing)
    f = _certified(diagram, DOUBLE)
    u = f.add1(crossing)
    res = tuple(f.image(u))
    if res != _unit(diagram.crossing_count, crossing, 1):
        f.fail(f"geometric add-1 at v{crossing + 1} has residual {list(res)}")
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
    (fix,) = zlinalg._families(
        f, incidence._Matrix(diagram, SINGLE),
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
