"""Region choice solvers: both counting rules, pinned kernels, add-1.

These couple the diagram geometry to the integer algebra.  Solvability for
every integral point vector is a theorem for valid knot projections: deleting
the two side columns of an arc leaves a unimodular matrix.  The two rules
take two routes, each built once per diagram and kept on it for the queries
that follow, and neither eliminates.  The double rule is the paper's add-1
construction, summed: one running sum over the strand and one pass down a
spanning tree of the regions.  The single rule is that sum corrected at the
loops of the reducible crossings, where a region with two corners at a
crossing counts once: one more pass over the loops, in the order in which
they nest.  The mod-2 solve reads the single rule's route too, reducing its
answer mod 2, so no solver has an elimination of its own.  Every call
checks the route's certificate, which bounds the pinned matrix's
determinant to +-1 under either rule (README, "Certificates"), and a
failure of either is reported as an internal invariant violation rather
than an input error.
"""

from __future__ import annotations

from itertools import accumulate, compress, repeat
from operator import add, itemgetter, mul, ne, sub

from . import incidence, zlinalg
from .diagram import (FlatDiagram, InternalInvariantError, _Record,
                      _require_crossing, arc_by_label, arcs)
from .incidence import DOUBLE, SINGLE
from .zlinalg import SolutionFamily

TYPE_CHECKING = False  # type checkers read it as True; no typing import
if TYPE_CHECKING:
    from typing import NoReturn

ALGEBRAIC = "algebraic"
GEOMETRIC = "geometric"


class Add1Certificate(_Record):
    """An assignment whose point change is +1 at one crossing, 0 elsewhere."""

    crossing: int
    rule: str
    assignment: tuple[int, ...]
    path: str
    residual: tuple[int, ...]


class PinnedKernelRequest(_Record):
    """Ask for a kernel solution with fixed values beside one arc."""

    arc: int
    a: int
    b: int
    rule: str = DOUBLE


class VerificationReport(_Record):
    """Residual of a proposed solution, with a per-crossing breakdown."""

    rule: str
    residual: tuple[int, ...]
    passed: bool
    per_crossing: tuple[tuple[str, int], ...]


_KNOT_ONLY = "the region choice solve requires a knot projection"


def _certified(diagram: FlatDiagram, rule: str):
    """The solve route for the rule's matrix, pinned on
    ``_pin_pair(diagram)``, kept on the diagram (``diagram._routes``) and
    certified in this call: construction checks the certificate of a route
    it builds, and every later call checks it again.  Neither rule needs an
    elimination.  The double rule's route is the paper's add-1
    construction, summed (``_WindingSum``).  The single rule's is that
    winding sum, certified in this call, corrected at the loops of the
    reducible crossings (``_LoopCorrection``).  Both offer ``particular``,
    ``kernel``, ``image``, ``check`` and ``fail``, and every query reads
    its answers off them; no route keeps a matrix or the diagram, and a
    solution family carries the view ``incidence._Matrix``.
    Only a knot projection is solvable for every b, so a link raises
    ``ValueError``, as does a rule that is neither.
    """
    routes = diagram._routes
    route = routes.get(rule)
    if route is not None:
        route.check()
        return route
    if rule == DOUBLE:
        route = _WindingSum(diagram)
    elif rule == SINGLE:
        route = _LoopCorrection(diagram, _certified(diagram, DOUBLE))
    else:
        raise ValueError(f"unknown rule {rule!r}")
    routes[rule] = route
    return route


def _family(diagram: FlatDiagram, rule: str, b) -> SolutionFamily:
    """The family of ``A_rule u + b = o``, read off the rule's route."""
    return zlinalg._family(_certified(diagram, rule),
                           incidence._Matrix(diagram, rule), b)


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

    Construction reads the strand from dart 0 that the diagram kept from
    its validation (``diagram._strand``) in one pass, for the arrivals, the
    turns, the steps of ``alpha1`` at the corners and each dart's position,
    which the tree reads.  It keeps the tree's sum with unit weights as
    ``alpha``, which the single rule's route reads too.

    Construction checks the certificate (``check``), and every later call
    checks it again; the single rule's route, which reads this one, checks
    its rank certificate (``check_rank``).  Each answer's residual is
    checked from the corner table.  ``stage`` names the route in every
    ``InternalInvariantError``.
    """

    stage = "winding sum"

    def __init__(self, diagram: FlatDiagram) -> None:
        mate, faces, region = diagram._mate, diagram._faces, diagram._region
        walk = diagram._strand
        if 2 * len(walk) != len(mate):
            raise ValueError(_KNOT_ONLY)
        n = diagram.crossing_count
        self.cols, self.mate, self.region, self.walk = n + 2, mate, region, walk
        self.p, self.q = p, q = [-1] * n, [0] * n
        arrival, turn = [0] * len(walk), [0] * len(walk)
        # each dart's position on the strand: i if the strand leaves
        # through it at position i, ~i if it arrives through it there
        position = [0] * len(mate)
        # alpha1[v] on v's corners 1, 2, 3, less its value on corner 0: from
        # corner s to s + 1 it steps across the arc at dart 4 v + s + 1, by
        # -1 at the entry m, where the strand first arrives, +1 at the exit
        # m ^ 2 after the second arrival and 0 at the second component's
        # two darts
        steps = [0] * len(mate)
        for i, d in enumerate(walk):
            m = mate[d]
            arrival[i] = v = m >> 2
            position[d], position[m] = i, ~i
            if p[v] < 0:
                p[v] = i
                steps[m] -= 1
            else:
                q[v] = i
                steps[m ^ 2] += 1
            turn[i] = 1 if p[v] == i else -1
        # a spanning tree of the regions in breadth-first order from the
        # first pin: region o is reached from r across the arc at dart d,
        # which moves a sum by -w[i] if the strand leaves through d at
        # position i and by +w[i] if it arrives through d
        self.pins = r1, r2 = _pin_pair(diagram)
        tree, reached = [], [r1]
        seen = bytearray(n + 2)
        seen[r1] = 1
        for r in reached:
            for d in faces[r]:
                o = region[mate[d]]
                if not seen[o]:
                    seen[o] = 1
                    reached.append(o)
                    i = position[d]
                    tree.append((o, r, i, -1) if i >= 0 else (o, r, ~i, 1))
        # positions count from the arc the tree crosses from pin to pin
        self.start = k = next(i for o, _, i, _ in tree if o == r2)
        self.tree = [(o, r, (i - k) % (2 * n), s) for o, r, i, s in tree]
        self.turn = turn[k:] + turn[:k]
        self._at_arrival = itemgetter(*arrival[k:], *arrival[:k])
        self._at_corner = itemgetter(*region)
        one = steps[1::4]
        two = list(map(add, one, steps[2::4]))
        self.corner_alpha1 = one, two, list(map(add, two, steps[3::4]))
        self.e, self.kernel, self.sigma = self._derived()

    def _tree_pass(self, w) -> list[int]:
        """The sum that is 0 on the first pin and moves by the weights
        ``w``, indexed from ``start``, across the tree's arcs."""
        total = [0] * self.cols
        for o, r, i, s in self.tree:
            total[o] = total[r] + s * w[i]
        return total

    def _derived(self):
        """``e``, the kernel and ``sigma``, read anew off the tree and the
        corners: ``alpha`` is the tree's sum with unit weights, 0 on the
        first pin and ``a = +-1`` on the second, so the kernel vectors that
        are (1, 0) and (0, 1) on the pins are ``e - a e alpha`` and
        ``-a e alpha``.  ``e`` and ``e alpha`` are checked to be in the
        kernel, and ``sigma`` by ``_signs``.  ``alpha`` is kept as
        ``self.alpha``, which the loop correction built on this route
        reads."""
        alpha = self.alpha = self._tree_pass([1] * len(self.walk))
        e = [-1 if x & 1 else 1 for x in alpha]
        e_alpha = list(map(mul, e, alpha))
        a0 = self._alternating(e)
        if any(self.image(e_alpha)):
            self.fail("e or e alpha is outside the kernel")
        d = zlinalg._minor(e, e_alpha, *self.pins)
        if d not in (1, -1):
            self.fail(f"minor of e, e alpha on the pins is {d}")
        a = alpha[self.pins[1]]
        kernel = (tuple(map(sub, e, map(mul, e_alpha, repeat(a)))),
                  tuple(map(mul, e_alpha, repeat(-a))))
        return e, kernel, self._signs(a0)

    def _alternating(self, e) -> list[int]:
        """``e`` at each crossing's corner 0, checked to alternate around
        every crossing: equal at opposite corners, and so in the kernel
        when it sums to 0 there."""
        at = self._at_corner(e)
        a0, a1 = at[0::4], at[1::4]
        if a0 != at[2::4] or a1 != at[3::4]:
            self.fail("e does not alternate around a crossing")
        if any(map(add, a0, a1)):
            self.fail("e or e alpha is outside the kernel")
        return a0

    def _signs(self, a0) -> list[int]:
        """``sigma``, read off ``e`` at each crossing's corner 0 (``a0``),
        where ``e`` alternates: the sum of ``e alpha1[v]`` over v's corners,
        checked to be +-1.  ``alpha1[v]`` less its value at corner 0 is
        ``corner_alpha1`` at corners 1, 2, 3, where ``e`` reads ``-a0``,
        ``a0``, ``-a0``."""
        one, two, three = self.corner_alpha1
        sigma = list(map(mul, a0, map(sub, two, map(add, one, three))))
        if not set(sigma) <= {1, -1}:
            v = next(v for v, s in enumerate(sigma) if s not in (1, -1))
            self.fail(f"sigma at v{v + 1} is {sigma[v]}, not +-1")
        return sigma

    def check_rank(self) -> None:
        """The rank certificate, O(n): ``e`` alternates around every
        crossing, and every ``sigma[v]`` is the sum at v's corners and is
        +-1.  With the parse's count of ``n + 2`` faces, they give
        determinant +-1 for ``A2`` with the pin columns deleted (README,
        "Certificates")."""
        if self._signs(self._alternating(self.e)) != self.sigma:
            self.fail("a sign sigma is not the sum at its corners")

    def check(self) -> None:
        """The certificate: ``e`` and ``e alpha``, summed down the tree
        again, lie in the kernel; the kernel is their pinned basis, with
        minor 1 on the pins; ``e`` alternates around every crossing and
        every ``sigma[v]`` is the sum at v's corners, and is +-1, the rank
        certificate of ``check_rank``."""
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
        return tuple(map(mul, self.e, self.sum(b)))

    def sum(self, b) -> list[int]:
        """The particular before its signs ``e``: the running sum of
        ``sigma b`` taken down the tree."""
        return self._tree_pass(list(accumulate(map(
            mul, self.turn, self._at_arrival(list(map(mul, self.sigma, b)))),
            initial=0)))

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
        at = self._at_corner(u)
        return list(map(add, map(add, at[0::4], at[1::4]),
                        map(add, at[2::4], at[3::4])))

    def fail(self, what: str) -> NoReturn:
        raise InternalInvariantError(f"{self.stage}, certificate: {what}")


class _LoopCorrection:
    """The single rule's solution families: the double rule's winding sum,
    corrected at the loops of the reducible crossings, with no elimination
    (README, "Layout").

    A region with two corners at crossing ``v`` counts once under the
    single rule, so ``A1 = A2 - U V^T``, with a unit column ``e_v`` of U and
    ``e_R`` of V for each such pair ``(v, R)`` (``pairs``).  With ``S2`` the
    winding sum's particular, the pinned solution of ``A1 u + b = o`` is
    ``u = S2(b - U y)`` with ``y = V^T u``: the winding sum with a weight
    ``sigma[v] y`` taken off the loop of each pair's crossing.  A pair on a
    pin has ``y = 0``.

    The loop of ``v`` is the strand between its two arrivals, the positions
    ``(lo, hi]`` counted from ``start``, on which the running sum has the
    sign ``tau``.  No other crossing is met on it just once, so the loops
    nest, and ``S2(e_v)`` is 0 on every region outside v's loop.  So ``y``
    at a loop needs ``y`` only at the loops around it, and in order of
    ``lo`` (the tree order) ``I + W`` is unitriangular: one pass over the
    loops fixes every ``y`` before a loop inside needs it.  The tree path
    into a region enters its innermost loop ``h`` (``home``) through h's
    region and stays inside, so the region's correction is
    ``base[h] + acc[h] alpha``, where ``acc[h]`` sums the weights of h and
    the loops around it and ``alpha`` is the tree's sum of unit weights.

    Construction reads the pairs and their loops' ends off the corner table
    in one pass, takes each region's home loop from the tree and reuses the
    winding sum's ``alpha``; it checks that the loops nest and that no
    crossing's two arrivals straddle a loop.  Every
    call checks the winding sum's rank certificate, the loops' tree order
    and the kernel (``check``); each answer's residual is checked.
    ``stage`` names the route in every ``InternalInvariantError``.
    """

    stage = "loop correction"

    def __init__(self, diagram: FlatDiagram, double: _WindingSum) -> None:
        self.double, self.pins = double, double.pins
        p, q, k, size = double.p, double.q, double.start, len(double.walk)
        region = diagram._region
        # one pass over the corner table for the pairs and their loops'
        # ends: a region with two corners at a crossing has opposite ones,
        # since adjacent corners flank an arc and a 4-valent map has no
        # bridge (`diagram._doubled_crossings`), and a crossing has at most
        # one: a closed curve through that region and v parts v's other two
        # corners
        twice, ends = [], []
        for v, a, b, c, d in zip(range(len(p)), region[0::4], region[1::4],
                                 region[2::4], region[3::4]):
            if a == c or b == d:
                r = a if a == c else b
                twice.append((r, v))
                lo, hi = (p[v] - k) % size, (q[v] - k) % size
                ends.append((lo, hi, 1, v, r) if lo < hi
                            else (hi, lo, -1, v, r))
        # by region, then crossing
        twice.sort()
        self.pairs = [(v, r) for r, v in twice]
        ends.sort()
        # each position's innermost loop, -1 for none, and each loop's
        # parent, from one sweep over the loops' ends
        inner, stack, parent, at = [-1] * size, [-1], [], 0
        for t, j in sorted([(lo, j) for j, (lo, *_) in enumerate(ends)]
                           + [(hi, ~j) for j, (_, hi, *_) in enumerate(ends)]):
            inner[at:t + 1] = [stack[-1]] * (t + 1 - at)
            at = t + 1
            if j >= 0:
                parent.append(stack[-1])
                stack.append(j)
            elif stack.pop() != ~j:
                self.fail("two loops interleave")
        inner[at:] = [-1] * (size - at)
        # a crossing whose arrivals lie in different innermost loops is met
        # once on a loop, unless it is the loop's own crossing
        n = len(p)
        moved = [(x - k) % size for x in p + q]
        split = compress(range(n), map(ne, map(inner.__getitem__, moved[:n]),
                                       map(inner.__getitem__, moved[n:])))
        if set(split) != {v for v, _ in self.pairs}:
            self.fail("a crossing is met once on a loop")
        self.loops = [(v, r, up, tau * double.sigma[v])
                      for (_, _, tau, v, r), up in zip(ends, parent)]
        self.home = home = [-1] * double.cols
        for o, _, i, _ in double.tree:
            home[o] = inner[i]
        self.inside = [(r, h) for r, h in enumerate(home) if h >= 0]
        self.alpha = double.alpha
        # A1 k = -U V^T k for k in the double rule's kernel: the loops'
        # weights -tau sigma k[R] alone take it back to 0
        self.kernel = tuple(
            tuple(map(add, x, map(mul, double.e, self._sum([0] * len(home), [
                -c * x[r] for _, r, _, c in self.loops]))))
            for x in double.kernel)
        self._check()

    def check(self) -> None:
        """The certificate: the winding sum's rank certificate, then the
        route's own."""
        self.double.check_rank()
        self._check()

    def _check(self) -> None:
        """The loops are the pairs, in tree order: ``lo`` increasing, each
        loop inside its parent and the home loop of its region before it,
        O(m); the kernel lies in the kernel, with minor 1 on the pins."""
        pairs, home = set(self.pairs), self.home
        d = self.double
        p, q, k, size = d.p, d.q, d.start, len(d.walk)
        stack, last = [(-1, size)], -1
        for j, (v, r, up, _) in enumerate(self.loops):
            lo, hi = (p[v] - k) % size, (q[v] - k) % size
            if hi < lo:
                lo, hi = hi, lo
            while stack[-1][1] < lo:
                stack.pop()
            if (lo <= last or hi > stack[-1][1] or up != stack[-1][0]
                    or home[r] >= j or (v, r) not in pairs):
                self.fail(f"the loop of v{v + 1} is out of tree order")
            stack.append((j, hi))
            last = lo
        if len(self.loops) != len(pairs):
            self.fail("the loops are not the pairs")
        k1, k2 = self.kernel
        if any(self.image(k1)) or any(self.image(k2)):
            self.fail("kernel vector outside the kernel")
        if zlinalg._minor(k1, k2, *self.pins) != 1:
            self.fail("kernel minor on the pins is not 1")

    def _sum(self, total: list[int], weights) -> list[int]:
        """``total``, a sum down the tree per region, with the loops' sum
        added: ``weights[j]`` on loop ``j``, less ``tau sigma y`` with
        ``y = e (total + the loops' sum)`` at each loop's region, fixed loop
        by loop in tree order."""
        e, alpha, home = self.double.e, self.alpha, self.home
        acc = [0] * (len(self.loops) + 1)   # the last entry is no loop's
        base = acc[:]
        for j, ((_, r, up, c), w) in enumerate(zip(self.loops, weights)):
            h, a = home[r], alpha[r]
            s = base[h] + acc[h] * a        # the loops' sum at r
            acc[j] = x = acc[up] + w - c * e[r] * (total[r] + s)
            base[j] = s - x * a
        for r, h in self.inside:
            total[r] += base[h] + acc[h] * alpha[r]
        return total

    def particular(self, b) -> tuple[int, ...]:
        """The solution of ``A1 u + b = o`` that is zero on the pins."""
        return tuple(map(mul, self.double.e, self._sum(
            self.double.sum(b), repeat(0))))

    def image(self, u) -> list[int]:
        """``A1 u``: the double rule's corner sums, less ``u[R]`` at v for
        each pair ``(v, R)``."""
        out = self.double.image(u)
        for v, r in self.pairs:
            out[v] -= u[r]
        return out

    def fail(self, what: str) -> NoReturn:
        raise InternalInvariantError(f"{self.stage}, certificate: {what}")


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
    return _family(diagram, rule, b)


def kernel_basis(diagram: FlatDiagram, rule: str):
    return _certified(diagram, rule).kernel


def pinned_kernel(diagram: FlatDiagram, request: PinnedKernelRequest):
    """Kernel solution with prescribed values on the two sides of an arc.

    The kernel minor ``d`` on the arc's sides is +-1 (criterion 6), so
    ``u = x k1 + y k2`` is the one, with ``(x, y)`` the adjugate of the
    kernel's 2x2 block on the sides applied to ``(a, b)``, times ``d``:
    the kernel vectors that are ``(d, 0)`` and ``(0, d)`` there, combined
    with no vector built for either.  It is checked to be in the kernel and
    to take the values on the sides."""
    f = _certified(diagram, request.rule)
    s1, s2 = arc_by_label(diagram, request.arc).sides
    k1, k2 = f.kernel
    d = zlinalg._minor(k1, k2, s1, s2)
    if d not in (1, -1):
        raise InternalInvariantError(
            f"kernel minor on the sides of arc {request.arc} is {d}, "
            "not +-1")
    a, b = request.a, request.b
    x, y = d * (a * k2[s2] - b * k2[s1]), d * (b * k1[s1] - a * k1[s2])
    u = tuple(map(add, map(mul, k1, repeat(x)), map(mul, k2, repeat(y))))
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
    # _family checks A u + b = o, so the residual A u is -b
    family = _family(diagram, rule, _unit(n, crossing, -1))
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
    """Single-rule solution built from the double-rule one: the winding
    sum's particular, corrected at the loops of the reducible crossings,
    where ``A1`` counts a region once that ``A2`` counts twice.  That is the
    single rule's route (``_LoopCorrection``), so this is its particular,
    the one zero on the pins."""
    return _family(diagram, SINGLE, b).particular


def solve_mod2(diagram: FlatDiagram, b) -> tuple[int, ...]:
    """Region subset solving the classical mod-2 problem; never unsolvable
    for a knot projection.

    An integral single-rule solution is one mod 2, so the answer is read off
    the single rule's route: its particular for ``b mod 2``, reduced mod 2
    and moved along its kernel, reduced mod 2, to zero on the
    lexicographically last pair of columns with an odd kernel minor
    (``zlinalg._last_pair``).  The route certifies ``det A1' = +-1``, so
    ``A1`` has rank n mod 2 and this is the one solution zero on that pair:
    the answer of a bit elimination whose free columns are 0 (README,
    "Certificates").  Its residual mod 2 and its zeros on the pair are
    checked.  A link is refused by the route, whose strand from dart 0,
    kept by the diagram, covers fewer than half the darts, before ``b`` is
    read."""
    try:
        f = _certified(diagram, SINGLE)
    except ValueError:      # the route's one refusal: a link
        raise ValueError(
            "the mod-2 solve requires a knot projection") from None
    b = tuple(x % 2 for x in b)
    incidence._require_length(b, diagram.crossing_count, "b")
    kernel = [[x & 1 for x in k] for k in f.kernel]
    f1, f2 = zlinalg._last_pair(kernel, f.fail)
    _, z1, z2 = zlinalg._pair_basis(kernel, f1, f2)
    p = [x & 1 for x in f.particular(b)]
    # the minor on the pair is odd, so z1 and z2 read (1, 0) and (0, 1)
    # there mod 2, where adding is subtracting
    u = [(x + p[f1] * y + p[f2] * z) & 1 for x, y, z in zip(p, z1, z2)]
    if u[f1] or u[f2] or any((x + y) & 1 for x, y in zip(f.image(u), b)):
        f.fail("the mod-2 solution misses b or its zeros on the free pair")
    return tuple(r for r, bit in enumerate(u) if bit)


def verify(diagram: FlatDiagram, rule: str, u, b) -> VerificationReport:
    """Check ``A u + b = o``, the matrix read anew off the regions at the
    diagram's corners."""
    res = incidence._residual(diagram, rule, tuple(u), tuple(b))
    return VerificationReport(
        rule, res, not any(res),
        tuple((f"v{i + 1}", x) for i, x in enumerate(res)))
