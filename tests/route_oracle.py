"""The solve routes' table building as it was before the kept strand, as a
test oracle.

``oracle_WindingSum`` and ``oracle_LoopCorrection`` are the library's
``_WindingSum`` and ``_LoopCorrection`` with the constructors they had
before the diagram kept its strand from dart 0, and the winding sum's
``_derived`` of then; these are copied verbatim, only renamed.  The
winding sum walks the strand itself, finds each crossing's arrivals in a
loop of their own, keys the tree's breadth-first search by a dict of
positions and reads the turns and the steps of ``corner_alpha1`` in two
more passes.  The loop correction reads its pairs off
``_doubled_crossings``, loops over them again for their ends, and takes its
own unit-weight tree pass as ``alpha``.  Every other method is the
library's.  ``tests/test_route_tables.py`` requires every table of the
library's routes to equal these.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import add, itemgetter, mul, ne, sub

from regionchoice import zlinalg
from regionchoice.diagram import FlatDiagram, _doubled_crossings, _walk
from regionchoice.solvers import (_KNOT_ONLY, _LoopCorrection, _pin_pair,
                                  _WindingSum)


class oracle_WindingSum(_WindingSum):
    """The double rule's route, its tables built as before the kept
    strand."""

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

    def _derived(self):
        """``e``, the kernel and ``sigma``, read anew off the tree and the
        corners: ``alpha`` is the tree's sum with unit weights, 0 on the
        first pin and ``a = +-1`` on the second, so the kernel vectors that
        are (1, 0) and (0, 1) on the pins are ``e - a e alpha`` and
        ``-a e alpha``.  ``e`` and ``e alpha`` are checked to be in the
        kernel, and ``sigma`` by ``_signs``."""
        alpha = self._tree_pass([1] * len(self.walk))
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


class oracle_LoopCorrection(_LoopCorrection):
    """The single rule's route, its tables built as before the kept
    strand."""

    def __init__(self, diagram: FlatDiagram,
                 double: oracle_WindingSum) -> None:
        self.double, self.pins = double, double.pins
        self.pairs = [(v, r) for r, twice in enumerate(
            _doubled_crossings(diagram)) for v in twice]
        p, q, k, size = double.p, double.q, double.start, len(double.walk)
        ends = []
        for v, r in self.pairs:
            lo, hi = (p[v] - k) % size, (q[v] - k) % size
            ends.append((lo, hi, 1, v, r) if lo < hi else (hi, lo, -1, v, r))
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
        self.home = home = [-1] * len(diagram._faces)
        for o, _, i, _ in double.tree:
            home[o] = inner[i]
        self.inside = [(r, h) for r, h in enumerate(home) if h >= 0]
        self.alpha = double._tree_pass([1] * size)
        # A1 k = -U V^T k for k in the double rule's kernel: the loops'
        # weights -tau sigma k[R] alone take it back to 0
        self.kernel = tuple(
            tuple(map(add, x, map(mul, double.e, self._sum([0] * len(home), [
                -c * x[r] for _, r, _, c in self.loops]))))
            for x in double.kernel)
        self._check()
