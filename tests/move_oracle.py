"""The R1/R2 move loop as it was before the arc table, as a test oracle.

``oracle_Map`` is the library's ``_Map`` from before the arc table, the
crowding check off the face table and the block counts of R2 partners;
with ``oracle_walk`` and ``oracle_crowded`` it is copied verbatim, only
renamed.  It keeps each arc's R2 partner count in label order, inserts a
count for every new arc, recounts a stale arc by a bisect into ``least``,
sums every count on each R2 pick, and counts every retraced face's
corners per crossing.  ``tests/test_moves.py`` drives it and the library's
map through the same moves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate

from regionchoice.diagram import FlatDiagram, InternalInvariantError


def oracle_walk(mate: list[int], start: int, turn: int) -> list[int]:
    """The orbit of "cross to the mate, then move ``turn`` slots on" from
    dart ``start``.  Turn 3 traces a face; turn 2 goes straight through
    every crossing, along a strand.  Each dart in the orbit is the int
    object the mate table holds for it, ``mate[mate[d]]``, so a face kept
    beside the table adds no int of its own."""
    orbit = []
    d = start
    while True:
        m = mate[d]
        orbit.append(mate[m])
        d = m - (m & 3) + ((m + turn) & 3)
        if d == start:
            return orbit


def oracle_crowded(face) -> list[tuple[int, int]]:
    """The crossings that the face has more than two corners at, in trace
    order, with their corner counts."""
    count: dict[int, int] = {}
    for d in face:
        count[d >> 2] = count.get(d >> 2, 0) + 1
    return [(c, k) for c, k in count.items() if k > 2]


class oracle_Map:
    """A knot projection under R1/R2 moves, edited in place.

    It starts from a copy of the diagram's int-dart mate table, which it
    edits, and from its faces.  Darts never move: a move re-pairs some darts
    with the darts of the crossings it appends, and retraces only the faces
    that held a re-paired dart.  An arc is named by its least dart, and
    ``least`` lists the names in order: an arc's label is its 1-based
    position there, the label of first appearance in (crossing, slot) order
    that the grown diagram carries.  A face is named by its least dart too,
    so faces in name order are the regions in canonical order.
    """

    def __init__(self, diagram: FlatDiagram) -> None:
        self.mate = list(diagram._mate)
        self.least = [d for d, e in enumerate(self.mate) if d < e]
        # each arc's number of R2 partners, in label order; a ``stale`` arc
        # lies on a face traced since its count was last taken
        self.count = [0] * len(self.least)
        self.stale: set[int] = set()
        self.face = [0] * len(self.mate)
        self.arcs_on: dict[int, set[int]] = {}
        for face in diagram._faces:
            self._set_face(face)

    def _set_face(self, orbit) -> None:
        name = min(orbit)
        for d in orbit:
            self.face[d] = name
        arcs_on = {min(d, self.mate[d]) for d in orbit}
        self.arcs_on[name] = arcs_on
        self.stale |= arcs_on

    def crossings(self) -> list[list[int]]:
        label = {a: i for i, a in enumerate(self.least, 1)}
        flat = [label[min(d, e)] for d, e in enumerate(self.mate)]
        return [flat[i:i + 4] for i in range(0, len(flat), 4)]

    def r1(self, a: int, side: str) -> None:
        """Kink arc ``a``: its least dart joins the new crossing's slot 0
        and its other end slot 1 (left) or 3 (right); the other two slots
        close a loop."""
        x = len(self.mate)
        if side == "left":
            self._join(((a, x), (self.mate[a], x + 1), (x + 2, x + 3)), "R1")
        else:
            self._join(((a, x), (self.mate[a], x + 3), (x + 1, x + 2)), "R1")

    def shared(self, a: int, b: int) -> set[int]:
        """The faces on both arcs."""
        face, mate = self.face, self.mate
        return {face[a], face[mate[a]]} & {face[b], face[mate[b]]}

    def r2(self, a: int, b: int) -> None:
        """Push arc ``a`` across arc ``b`` through the shared region with
        the smaller least dart."""
        face, mate = self.face, self.mate
        arc1, arc2 = (a, mate[a]), (b, mate[b])
        region = min(self.shared(a, b))
        # each arc's dart on the shared region first, then its far end
        d1, d2 = arc1 if face[a] == region else arc1[::-1]
        d3, d4 = arc2 if face[b] == region else arc2[::-1]
        # new crossings x, y read (q_m, p1, q_l, p0) and (q_r, p1, q_m, p2):
        # arc a becomes p0 p1 p2 and arc b becomes q_l q_m q_r
        x, y = len(mate), len(mate) + 4
        self._join(((d1, x + 3), (d2, y + 3), (d3, y), (d4, x + 2),
                    (x + 1, y + 1), (x, y + 2)), "R2")

    def _join(self, pairs, move: str) -> None:
        """Pair the two darts of each pair, all darts of the appended
        crossings among them, and retrace the faces that held a re-paired
        dart.  The checks equal a full validation of the new diagram, since
        no other face changed."""
        mate, face = self.mate, self.face
        size = len(mate)
        touched = [d for pair in pairs for d in pair]
        old = {face[d] for d in touched if d < size}
        grown = max(touched) + 1
        mate.extend([-1] * (grown - size))
        face.extend([-1] * (grown - size))
        for d, e in pairs:
            mate[d], mate[e] = e, d
        n = (grown + 3) // 4
        if len(set(touched)) < len(touched) or -1 in mate[size:] or grown % 4:
            raise InternalInvariantError(
                f"{move} move to {n} crossings: an arc it touched does not "
                "have two ends")
        # an old dart is re-paired only with a new, larger one, so every old
        # arc keeps its least dart; the arcs that start at a re-paired old
        # dart or at a new dart are new
        least = self.least
        for a in (min(pair) for pair in pairs):
            i = bisect_left(least, a)
            if i == len(least) or least[i] != a:
                least.insert(i, a)
                self.count.insert(i, 0)

        # every new face holds a re-paired or new dart, and every dart of
        # an old face that held one lies on a new face
        orbits = []
        seen: set[int] = set()
        for start in touched:
            if start in seen:
                continue
            orbit = oracle_walk(mate, start, 3)
            seen.update(orbit)
            for c, k in oracle_crowded(orbit):
                raise InternalInvariantError(
                    f"{move} move to {n} crossings: a region touches "
                    f"crossing v{c + 1} {k} times")
            orbits.append(orbit)
        for name in old:
            del self.arcs_on[name]
        for orbit in orbits:
            self._set_face(orbit)
        if len(self.arcs_on) != n + 2:
            raise InternalInvariantError(
                f"{move} move to {n} crossings: {len(self.arcs_on)} faces "
                f"(expected {n + 2})")

    def _sides(self, a: int) -> tuple[set[int], set[int]]:
        """The arcs on each of the two faces along arc ``a``."""
        return (self.arcs_on[self.face[a]],
                self.arcs_on[self.face[self.mate[a]]])

    def r2_pair(self, pick) -> tuple[int, int]:
        """The R2 pair at position ``pick(total)`` of the ``total`` ordered
        pairs of distinct arcs that share a face: by first arc, then by
        partner, both in label order."""
        for a in self.stale:
            one, two = self._sides(a)
            self.count[bisect_left(self.least, a)] = (
                len(one) + len(two) - len(one & two) - 1)
        self.stale.clear()
        totals = list(accumulate(self.count))
        k = pick(totals[-1])
        i = bisect_right(totals, k)
        a = self.least[i]
        one, two = self._sides(a)
        return a, sorted((one | two) - {a})[k - (totals[i - 1] if i else 0)]
