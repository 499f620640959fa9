"""Flat knot/link projections as combinatorial maps on the sphere.

A projection is encoded by a flat PD code: one 4-tuple of arc labels per
crossing, listed in counterclockwise slot order.  A *dart* names one arc
end: slot ``s`` of crossing ``c`` is the int ``4 c + s``, so dart order is
(crossing, slot) order.  The public ``Region.corners`` and ``Arc.darts``
spell a dart as the pair ``(c, s)``.  The strand continues through a
crossing from slot ``s`` to slot ``(s + 2) % 4``, dart ``d`` to ``d ^ 2``;
faces are the orbits of "traverse the arc, then turn to the
clockwise-adjacent slot at the arrival crossing".  With these conventions a
connected diagram with ``n`` crossings embeds on the sphere iff the face
trace yields exactly ``n + 2`` faces.

Regions are numbered canonically by the smallest dart in their corner list;
crossings keep their input order.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, bisect_right, insort
from functools import lru_cache
from itertools import accumulate, chain
from operator import attrgetter

Dart = tuple[int, int]


class InternalInvariantError(RuntimeError):
    """A structural property guaranteed by construction failed to hold."""


class DiagramError(ValueError):
    """The given PD code does not describe a valid spherical projection."""


class _Record:
    """Base of the package's immutable value records.

    A subclass lists its fields as annotations in its body, in order, with
    optional defaults after the fields without one.  Each subclass gets,
    from one ``exec``, an ``__init__`` that sets every field with
    ``object.__setattr__`` and then calls ``__post_init__`` if the class
    has one, and a ``__hash__`` of the field tuple unless the body defines
    its own; compiled per class, the hash reads each field as fast as the
    dataclass's does, where a shared one reading them by name is slower.
    Equality (same class, equal field tuples), ``repr``,
    ``__match_args__`` and the refusal to set or delete an attribute are
    shared.  These are the semantics of a frozen dataclass, without
    importing ``dataclasses``, which costs a call a few milliseconds.
    ``_fields`` names the fields in order.
    """

    def __init_subclass__(cls) -> None:
        body = cls.__dict__
        fields = tuple(cls.__annotations__)
        cls._fields = cls.__match_args__ = fields
        cls._get = attrgetter(*fields)
        scope = {"_setattr": object.__setattr__}
        params = []
        for f in fields:
            if f in body:
                scope[f"_default_{f}"] = body[f]
                params.append(f"{f}=_default_{f}")
            else:
                params.append(f)
        lines = [f"def __init__(self, {', '.join(params)}):"]
        lines += [f"    _setattr(self, {f!r}, {f})" for f in fields]
        if "__post_init__" in body:
            lines.append("    self.__post_init__()")
        if "__hash__" not in body:
            values = "".join(f"self.{f}, " for f in fields)
            lines += ["def __hash__(self):", f"    return hash(({values}))"]
        exec("\n".join(lines), scope)
        for name in ("__init__", "__hash__"):
            if name in scope:
                function = scope[name]
                function.__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, function)

    def __eq__(self, other):
        # a lone field is compared bare, not as a 1-tuple: the same unless
        # a value is unequal to itself, as no record's is
        if other.__class__ is self.__class__:
            get = self._get
            return get(self) == get(other)
        return NotImplemented

    def __repr__(self) -> str:
        items = (f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({', '.join(items)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class FlatDiagram(_Record):
    """A flat projection: crossings with counterclockwise dart order."""

    crossings: tuple[tuple[int, int, int, int], ...]
    name: str | None = None

    def __post_init__(self) -> None:
        crossings = tuple(map(tuple, self.crossings))
        object.__setattr__(self, "crossings", crossings)
        # the validation's mate table, faces in region order and region of
        # every dart, kept so that nothing builds them again, the hash,
        # which the lru_caches keyed by diagram ask for on every lookup, and
        # the solve routes by rule (`solvers._certified`); not fields, so
        # ==, hash, repr and pickling ignore them
        mate, faces, region = _validate(crossings)
        object.__setattr__(self, "_mate", mate)
        object.__setattr__(self, "_faces", faces)
        object.__setattr__(self, "_region", region)
        object.__setattr__(self, "_hash", hash((crossings, self.name)))
        object.__setattr__(self, "_routes", {})

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # str hashes are salted per process: a copy or an unpickled diagram
        # is built afresh, and so hashes in its own process
        return type(self), (self.crossings, self.name)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @property
    def arc_count(self) -> int:
        return 2 * len(self.crossings)

    @property
    def region_count(self) -> int:
        return len(self.crossings) + 2

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"FlatDiagram({list(map(list, self.crossings))!r}{tag})"


class Region(_Record):
    """A face of the projection, with its corners in trace order.

    A corner ``(c, s)`` is the wedge at crossing ``c`` between the arcs in
    slots ``s`` and ``(s + 1) % 4``.
    """

    index: int
    corners: tuple[Dart, ...]


class Arc(_Record):
    """An edge of the projection with its two end darts and side regions."""

    label: int
    darts: tuple[Dart, Dart]
    sides: tuple[int, int]


class CheckerboardColoring(_Record):
    """A proper two-coloring of regions across arcs; +1 black, -1 white."""

    signs: tuple[int, ...]

    def __getitem__(self, region: int) -> int:
        return self.signs[region]


# ---------------------------------------------------------------------------
# core map machinery


def _int_mates(order: list[int]) -> list[int]:
    """Each dart's partner, the other end of its arc, from the darts sorted
    by label, where the two ends of each arc sit side by side."""
    mate = [0] * len(order)
    for d, e in zip(order[0::2], order[1::2]):
        mate[d] = e
        mate[e] = d
    return mate


def _walk(mate: list[int], start: int, turn: int) -> list[int]:
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


def _crowded(face) -> list[tuple[int, int]]:
    """The crossings that the face has more than two corners at, in trace
    order, with their corner counts."""
    count: dict[int, int] = {}
    for d in face:
        count[d >> 2] = count.get(d >> 2, 0) + 1
    return [(c, k) for c, k in count.items() if k > 2]


def _validate(crossings) -> tuple[list[int], tuple, list[int]]:
    """Check the crossings and return their mate table, their faces in
    canonical order and the region of every dart.  A valid code passes a
    few bulk checks; only a failed one runs the loops that name its first
    fault, in a fixed order: labels, face count, crowding, connectivity."""
    n = len(crossings)
    if n == 0:
        raise DiagramError("diagram has no crossings")
    flat = list(chain.from_iterable(crossings))
    # bool is a subclass of int, but true/false are not labels
    kinds = set(map(type, flat))
    ints = bool not in kinds and all(map(int.__subclasscheck__, kinds))
    # sorted by label, the darts of a valid code read 1, 1, 2, 2, ..., 2n, 2n
    order = (sorted(range(len(flat)), key=flat.__getitem__)
             if ints and set(map(len, crossings)) == {4} else [])
    paired = list(map(flat.__getitem__, order))
    labels = list(range(1, 2 * n + 1))
    if paired[0::2] != labels or paired[1::2] != labels:
        for tup in crossings:
            if len(tup) != 4:
                raise DiagramError(f"crossing {tup!r} does not have 4 darts")
            for label in tup:
                if (not isinstance(label, int) or isinstance(label, bool)
                        or label < 1 or label > 2 * n):
                    raise DiagramError(
                        f"arc label {label!r} outside 1..{2 * n}")
        # so every label is an int in 1..2n, and paired holds them all
        for label in labels:
            got = bisect_right(paired, label) - bisect_left(paired, label)
            if got != 2:
                raise DiagramError(
                    f"unpaired arc label {label} (appears {got}x)" if got
                    else f"missing arc label {label}")

    mate = _int_mates(order)
    # a face steps from a dart to its mate, then one slot clockwise, as
    # _walk(mate, d, 3) does; each dart is the int the mate table holds for
    # it, mate[mate[d]], so the faces add no int of their own
    dart = list(map(mate.__getitem__, mate))
    # one slot clockwise: the slot before, and slot 3 for slot 0
    turn = dart[-1:] + dart[:-1]
    turn[0::4] = dart[3::4]
    step = list(map(turn.__getitem__, mate))
    # -1 until traced: every dart below a new start lies on an earlier
    # face, so the faces come out sorted by least dart, the region order
    region = [-1] * len(mate)
    faces = []
    for start in dart:
        if region[start] < 0:
            r = region[start] = len(faces)
            face = [start]
            d = step[start]
            while d != start:
                face.append(d)
                region[d] = r
                d = step[d]
            faces.append(tuple(face))
    if len(faces) != n + 2:
        raise DiagramError(
            f"non-spherical map: {n} crossings but {len(faces)} faces "
            f"(expected {n + 2})")
    # a region with more than two corners at a crossing holds three of its
    # four, among them an opposite pair: (a, c) or (b, d)
    for a, b, c, d in zip(region[0::4], region[1::4], region[2::4],
                          region[3::4]):
        if (a == c and a in (b, d)) or (b == d and b in (a, c)):
            for face in faces:
                for v, k in _crowded(face):
                    raise DiagramError(
                        f"region touches crossing v{v + 1} {k} times "
                        "(more than twice is outside the supported domain)")
    # "n + 2 faces iff spherical" holds for a connected map only: a torus
    # beside a sphere can count n + 2 faces too
    reached = [0]
    seen = bytearray(n)
    seen[0] = 1
    for c in reached:
        for d in mate[4 * c:4 * c + 4]:
            if not seen[d >> 2]:
                seen[d >> 2] = 1
                reached.append(d >> 2)
    if len(reached) != n:
        raise DiagramError(f"disconnected map: crossing v{seen.index(0) + 1} "
                           "cannot be reached from v1")
    return mate, tuple(faces), region


def _dart(d: int) -> Dart:
    """Dart ``d`` as the public ``(crossing, slot)`` pair."""
    return d >> 2, d & 3


# How many diagrams `regions`, `arcs`, `component_count` and `checkerboard`
# each keep: the last ones asked, so a process that meets a new diagram on
# every call holds a fixed number, not every one it has seen.  A bound, not
# an option: a caller interleaves a few diagrams at a time (a sweep over
# size classes keeps one per class, 3).  A diagram kept keeps its solve
# routes (`FlatDiagram._routes`) too.
_DIAGRAMS_KEPT = 8


@lru_cache(maxsize=_DIAGRAMS_KEPT)
def regions(diagram: FlatDiagram) -> tuple[Region, ...]:
    """The ``n + 2`` faces of the diagram in canonical order."""
    return tuple(Region(i, tuple(map(_dart, face)))
                 for i, face in enumerate(diagram._faces))


def reducible_crossings(diagram: FlatDiagram) -> tuple[int, ...]:
    return tuple(sorted(set(chain.from_iterable(_doubled_crossings(diagram)))))


def _doubled_crossings(diagram: FlatDiagram) -> list[tuple[int, ...]]:
    """Per region, in region order, the crossings it has two corners at,
    in increasing order.  Adjacent corners flank an arc, whose sides differ
    (a 4-valent map has no bridge), so equal corners are opposite ones."""
    region = diagram._region
    twice: list[list[int]] = [[] for _ in range(diagram.region_count)]
    for v, (a, b, c, d) in enumerate(zip(region[0::4], region[1::4],
                                         region[2::4], region[3::4])):
        if a == c:
            twice[a].append(v)
        if b == d:
            twice[b].append(v)
    return list(map(tuple, twice))


@lru_cache(maxsize=_DIAGRAMS_KEPT)
def arcs(diagram: FlatDiagram) -> tuple[Arc, ...]:
    """Arcs sorted by label, each with its two (distinct) side regions."""
    region = diagram._region
    return tuple(Arc(label, (_dart(d), _dart(e)), (region[d], region[e]))
                 for label, (d, e) in enumerate(_arc_darts(diagram), 1))


def _arc_darts(diagram: FlatDiagram) -> list[tuple[int, int]]:
    """Each arc's two darts, the smaller first, in label order.  The two
    faces traversing an arc are the ones owning its darts, its sides, and
    they are checked to differ."""
    mate, region = diagram._mate, diagram._region
    ends = [(0, 0)] * diagram.arc_count
    for d, label in enumerate(chain.from_iterable(diagram.crossings)):
        if d < mate[d]:
            ends[label - 1] = (d, mate[d])
    for label, (d, e) in enumerate(ends, 1):
        if region[d] == region[e]:
            raise InternalInvariantError(
                f"arc {label} has the same region on both sides")
    return ends


def _require_int(value, what: str) -> None:
    """Refuse an arc label, crossing index or count that is not an int;
    bool is a subclass of int, but True and False are none of those."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DiagramError(f"{what} {value!r} is not an integer")


def _require_crossing(diagram: FlatDiagram, v: int) -> None:
    """Refuse an index that names none of the diagram's crossings."""
    _require_int(v, "crossing index")
    if not 0 <= v < diagram.crossing_count:
        raise DiagramError(f"no crossing v{v + 1}")


def arc_by_label(diagram: FlatDiagram, label: int) -> Arc:
    _require_int(label, "arc label")
    if not 1 <= label <= diagram.arc_count:
        raise DiagramError(f"no arc labelled {label}")
    return arcs(diagram)[label - 1]


@lru_cache(maxsize=_DIAGRAMS_KEPT)
def component_count(diagram: FlatDiagram) -> int:
    """Number of closed curves underlying the projection."""
    # each curve is two directed strand orbits
    mate = diagram._mate
    seen = bytearray(len(mate))
    orbits = 0
    for start in range(len(mate)):
        if not seen[start]:
            orbits += 1
            for d in _walk(mate, start, 2):
                seen[d] = 1
    if orbits % 2 != 0:
        raise InternalInvariantError("odd number of directed strand orbits")
    return orbits // 2


def is_knot(diagram: FlatDiagram) -> bool:
    """Whether the projection is one closed curve: then the strand from
    dart 0 runs along all of it, half the darts, and the other half are
    the same curve walked back."""
    mate = diagram._mate
    return 2 * len(_walk(mate, 0, 2)) == len(mate)


@lru_cache(maxsize=_DIAGRAMS_KEPT)
def checkerboard(diagram: FlatDiagram) -> CheckerboardColoring:
    """Proper 2-coloring of regions across arcs, region 0 colored +1."""
    m = diagram.region_count
    region = diagram._region
    adjacency: list[set[int]] = [set() for _ in range(m)]
    for d, e in _arc_darts(diagram):
        adjacency[region[d]].add(region[e])
        adjacency[region[e]].add(region[d])
    signs = [0] * m
    signs[0] = 1
    queue = [0]
    while queue:
        r = queue.pop()
        for nb in adjacency[r]:
            if signs[nb] == 0:
                signs[nb] = -signs[r]
                queue.append(nb)
            elif signs[nb] != -signs[r]:
                raise InternalInvariantError(
                    "region adjacency graph is not bipartite")
    if 0 in signs:
        raise InternalInvariantError("region adjacency graph is disconnected")
    return CheckerboardColoring(tuple(signs))


# ---------------------------------------------------------------------------
# flat-PD documents


def parse_flat_pd(text: str) -> FlatDiagram:
    """Parse a flat-PD document (JSON with "crossings" and optional "name")."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DiagramError("JSON is nested too deeply") from exc
    if not isinstance(doc, dict) or "crossings" not in doc:
        raise DiagramError('document must be an object with a "crossings" key')
    crossings = doc["crossings"]
    if (not isinstance(crossings, list)
            or not all(isinstance(c, list) for c in crossings)):
        raise DiagramError('"crossings" must be a list of 4-element lists')
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise DiagramError('"name" must be a string')
    return FlatDiagram(crossings, name)


def to_flat_pd(diagram: FlatDiagram) -> str:
    doc: dict = {"crossings": [list(c) for c in diagram.crossings]}
    if diagram.name:
        doc["name"] = diagram.name
    return json.dumps(doc)


def to_dot(diagram: FlatDiagram) -> str:
    """Render the 4-valent graph in DOT, regions annotated on edges."""
    lines = ["graph diagram {"]
    for c in range(diagram.crossing_count):
        lines.append(f'  v{c + 1} [shape=point, xlabel="v{c + 1}"];')
    for arc in arcs(diagram):
        (c1, _), (c2, _) = arc.darts
        r1, r2 = sorted(arc.sides)
        lines.append(
            f'  v{c1 + 1} -- v{c2 + 1} [label="a{arc.label}: r{r1 + 1}|r{r2 + 1}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reidemeister edits


class _Map:
    """A knot projection under R1/R2 moves, edited in place.

    It starts from a copy of the diagram's int-dart mate table, which it
    edits, and from its faces.  Darts never move: a move re-pairs some darts
    with the darts of the crossings it appends, and retraces only the faces
    that held a re-paired dart.  An arc is named by its least dart, which
    ``arc`` holds for each of its darts, and ``least`` lists the names in
    order: an arc's label is its 1-based position there, the label of first
    appearance in (crossing, slot) order that the grown diagram carries.  A
    face is named by its least dart too, so faces in name order are the
    regions in canonical order.
    """

    def __init__(self, diagram: FlatDiagram) -> None:
        mate = self.mate = list(diagram._mate)
        size = len(mate)
        self.arc = [d if d < e else e for d, e in enumerate(mate)]
        self.least = sorted(set(self.arc))
        # a face steps from a dart to its mate, then one slot clockwise
        turn = list(range(-1, size - 1))
        turn[0::4] = range(3, size, 4)
        self.step = list(map(turn.__getitem__, mate))
        # each arc's number of R2 partners at its least dart, 0 at every
        # other dart, with their sums over blocks of 64 darts and over runs
        # of 64 blocks; a ``stale`` arc lies on a face traced since its
        # count was last taken
        self.count = [0] * size
        self.block = [0] * ((size + 63) >> 6)
        self.run = [0] * ((size + 4095) >> 12)
        self.stale = set(self.least)
        # each face starts at its least dart, its name
        names = [face[0] for face in diagram._faces]
        self.face = list(map(names.__getitem__, diagram._region))
        self.arcs_on = {face[0]: set(map(self.arc.__getitem__, face))
                        for face in diagram._faces}

    def crossings(self) -> list[list[int]]:
        label = dict(zip(self.least, range(1, len(self.least) + 1)))
        flat = list(map(label.__getitem__, self.arc))
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
        mate, face, arc, step, least = (self.mate, self.face, self.arc,
                                        self.step, self.least)
        size = len(mate)
        touched = [d for pair in pairs for d in pair]
        grown = max(touched) + 1
        for table in (mate, face, arc, step):
            table.extend([-1] * (grown - size))
        self.count.extend([0] * (grown - size))
        self.block.extend([0] * (((grown + 63) >> 6) - len(self.block)))
        self.run.extend([0] * (((grown + 4095) >> 12) - len(self.run)))
        # a re-paired old dart leaves its face, which is retraced
        old = set()
        for d in touched:
            if d < size:
                old.add(face[d])
                face[d] = -1
        for d, e in pairs:
            mate[d], mate[e] = e, d
            step[d] = e - 1 if e & 3 else e + 3
            step[e] = d - 1 if d & 3 else d + 3
            a = d if d < e else e
            # an old dart is re-paired only with a new, larger one, so every
            # old arc keeps its least dart; the arcs that start at a
            # re-paired old dart or at a new dart are new
            if arc[a] != a:
                insort(least, a)
            arc[d] = arc[e] = a
        n = (grown + 3) // 4
        if len(set(touched)) < len(touched) or -1 in mate[size:] or grown % 4:
            raise InternalInvariantError(
                f"{move} move to {n} crossings: an arc it touched does not "
                "have two ends")

        # every new face holds a re-paired or new dart, and every dart of
        # an old face that held one lies on a new face
        arcs_on, stale = self.arcs_on, self.stale
        for name in old:
            del arcs_on[name]
        orbits = []
        bridged = False
        for start in touched:
            if face[start] >= 0:
                continue
            orbit = [start]
            d = step[start]
            while d != start:
                orbit.append(d)
                d = step[d]
            orbits.append(orbit)
            name = min(orbit)
            for d in orbit:
                face[d] = name
            on = arcs_on[name] = set(map(arc.__getitem__, orbit))
            stale |= on
            # a face holding both ends of an arc runs along both its sides
            bridged = bridged or len(on) < len(orbit)
        # three corners of a crossing on one face include two adjacent ones,
        # the two sides of the arc between them: so a face is crowded only
        # if it runs along both sides of an arc
        if bridged:
            for orbit in orbits:
                for c, k in _crowded(orbit):
                    raise InternalInvariantError(
                        f"{move} move to {n} crossings: a region touches "
                        f"crossing v{c + 1} {k} times")
        if len(arcs_on) != n + 2:
            raise InternalInvariantError(
                f"{move} move to {n} crossings: {len(arcs_on)} faces "
                f"(expected {n + 2})")

    def r2_pair(self, pick) -> tuple[int, int]:
        """The R2 pair at position ``pick(total)`` of the ``total`` ordered
        pairs of distinct arcs that share a face: by first arc, then by
        partner, both in label order, which is least-dart order."""
        face, mate, arcs_on = self.face, self.mate, self.arcs_on
        count, block, run = self.count, self.block, self.run
        for a in self.stale:
            one, two = arcs_on[face[a]], arcs_on[face[mate[a]]]
            delta = len(one) + len(two) - len(one & two) - 1 - count[a]
            count[a] += delta
            block[a >> 6] += delta
            run[a >> 12] += delta
        self.stale.clear()
        # the run that position k falls in, then the block in that run,
        # then the arc in that block
        k = pick(sum(run))
        a, width = 0, len(run)
        for sums in (run, block, count):
            totals = list(accumulate(sums[a:a + width]))
            i = bisect_right(totals, k)
            if i:
                k -= totals[i - 1]
            a, width = (a + i) << 6, 64
        a >>= 6
        one, two = arcs_on[face[a]], arcs_on[face[mate[a]]]
        return a, sorted((one | two) - {a})[k]


# The moves seed a map from the diagram's own mate table and faces, not
# from the lru_cache'd functions, so no diagram a move reads is kept alive
# in those caches; a grown diagram's intermediate steps are not diagrams.


def _least_dart(diagram: FlatDiagram, label: int) -> int:
    """The arc's least dart, as a map names it, by one scan."""
    _require_int(label, "arc label")
    for d, x in enumerate(chain.from_iterable(diagram.crossings)):
        if x == label:
            return d
    raise DiagramError(f"no arc labelled {label}")


def apply_r1(diagram: FlatDiagram, arc_label: int, side: str) -> FlatDiagram:
    """Insert a kink on the arc, on the chosen side of its traversal."""
    if side not in ("left", "right"):
        raise DiagramError(f"side must be 'left' or 'right', got {side!r}")
    a = _least_dart(diagram, arc_label)
    grow = _Map(diagram)
    grow.r1(a, side)
    return FlatDiagram(grow.crossings(), diagram.name)


def apply_r2(diagram: FlatDiagram, arc1_label: int, arc2_label: int) -> FlatDiagram:
    """Push the first arc across the second through a shared region."""
    if arc1_label == arc2_label:
        raise DiagramError("cannot push an arc across itself")
    a, b = _least_dart(diagram, arc1_label), _least_dart(diagram, arc2_label)
    grow = _Map(diagram)
    if not grow.shared(a, b):
        raise DiagramError(
            f"arcs {arc1_label} and {arc2_label} share no region")
    grow.r2(a, b)
    return FlatDiagram(grow.crossings(), diagram.name)


def random_diagram(seed: int, move_count: int) -> FlatDiagram:
    """Grow a knot projection from the one-crossing curl by random moves.

    Each move is R1 on a random arc label and side, or R2 on the pair at a
    random position of every ordered pair of distinct arcs that share a
    region, listed by first label and then by partner label.  That order is
    part of the seeded-output contract: ``rng.choice`` picks by position,
    so reordering it changes every seeded diagram (the golden digests in
    ``tests/test_diagram.py``).  The moves run on one map, edited in place
    with local checks; only the grown diagram is built and fully validated.
    """
    _require_int(move_count, "move_count")
    if move_count < 0:
        raise DiagramError("move_count must be non-negative")
    rng = random.Random(seed)
    grow = _Map(D0)
    for _ in range(move_count):
        if rng.random() < 0.5:
            label = rng.choice(range(1, len(grow.least) + 1))
            grow.r1(grow.least[label - 1], rng.choice(("left", "right")))
        else:
            grow.r2(*grow.r2_pair(lambda total: rng.choice(range(total))))
    return FlatDiagram(grow.crossings(), f"random-{seed}-{move_count}")


D0 = FlatDiagram(((1, 2, 2, 1),), name="d0")
