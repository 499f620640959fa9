"""The paper's splice: the orientation-respecting smoothing of a knot at a
self-crossing, with both components built as diagrams of their own.

The library computes the geometric add-1 in closed form from winding
numbers (``solvers.add1_geometric``); this construction is the reference
that the closed form is checked against.  ``_strand_cut`` finds the two
arrivals at the crossing on the strand from dart 0, as the library's
double-rule route finds them in its own strand walk.  The class names
are part of ``repr``, which the golden digest ``SPLICE_SHA256`` in
``test_diagram`` covers.
"""

from __future__ import annotations

from dataclasses import dataclass

from regionchoice.diagram import (DiagramError, FlatDiagram,
                                  InternalInvariantError, _require_crossing,
                                  _walk)


@dataclass(frozen=True)
class SplicedComponent:
    """One component of a spliced diagram, viewed with the other deleted.

    ``diagram`` is ``None`` for a crossing-free loop.  ``region_map`` sends
    every region of the original diagram to the component region containing
    it; ``strand_sides`` are the component regions on the two sides of the
    strand created by the smoothing, and ``strand_arc`` is the component arc
    carrying that strand (``None`` for a bare loop).
    """

    diagram: FlatDiagram | None
    region_map: tuple[int, ...]
    crossings: tuple[int, ...]
    strand_arc: int | None
    strand_sides: tuple[int, int]

    @property
    def region_count(self) -> int:
        if self.diagram is None:
            return 2
        return self.diagram.region_count


@dataclass(frozen=True)
class ComponentSplit:
    """Result of the orientation-respecting smoothing at a self-crossing."""

    crossing: int
    first: SplicedComponent
    second: SplicedComponent


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _strand_cut(diagram: FlatDiagram, v: int) -> tuple[list[int], int, int]:
    """The darts that the strand from dart 0 leaves through, in order, and
    the positions ``p < q`` of its two arrivals at ``v``: a knot has two
    strand orbits, one each way, so this one holds half of the darts.
    Splicing at ``v`` cuts the walk there, between ``p`` and ``q``."""
    _require_crossing(diagram, v)
    mate = diagram._mate
    walk = _walk(mate, 0, 2)
    if 2 * len(walk) != len(mate):
        raise DiagramError("splice requires a knot projection")
    arrivals = [i for i, d in enumerate(walk) if mate[d] >> 2 == v]
    if len(arrivals) != 2:
        raise InternalInvariantError(
            f"knot traversal enters v{v + 1} {len(arrivals)} times")
    return (walk, *arrivals)


def splice(diagram: FlatDiagram, v: int) -> ComponentSplit:
    """Orientation-respecting smoothing of a knot at a self-crossing."""
    walk, p, q = _strand_cut(diagram, v)
    mate, region = diagram._mate, diagram._region
    i1, i2 = mate[walk[p]] & 3, mate[walk[q]] & 3
    # the smoothing joins entry i1 to exit i2+2 and entry i2 to exit i1+2,
    # so each component's walk starts just after v and ends arriving there;
    # component 0 is the one carrying the smallest dart
    halves = (walk[q + 1:] + walk[:p + 1], walk[p + 1:q + 1])

    # region quotients: splicing merges the two corners of v not cut off by
    # a new strand; deleting a component merges regions across its arcs
    strands = ({i1, (i2 + 2) % 4}, {i2, (i1 + 2) % 4})
    merged = [s for s in range(4) if {s, (s + 1) % 4} not in strands]
    components = []
    for k, half in enumerate(halves):
        uf = _UnionFind(diagram.region_count)
        uf.union(region[4 * v + merged[0]], region[4 * v + merged[1]])
        for d in halves[1 - k]:
            uf.union(region[d], region[mate[d]])
        components.append(_build_component(diagram, v, half, uf))
    return ComponentSplit(v, components[0], components[1])


def _build_component(diagram, v, walk, uf) -> SplicedComponent:
    """The component whose curve leaves through the darts ``walk``, from
    just after ``v`` to its arrival back at ``v``; ``uf`` is its region
    quotient of the diagram."""
    mate, region = diagram._mate, diagram._region
    m = diagram.region_count
    passes: dict[int, int] = {}
    for d in walk:
        passes[d >> 2] = passes.get(d >> 2, 0) + 1
    kept = tuple(sorted(c for c, k in passes.items() if k == 2 and c != v))
    root_of = [uf.find(r) for r in range(m)]
    roots = sorted(set(root_of))
    if len(roots) != len(kept) + 2:
        raise InternalInvariantError(
            f"component has {len(roots)} region classes for {len(kept)} "
            "crossings")
    index = {root: i for i, root in enumerate(roots)}
    raw_map = tuple(index[root] for root in root_of)

    # side regions of the smoothed strand, read off the arc arriving at v
    d1, d2 = sorted((walk[-1], mate[walk[-1]]))
    raw_sides = (raw_map[region[d1]], raw_map[region[d2]])
    if raw_sides[0] == raw_sides[1]:
        raise InternalInvariantError("smoothed strand has equal side regions")

    if not kept:
        # bare loop: two regions, the one containing region 0 first
        return SplicedComponent(None, raw_map, (), None, raw_sides)

    # a component arc runs from a dart leaving a kept crossing to the next
    # dart arriving at one; the walk starts and ends at v, so the one arc
    # that wraps past its end carries the smoothed strand
    local = {c: i for i, c in enumerate(kept)}
    ends = []
    start = wrap_end = None
    for d in walk:
        if d >> 2 in local:
            start = d
        e = mate[d]
        if e >> 2 in local:
            if start is None:
                wrap_end = e
            else:
                ends.append(tuple(sorted((start, e))))
                start = None
    strand = tuple(sorted((start, wrap_end)))
    label_of = {pair: i + 1 for i, pair in enumerate(sorted(ends + [strand]))}
    dart_label = {d: lab for pair, lab in label_of.items() for d in pair}
    crossings = tuple(tuple(dart_label[4 * c + s] for s in range(4))
                      for c in kept)
    sub = FlatDiagram(crossings, None)

    # match the component's own faces to the quotient classes
    class_to_region: dict[int, int] = {}
    for c in kept:
        for s in range(4):
            cls = raw_map[region[4 * c + s]]
            reg = sub._region[4 * local[c] + s]
            if class_to_region.setdefault(cls, reg) != reg:
                raise InternalInvariantError(
                    "component faces do not refine the region quotient")
    if len(set(class_to_region.values())) != sub.region_count:
        raise InternalInvariantError(
            "component faces do not biject with region classes")
    region_map = tuple(class_to_region[c] for c in raw_map)
    return SplicedComponent(sub, region_map, kept, label_of[strand],
                            (class_to_region[raw_sides[0]],
                             class_to_region[raw_sides[1]]))
