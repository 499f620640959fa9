import gc
import hashlib
import json
import weakref
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from regionchoice.catalog import catalog_entry, names
from regionchoice.diagram import (_DIAGRAMS_KEPT, D0, DiagramError,
                                  FlatDiagram, InternalInvariantError, _Map,
                                  apply_r1, apply_r2, arc_by_label, arcs,
                                  checkerboard, component_count, is_knot,
                                  parse_flat_pd, random_diagram,
                                  reducible_crossings, regions, to_dot,
                                  to_flat_pd)
from splice_oracle import splice

TREFOIL = ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3))


# The tuple-dart map the library traced on before its int darts ``4 c + s``,
# kept as the reference oracle: darts are pairs ``(crossing, slot)``.

def darts_by_label(crossings):
    """The darts carrying each arc label, in (crossing, slot) order."""
    by_label = {}
    for c, tup in enumerate(crossings):
        for s, label in enumerate(tup):
            by_label.setdefault(label, []).append((c, s))
    return by_label


def tuple_mates(crossings):
    """Each dart's partner: the other end of its arc."""
    return {d: (pair[0] if d == pair[1] else pair[1])
            for pair in darts_by_label(crossings).values() for d in pair}


def tuple_orbits(mate, turn):
    """Orbits of "cross to the mate, then move ``turn`` slots on", each
    started at its smallest dart and sorted by it.  Turn 3 traces the faces;
    turn 2 goes straight through every crossing, giving two strand orbits
    per component."""
    orbits = []
    seen = set()
    for start in sorted(mate):
        if start in seen:
            continue
        orbit = []
        d = start
        while True:
            orbit.append(d)
            seen.add(d)
            c, s = mate[d]
            d = (c, (s + turn) % 4)
            if d == start:
                break
            assert d not in seen, "dart walk is not a permutation"
        orbits.append(tuple(orbit))
    return orbits


def _relabel(crossings):
    """Renumber arc labels to 1..2n in order of first appearance in
    (crossing, slot) order, which is the order of their smallest darts."""
    order = dict.fromkeys(chain.from_iterable(crossings))
    new_label = {label: i for i, label in enumerate(order, 1)}
    return [[new_label[x] for x in tup] for tup in crossings]


def _r2_pairs(diagram):
    """Every ordered pair of distinct arcs that share a region, the order
    ``random_diagram`` picks R2 pairs from by position.

    Arcs come in label order; an arc's partners are the labels on its two
    side regions, sorted, itself left out.
    """
    on_region = [set() for _ in range(diagram.region_count)]
    sides = [[] for _ in range(diagram.arc_count + 1)]
    for d, r in enumerate(diagram._region):
        label = diagram.crossings[d >> 2][d & 3]
        on_region[r].add(label)
        sides[label].append(r)
    pairs = []
    for label in range(1, diagram.arc_count + 1):
        r1, r2 = sides[label]
        partners = (on_region[r1] | on_region[r2]) - {label}
        pairs.extend((label, b) for b in sorted(partners))
    return pairs


def test_d0_has_three_regions():
    assert D0.crossing_count == 1
    assert D0.region_count == 3


def test_trefoil_counts():
    D = FlatDiagram(TREFOIL)
    assert D.crossing_count == 3
    assert D.region_count == 5
    assert component_count(D) == 1
    assert is_knot(D)


def test_unpaired_label_rejected():
    with pytest.raises(DiagramError):
        FlatDiagram(((1, 2, 2, 3),))


def test_label_out_of_range_rejected():
    with pytest.raises(DiagramError):
        FlatDiagram(((1, 2, 2, 5),))


def test_bool_label_rejected():
    with pytest.raises(DiagramError):
        FlatDiagram(((True, 2, 2, 1),))
    with pytest.raises(DiagramError):
        parse_flat_pd('{"crossings": [[true, 2, 2, 1]]}')


def test_deeply_nested_json_rejected():
    with pytest.raises(DiagramError, match="nested"):
        parse_flat_pd('{"crossings": ' + "[" * 100000 + "]" * 100000 + "}")


def test_nonspherical_code_rejected():
    # a gluing whose face count violates Euler's formula on the sphere
    with pytest.raises(DiagramError, match="spher"):
        FlatDiagram(((1, 3, 2, 4), (2, 4, 1, 3)))


def test_region_corner_lookup():
    regs = regions(D0)
    assert [r.corners for r in regs] == [((0, 0), (0, 2)), ((0, 1),), ((0, 3),)]
    # the corner table: the region at each of the crossing's four corners
    assert D0._region == [0, 1, 0, 2]


def test_d0_crossing_is_reducible():
    assert reducible_crossings(D0) == (0,)


def test_trefoil_has_no_reducible_crossing():
    assert reducible_crossings(FlatDiagram(TREFOIL)) == ()


def test_arcs_cover_every_label_once():
    D = FlatDiagram(TREFOIL)
    labels = sorted(a.label for a in arcs(D))
    assert labels == [1, 2, 3, 4, 5, 6]
    # each arc separates two distinct regions
    for a in arcs(D):
        assert a.sides[0] != a.sides[1]


def test_arc_by_label_missing():
    with pytest.raises(DiagramError):
        arc_by_label(D0, 99)


def test_checkerboard_is_proper():
    for D in (D0, FlatDiagram(TREFOIL)):
        signs = checkerboard(D).signs
        assert set(signs) <= {1, -1}
        for a in arcs(D):
            assert signs[a.sides[0]] == -signs[a.sides[1]]


def test_checkerboard_trefoil_pattern():
    signs = checkerboard(FlatDiagram(TREFOIL)).signs
    assert signs == (1, -1, 1, -1, 1)


def test_flat_pd_roundtrip():
    D = FlatDiagram(TREFOIL, "trefoil")
    doc = to_flat_pd(D)
    back = parse_flat_pd(doc)
    assert back.crossings == D.crossings
    assert back.name == "trefoil"


def test_parse_rejects_garbage():
    with pytest.raises(DiagramError):
        parse_flat_pd("not json")
    with pytest.raises(DiagramError):
        parse_flat_pd(json.dumps({"name": "x"}))
    with pytest.raises(DiagramError):
        parse_flat_pd(json.dumps({"crossings": [[1, 2, 3]]}))


@pytest.mark.parametrize("build, message", [
    (lambda: parse_flat_pd('{"crossings": []}'), "diagram has no crossings"),
    (lambda: FlatDiagram(((2, 2, 2, 2),)), "missing arc label 1"),
    (lambda: FlatDiagram(((1, 1, 1, 2),)),
     r"unpaired arc label 1 \(appears 3x\)"),
    (lambda: parse_flat_pd('{"crossings": [1, 2]}'),
     '"crossings" must be a list of 4-element lists'),
    (lambda: parse_flat_pd('{"crossings": [[1, 2, 2, 1]], "name": 5}'),
     '"name" must be a string'),
    (lambda: apply_r1(D0, 99, "left"), "no arc labelled 99"),
    (lambda: random_diagram(1, -1), "move_count must be non-negative"),
    (lambda: FlatDiagram(((2, 3, 2, 3), (1, 4, 4, 1))),
     r"region touches crossing v1 4 times \(more than twice is outside the "
     r"supported domain\)"),
    # one face touches v3 and v2 three times each, v3 first in trace order
    (lambda: FlatDiagram(((7, 2, 3, 6), (8, 4, 6, 3), (8, 4, 2, 7),
                          (1, 1, 5, 5))),
     r"region touches crossing v3 3 times \(more than twice is outside the "
     r"supported domain\)"),
    (lambda: FlatDiagram(((1, 3, 2, 4), (2, 4, 1, 3))),
     r"non-spherical map: 2 crossings but 2 faces \(expected 4\)"),
    # a torus map of two crossings beside a curl: 2 + 3 faces, n + 2 in all
    (lambda: parse_flat_pd(
        '{"crossings": [[5, 1, 4, 1], [4, 2, 5, 2], [3, 6, 6, 3]]}'),
     "disconnected map: crossing v3 cannot be reached from v1"),
], ids=["no-crossings", "missing-label", "unpaired-label",
        "crossings-not-lists", "name-not-string", "r1-missing-arc",
        "negative-move-count", "crossing-touched-four-times",
        "first-crowded-crossing-in-trace-order", "non-spherical",
        "disconnected"])
def test_each_refusal_names_its_cause(build, message):
    with pytest.raises(DiagramError, match=f"^{message}$"):
        build()


def test_dot_output_mentions_every_crossing():
    out = to_dot(FlatDiagram(TREFOIL))
    for v in ("v1", "v2", "v3"):
        assert v in out


def test_r1_grows_by_one_crossing():
    grown = apply_r1(D0, 1, "left")
    assert grown.crossing_count == 2
    assert grown.region_count == 4


def test_r1_on_trefoil_leaves_one_reducible_crossing():
    D = FlatDiagram(TREFOIL)
    for arc in arcs(D):
        for side in ("left", "right"):
            grown = apply_r1(D, arc.label, side)
            assert grown.crossing_count == 4
            assert grown.region_count == 6
            assert len(reducible_crossings(grown)) == 1


def test_r1_bad_side():
    with pytest.raises(DiagramError):
        apply_r1(D0, 1, "up")


def test_r2_on_curl_loop_arcs():
    grown = apply_r2(D0, 1, 2)
    assert grown.crossing_count == 3
    assert grown.region_count == 5


def test_r2_needs_shared_region():
    D = apply_r2(D0, 1, 2)
    # every pair of arcs with disjoint sides is refused, and there are 6
    refused = 0
    for a in arcs(D):
        for b in arcs(D):
            if a.label < b.label and not set(a.sides) & set(b.sides):
                with pytest.raises(DiagramError, match="share no region"):
                    apply_r2(D, a.label, b.label)
                refused += 1
    assert refused == 6


def test_r2_same_arc_rejected():
    with pytest.raises(DiagramError):
        apply_r2(D0, 1, 1)


def test_random_diagram_deterministic():
    a = random_diagram(42, 5)
    b = random_diagram(42, 5)
    assert a.crossings == b.crossings


def test_random_diagram_zero_moves_is_curl():
    assert random_diagram(42, 0).crossings == D0.crossings


# sha256 of to_flat_pd(random_diagram(s, m)) + "\n" over the cases below, as
# the O(arcs^2) pair filter produced them before R2 pairs came from region
# incidence: every seeded diagram must stay byte-for-byte the same
GOLDEN_SEEDS = range(30)
GOLDEN_MOVES = (0, 1, 2, 5, 11, 21, 43)
GOLDEN_SHA256 = \
    "6f2078ec23059c42330a2c31e5dfcee804d654c88ce14045425351ad8d9220a7"


def test_seeded_diagrams_match_the_golden_digest():
    h = hashlib.sha256()
    for s in GOLDEN_SEEDS:
        for m in GOLDEN_MOVES:
            h.update((to_flat_pd(random_diagram(s, m)) + "\n").encode())
    assert h.hexdigest() == GOLDEN_SHA256


# the same digest over larger diagrams, as random_diagram computed them when
# every move built and validated a FlatDiagram
LARGE_SEEDS = range(6)
LARGE_MOVES = (90, 250)
LARGE_SHA256 = \
    "1f7265ead154d72770a51ef8db1e2d0cfb07ea6abbf50c0b7e95ea9ca9fbbd87"


def test_large_seeded_diagrams_match_the_golden_digest():
    h = hashlib.sha256()
    for s in LARGE_SEEDS:
        for m in LARGE_MOVES:
            h.update((to_flat_pd(random_diagram(s, m)) + "\n").encode())
    assert h.hexdigest() == LARGE_SHA256


# sha256 of to_flat_pd(move) + "\n" for apply_r1 at every arc and side,
# then apply_r2 at every pair of _r2_pairs, on each diagram of the catalog
# and random_diagram(s, 6 + 2 s), s in 0..5 (2774 moves), as the move bodies
# computed them when they still took the dart table and corner map as
# arguments
MOVES_SHA256 = \
    "237eacc77e3edc73b9ffa6473c129d632e9be4ee9be09275ef2a420ff49e110a"


def test_public_moves_match_the_golden_digest():
    h = hashlib.sha256()
    count = 0
    diagrams = ([catalog_entry(name).diagram for name in names()]
                + [random_diagram(s, 6 + 2 * s) for s in range(6)])
    for D in diagrams:
        moves = [apply_r1(D, label, side)
                 for label in range(1, D.arc_count + 1)
                 for side in ("left", "right")]
        moves += [apply_r2(D, *pair) for pair in _r2_pairs(D)]
        for grown in moves:
            h.update((to_flat_pd(grown) + "\n").encode())
        count += len(moves)
    assert count == 2774
    assert h.hexdigest() == MOVES_SHA256


def test_labels_and_move_counts_must_be_ints():
    D = catalog_entry("4_1").diagram
    for label in (True, False, 1.0, "1", None):
        with pytest.raises(DiagramError):
            arc_by_label(D, label)
        with pytest.raises(DiagramError):
            apply_r1(D, label, "left")
        with pytest.raises(DiagramError):
            apply_r2(D, label, 2)
    for moves in (True, False, 1.0):
        with pytest.raises(DiagramError):
            random_diagram(1, moves)


def test_the_constructor_takes_no_dart_table():
    # a table with the far darts of arcs 1 and 7 swapped describes other
    # faces; it must not get past the constructor, let alone into the
    # caches that G shares with every diagram equal to it
    G = random_diagram(0, 6)
    table = darts_by_label(G.crossings)
    table[1][1], table[7][1] = table[7][1], table[1][1]
    with pytest.raises(TypeError):
        regions(FlatDiagram(G.crossings, G.name, table))
    assert ([reg.corners for reg in regions(G)]
            == tuple_orbits(tuple_mates(G.crossings), 3))


@pytest.fixture
def mate_tables(monkeypatch):
    """The crossing counts of the mate tables built while it is in use."""
    from regionchoice import diagram
    build = diagram._int_mates
    calls = []

    def counted(order):
        # the table is built from the darts sorted by label, 4 per crossing
        calls.append(len(order) // 4)
        return build(order)

    monkeypatch.setattr(diagram, "_int_mates", counted)
    return calls


def test_random_diagram_builds_the_dart_table_once_per_move(mate_tables):
    D = random_diagram(5, 20)
    # one, by the validation of the grown diagram: the moves run on one map
    # seeded from the curl's stored table, and build no diagram
    assert mate_tables == [D.crossing_count]
    assert to_flat_pd(D) == to_flat_pd(random_diagram(5, 20))


def test_readers_build_no_mate_table(mate_tables):
    # a name never used before, so no cache holds this diagram yet
    D = FlatDiagram(random_diagram(8, 30).crossings, "no mate table")
    del mate_tables[:]
    misses = [f.cache_info().misses
              for f in (arcs, component_count, checkerboard)]
    arcs(D), component_count(D), checkerboard(D)
    assert [f.cache_info().misses
            for f in (arcs, component_count, checkerboard)] == [
                k + 1 for k in misses]
    regions(D), reducible_crossings(D)
    apply_r1(D, 1, "left")
    # the one table is the grown diagram's own, built by its validation
    assert mate_tables == [D.crossing_count + 1]


def test_splice_builds_a_mate_table_only_for_each_component(mate_tables):
    D = random_diagram(3, 25)
    del mate_tables[:]
    for v in range(D.crossing_count):
        split = splice(D, v)
        assert mate_tables == [comp.diagram.crossing_count
                               for comp in (split.first, split.second)
                               if comp.diagram is not None]
        del mate_tables[:]


def grown():
    return [random_diagram(seed, moves)
            for seed in range(12) for moves in (0, 1, 3, 8, 20)]


def test_r2_pairs_from_incidence_equal_the_quadratic_filter():
    for D in grown() + [catalog_entry(name).diagram for name in names()]:
        oracle = [(a.label, b.label) for a in arcs(D) for b in arcs(D)
                  if a.label != b.label and set(a.sides) & set(b.sides)]
        assert _r2_pairs(D) == oracle


def test_r2_picks_follow_the_pair_list():
    # the map's labels are the canonical ones, which random_diagram's
    # diagrams carry; the catalog's are renumbered to them
    for D in grown() + [FlatDiagram(_relabel(catalog_entry(name).diagram
                                             .crossings))
                        for name in names()]:
        grow = _Map(D)
        pairs = _r2_pairs(D)
        totals = []

        def at(k):
            def pick(total):
                totals.append(total)
                return k
            return pick

        picks = [grow.r2_pair(at(k)) for k in range(len(pairs))]
        assert totals == [len(pairs)] * len(pairs)
        assert [(grow.least.index(a) + 1, grow.least.index(b) + 1)
                for a, b in picks] == pairs


def test_every_move_leaves_the_faces_a_full_retrace_gives(monkeypatch):
    join = _Map._join
    moves = []

    def checked(self, pairs, move):
        join(self, pairs, move)
        crossings = self.crossings()
        # labels by first appearance, so the label order is _relabel's
        assert _relabel(crossings) == crossings
        faces: dict[int, set[int]] = {}
        for d, name in enumerate(self.face):
            faces.setdefault(name, set()).add(d)
        # a face is named by its least dart, the region order
        assert all(name == min(darts) for name, darts in faces.items())
        assert sorted(map(sorted, faces.values())) == sorted(
            sorted(4 * c + s for c, s in orbit)
            for orbit in tuple_orbits(tuple_mates(crossings), 3))
        assert self.arcs_on == {
            name: {min(d, self.mate[d]) for d in darts}
            for name, darts in faces.items()}
        moves.append(move)

    monkeypatch.setattr(_Map, "_join", checked)
    for seed in range(200):
        D = random_diagram(seed, 60)
        assert D.crossing_count == 1 + sum(
            1 if m == "R1" else 2 for m in moves[-60:])
    assert len(moves) == 200 * 60


@pytest.mark.parametrize("pairs, message", [
    (((0, 4), (3, 5), (4, 6)), "an arc it touched does not have two ends"),
    (((0, 4), (3, 6), (5, 7)), "a region touches crossing v1 3 times"),
    (((0, 3), (4, 5), (6, 7)), r"6 faces \(expected 4\)"),
], ids=["dart-paired-twice", "crossing-touched-thrice", "split-off-crossing"])
def test_a_move_that_breaks_the_map_is_refused_by_name(pairs, message):
    # a kink on the curl with its new crossing wired wrongly
    with pytest.raises(InternalInvariantError,
                       match=f"^R1 move to 2 crossings: {message}$"):
        _Map(D0)._join(pairs, "R1")


def test_regions_come_from_the_stored_faces():
    for D in grown() + [catalog_entry(name).diagram for name in names()]:
        fresh = sorted(tuple_orbits(tuple_mates(D.crossings), 3), key=min)
        assert [reg.corners for reg in regions(D)] == fresh
        assert [reg.index for reg in regions(D)] == list(range(len(fresh)))


def test_stored_faces_are_not_a_field():
    D = FlatDiagram(TREFOIL, "t")
    assert D._fields == ("crossings", "name")
    assert not {"_mate", "_faces", "_region", "_hash"} & set(D._fields)
    assert D == FlatDiagram(TREFOIL, "t")
    assert hash(D) == hash(FlatDiagram(TREFOIL, "t"))
    assert repr(D) == "FlatDiagram([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]] 't')"


def test_moves_leave_the_diagram_caches_alone():
    # lookups, not sizes: a full bounded cache keeps its size whatever it
    # was asked
    def lookups():
        return [f.cache_info().hits + f.cache_info().misses
                for f in (arcs, regions)]
    before = lookups()
    for seed in range(3):
        D = random_diagram(1000 + seed, 43)
    apply_r1(D, 1, "left")
    apply_r2(D, *_r2_pairs(D)[0])
    assert lookups() == before


CACHED = (regions, arcs, component_count, checkerboard)


def test_the_diagram_caches_share_one_bound():
    assert [f.cache_info().maxsize for f in CACHED] == [_DIAGRAMS_KEPT] * 4


def test_a_dropped_diagram_is_collected_once_more_are_asked():
    # names never used before, so no cache already holds an equal diagram
    D = FlatDiagram(random_diagram(31, 20).crossings, "dropped")
    for f in CACHED:
        f(D)
    dropped = weakref.ref(D)
    del D
    for k in range(_DIAGRAMS_KEPT):
        E = FlatDiagram(random_diagram(31, 20).crossings, f"asked after {k}")
        for f in CACHED:
            f(E)
    gc.collect()
    assert dropped() is None


def test_interleaved_diagrams_fit_the_bound():
    # a sweep that interleaves a few diagrams (one per size class) finds
    # each in every cache after its first lookup
    diagrams = [FlatDiagram(random_diagram(s, 4 + 4 * s).crossings,
                            f"interleaved {s}") for s in range(3)]
    before = [f.cache_info().misses for f in CACHED]
    for _ in range(4):
        for D in diagrams:
            for f in CACHED:
                f(D)
    assert [f.cache_info().misses for f in CACHED] == [k + 3 for k in before]


def test_faces_hold_the_mate_tables_dart_objects():
    # above 64 crossings a dart is past the interpreter's small-int cache,
    # so a face holding darts of its own would keep a second int per dart
    D = parse_flat_pd(to_flat_pd(random_diagram(3, 60)))
    assert D.crossing_count > 64
    mate = D._mate
    assert all(d is mate[mate[d]] for face in D._faces for d in face)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), moves=st.integers(0, 30))
def test_flat_pd_round_trip_keeps_diagram_and_faces(seed, moves):
    D = random_diagram(seed, moves)
    back = parse_flat_pd(to_flat_pd(D))
    assert back == D
    assert back._faces == D._faces


def test_random_diagram_stays_valid_knot():
    for seed in range(1, 16):
        D = random_diagram(seed, 5)
        assert D.crossing_count <= 11
        assert D.region_count == D.crossing_count + 2
        assert is_knot(D)


def test_splice_gives_two_components():
    diagrams = [FlatDiagram(TREFOIL)] + [random_diagram(s, m)
                                         for s in range(12) for m in (3, 8, 20)]
    for D in diagrams:
        n = D.crossing_count
        for v in range(n):
            split = splice(D, v)
            kept = set(split.first.crossings) | set(split.second.crossings)
            # crossings between the two new curves belong to neither
            # sub-diagram; two closed curves on the sphere cross evenly often
            assert kept <= set(range(n)) - {v}
            assert not set(split.first.crossings) & set(split.second.crossings)
            assert (n - 1 - len(split.first.crossings)
                    - len(split.second.crossings)) % 2 == 0
            for comp in (split.first, split.second):
                assert len(comp.region_map) == D.region_count
                assert max(comp.region_map) < comp.region_count
                assert set(comp.region_map) == set(range(comp.region_count))
                if comp.diagram is None:
                    assert comp.strand_arc is None
                    assert comp.region_count == 2
                    continue
                assert is_knot(comp.diagram)
                assert (set(arc_by_label(comp.diagram, comp.strand_arc).sides)
                        == set(comp.strand_sides))


def test_splice_refuses_a_crossing_index_it_does_not_have():
    D = FlatDiagram(TREFOIL)
    for v in (-1, 3, True, False, 1.0):
        with pytest.raises(DiagramError):
            splice(D, v)


# sha256 of repr(splice(D, v)) + "\n" at every crossing of the catalog and
# random_diagram(s, 6 + 2 s), s in 0..11, as the three-walk splice (entry
# slots, then an arc union-find, then a strand re-walk) computed them
SPLICE_SHA256 = \
    "58a3b7470f23c23f7e30b660d95e950d132b1fd278a32d72f0926771283eeca0"


def test_splice_matches_the_golden_digest():
    h = hashlib.sha256()
    diagrams = ([catalog_entry(name).diagram for name in names()]
                + [random_diagram(s, 6 + 2 * s) for s in range(12)])
    for D in diagrams:
        for v in range(D.crossing_count):
            h.update((repr(splice(D, v)) + "\n").encode())
    assert h.hexdigest() == SPLICE_SHA256


def test_splice_keeps_self_crossings():
    # a curl stacked on a curl: smoothing one keeps the other as a
    # self-crossing of its component
    D = apply_r1(D0, 1, "left")
    for v in range(2):
        split = splice(D, v)
        kept = set(split.first.crossings) | set(split.second.crossings)
        assert kept == {0, 1} - {v}


def test_splice_of_curl_yields_bare_loops():
    split = splice(D0, 0)
    assert split.first.diagram is None
    assert split.second.diagram is None


def test_splice_rejects_links():
    two = FlatDiagram(((1, 2, 3, 4), (1, 4, 3, 2)))
    assert component_count(two) == 2
    with pytest.raises(DiagramError,
                       match="^splice requires a knot projection$"):
        splice(two, 0)
