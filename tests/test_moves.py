"""The move loop against the one it replaced.

``move_oracle.oracle_Map`` is the map as it was before the arc table, the
crowding check off the face table and the block counts of R2 partners.
Both maps take the same seeded R1/R2 walks; after every move they must
hold the same crossings, the same face name at every dart and the same
arc names, and give the same ``(total, pair)`` for the same R2 pick.  A
join that breaks the map must be refused with the identical message.
"""

import random

import pytest

from regionchoice import diagram
from regionchoice.catalog import catalog_entry, names
from regionchoice.diagram import (D0, InternalInvariantError, _Map,
                                  apply_r1, apply_r2, random_diagram)
from move_oracle import oracle_Map


def same_pick(rng, ours, theirs):
    """The R2 pair both maps give for one random position of their list,
    which must be the same pair out of the same total."""
    totals, position = [], []

    def pick(total):
        totals.append(total)
        if not position:
            position.append(rng.randrange(total))
        return position[0]

    pair = theirs.r2_pair(pick)
    assert ours.r2_pair(pick) == pair
    assert totals[0] == totals[1]
    return pair


def assert_same(ours, theirs):
    assert ours.crossings() == theirs.crossings()
    assert ours.face == theirs.face
    assert ours.least == theirs.least
    assert ours.mate == theirs.mate
    assert ours.arcs_on == theirs.arcs_on


def walk(start, seed, moves):
    """Both maps through ``moves`` seeded R1/R2 moves from ``start``, the
    R2 pair list compared after every move; the final crossing count."""
    rng = random.Random(seed)
    ours, theirs = _Map(start), oracle_Map(start)
    assert_same(ours, theirs)
    for _ in range(moves):
        if rng.random() < 0.5:
            a = rng.choice(theirs.least)
            side = rng.choice(("left", "right"))
            ours.r1(a, side)
            theirs.r1(a, side)
        else:
            a, b = same_pick(rng, ours, theirs)
            ours.r2(a, b)
            theirs.r2(a, b)
        assert_same(ours, theirs)
        same_pick(rng, ours, theirs)
    return len(ours.mate) // 4


def starts():
    return ([D0] + [catalog_entry(name).diagram for name in names()]
            + [random_diagram(s, 5) for s in range(4)])


@pytest.mark.parametrize("seed", range(120))
def test_seeded_walks_match_the_oracle(seed):
    start = starts()[seed % len(starts())]
    walk(start, seed, 1 + seed % 60)


@pytest.mark.parametrize("seed", [0, 1])
def test_long_walks_match_the_oracle(seed):
    assert walk(D0, 1000 + seed, 700) >= 1000


# the three joins of test_a_move_that_breaks_the_map_is_refused_by_name
BROKEN = (((0, 4), (3, 5), (4, 6)), ((0, 4), (3, 6), (5, 7)),
          ((0, 3), (4, 5), (6, 7)))


def refusal(build, pairs):
    try:
        build(D0)._join(pairs, "R1")
    except InternalInvariantError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("pairs", BROKEN)
def test_broken_joins_are_refused_as_the_oracle_refuses_them(pairs):
    message = refusal(_Map, pairs)
    assert message is not None
    assert message == refusal(oracle_Map, pairs)


def rewired(rng, mate):
    """Cut one or two arcs and wire their ends to one or two new
    crossings at random, the rest of the new darts paired among
    themselves: what a move does, but with any wiring."""
    size = len(mate)
    ends = []
    for a in rng.sample([d for d in range(size) if d < mate[d]],
                        rng.choice((1, 2))):
        ends += [a, mate[a]]
    new = list(range(size, size + 4 * rng.choice((1, 2))))
    rng.shuffle(new)
    pairs = list(zip(ends, new))
    rest = new[len(ends):]
    pairs += list(zip(rest[0::2], rest[1::2]))
    rng.shuffle(pairs)
    return tuple(pairs)


def test_rewired_joins_match_the_oracle():
    rng = random.Random(7)
    outcomes: dict[str, int] = {}
    for i in range(1500):
        start = random_diagram(i % 40, i % 7)
        ours, theirs = _Map(start), oracle_Map(start)
        pairs = rewired(rng, theirs.mate)
        results = []
        for grow in (ours, theirs):
            try:
                grow._join(pairs, "R2")
                results.append(None)
            except InternalInvariantError as exc:
                results.append(str(exc))
        assert results[0] == results[1], pairs
        if results[0] is None:
            assert_same(ours, theirs)
            kind = "valid"
        else:
            kind = "crowded" if "touches" in results[0] else "faces"
        outcomes[kind] = outcomes.get(kind, 0) + 1
    # valid joins, crowded regions and wrong face counts all occur
    assert set(outcomes) == {"valid", "crowded", "faces"}, outcomes


def test_a_valid_move_never_counts_corners(monkeypatch):
    calls = []
    crowded = diagram._crowded

    def counted(face):
        calls.append(face)
        return crowded(face)

    monkeypatch.setattr(diagram, "_crowded", counted)
    for seed in range(30):
        D = random_diagram(seed, 60)
        grow = _Map(D)
        a, b = grow.r2_pair(lambda total: seed % total)
        apply_r1(D, D.arc_count, "right")
        apply_r2(D, grow.least.index(a) + 1, grow.least.index(b) + 1)
    assert calls == []
    with pytest.raises(InternalInvariantError, match="touches crossing v1"):
        _Map(D0)._join(BROKEN[1], "R1")
    assert calls
