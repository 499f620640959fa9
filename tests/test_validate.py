"""The bulk-pass validator against the sequential one it replaced.

``oracle_validate`` is the validator as it was before the bulk passes:
with ``oracle_int_mates``, ``oracle_walk`` and ``oracle_crowded`` it is
copied verbatim, only renamed.  It checks the labels crossing by crossing,
builds the mate table with a dict, traces each face, counts each face's
corners per crossing and walks the crossings for connectivity.  On every
input here both must return the identical ``(mate, faces, region)``, or
raise ``DiagramError`` with the identical message, so that a code with
several faults names the same one first.
"""

import enum
import random
from itertools import chain

from hypothesis import given, settings, strategies as st

from regionchoice.catalog import catalog_entry, names
from regionchoice.diagram import DiagramError, _validate, random_diagram


def oracle_int_mates(crossings) -> list[int]:
    """Each dart's partner, the other end of its arc."""
    mate = [0] * (4 * len(crossings))
    end: dict[int, int] = {}
    for d, label in enumerate(chain.from_iterable(crossings)):
        e = end.setdefault(label, d)
        mate[d], mate[e] = e, d
    return mate


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


def oracle_validate(crossings) -> tuple[list[int], tuple, list[int]]:
    """Check the crossings and return their mate table, their faces in
    canonical order and the region of every dart."""
    n = len(crossings)
    if n == 0:
        raise DiagramError("diagram has no crossings")
    counts: dict[int, int] = {}
    for tup in crossings:
        if len(tup) != 4:
            raise DiagramError(f"crossing {tup!r} does not have 4 darts")
        for label in tup:
            # bool is a subclass of int, but true/false are not labels
            if (not isinstance(label, int) or isinstance(label, bool)
                    or label < 1 or label > 2 * n):
                raise DiagramError(f"arc label {label!r} outside 1..{2 * n}")
            counts[label] = counts.get(label, 0) + 1
    for label in range(1, 2 * n + 1):
        got = counts.get(label, 0)
        if got == 0:
            raise DiagramError(f"missing arc label {label}")
        if got != 2:
            raise DiagramError(f"unpaired arc label {label} (appears {got}x)")

    mate = oracle_int_mates(crossings)
    # -1 until traced: every dart below a new start lies on an earlier
    # face, so the faces come out sorted by least dart, the region order
    region = [-1] * len(mate)
    faces = []
    for start in range(len(mate)):
        if region[start] < 0:
            face = oracle_walk(mate, start, 3)
            r = len(faces)
            for d in face:
                region[d] = r
            faces.append(tuple(face))
    if len(faces) != n + 2:
        raise DiagramError(
            f"non-spherical map: {n} crossings but {len(faces)} faces "
            f"(expected {n + 2})")
    for face in faces:
        for c, k in oracle_crowded(face):
            raise DiagramError(
                f"region touches crossing v{c + 1} {k} times "
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


# ---------------------------------------------------------------------------
# inputs

# a 2-crossing map of two faces, a torus; beside a sphere of n crossings
# its faces make the count n + 2 + 2 for n + 2 crossings
TORUS = [[1, 3, 2, 4], [2, 4, 1, 3]]
# each valid in every label but one face: at v1 four corners; at v3 and
# v2 three each, v3 first in trace order
CROWDED = [[[2, 3, 2, 3], [1, 4, 4, 1]],
           [[7, 2, 3, 6], [8, 4, 6, 3], [8, 4, 2, 7], [1, 1, 5, 5]]]
# labels that are not ints in 1..2n, whatever n is
FOREIGN = [0, -1, True, False, 1.0, "1", None, [1], 10 ** 30]


def outcome(crossings, validate):
    """What ``validate`` makes of the code: its result or its message."""
    try:
        return validate(tuple(map(tuple, crossings)))
    except DiagramError as exc:
        return f"DiagramError: {exc}"


def agree(crossings):
    """Both validators' outcome, checked equal."""
    got = outcome(crossings, _validate)
    assert got == outcome(crossings, oracle_validate), crossings
    return got


def shifted(crossings, by: int):
    return [[x + by for x in tup] for tup in crossings]


def scrambled(crossings, rng: random.Random):
    """The same map under a random relabelling, crossing order and cyclic
    turn of each crossing's slots."""
    labels = sorted(set(chain.from_iterable(crossings)))
    perm = labels[:]
    rng.shuffle(perm)
    new = dict(zip(labels, perm))
    out = []
    for tup in crossings:
        k = rng.randrange(4)
        tup = [new[x] for x in tup]
        out.append(tup[k:] + tup[:k])
    rng.shuffle(out)
    return out


def curled(crossings, rng: random.Random, count: int):
    """The code with ``count`` curls put on random arcs: one end of the arc
    moves to a new crossing whose other two slots close a loop."""
    out = [list(tup) for tup in crossings]
    for _ in range(count):
        top = 2 * len(out)
        label = rng.randrange(1, top + 1)
        c = max(i for i, tup in enumerate(out) if label in tup)
        out[c][len(out[c]) - 1 - out[c][::-1].index(label)] = top + 1
        loop = top + 2
        curl = rng.choice(([label, loop, loop, top + 1],
                           [label, top + 1, loop, loop]))
        out.insert(rng.randrange(len(out) + 1), curl)
    return out


def corrupted(crossings, rng: random.Random):
    """The code with one random fault put in."""
    out = [list(tup) for tup in crossings]
    n = len(out)
    c = rng.randrange(n)
    s = rng.randrange(len(out[c])) if out[c] else 0
    kind = rng.choice(("swap", "duplicate", "merge", "foreign", "edge",
                       "drop", "extra"))
    if kind == "swap" and out[c]:
        c2 = rng.randrange(n)
        if out[c2]:
            s2 = rng.randrange(len(out[c2]))
            out[c][s], out[c2][s2] = out[c2][s2], out[c][s]
    elif kind == "duplicate" and out[c]:
        other = rng.choice(list(chain.from_iterable(out)))
        out[c][s] = other
    elif kind == "merge" and out[c]:
        # both ends of one arc take another arc's label
        gone, other = out[c][s], rng.choice(list(chain.from_iterable(out)))
        out = [[other if x == gone else x for x in tup] for tup in out]
    elif kind == "foreign" and out[c]:
        out[c][s] = rng.choice(FOREIGN)
    elif kind == "edge" and out[c]:
        out[c][s] = rng.choice((0, 2 * n + 1))
    elif kind == "drop" and out[c]:
        del out[c][s]
    else:
        out[c].append(rng.randrange(1, 2 * n + 1))
    return out


def random_pairing(n: int, rng: random.Random):
    """Labels 1..2n, each put on two random darts: most such codes are
    not spherical, some are crowded or disconnected, a few are valid."""
    labels = [x for x in range(1, 2 * n + 1) for _ in (0, 1)]
    rng.shuffle(labels)
    return [labels[i:i + 4] for i in range(0, 4 * n, 4)]


def grown(seed: int, moves: int):
    return [list(tup) for tup in random_diagram(seed, moves).crossings]


CATALOG = [[list(tup) for tup in catalog_entry(name).diagram.crossings]
           for name in names()]


# ---------------------------------------------------------------------------
# valid codes


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 6), moves=st.integers(0, 60),
       curls=st.integers(0, 12), rng=st.randoms(use_true_random=False))
def test_valid_codes_give_the_identical_tables(seed, moves, curls, rng):
    code = curled(grown(seed, moves), rng, curls)
    for crossings in (code, scrambled(code, rng)):
        mate, faces, region = agree(crossings)
        assert len(faces) == len(crossings) + 2
        assert all(d is mate[mate[d]] for face in faces for d in face)


def test_the_catalog_gives_the_identical_tables():
    rng = random.Random(1)
    for code in CATALOG:
        for crossings in (code, scrambled(code, rng), curled(code, rng, 5)):
            assert not isinstance(agree(crossings), str)


def test_int_subclass_labels_are_accepted():
    # an IntEnum or any int subclass but bool was a label, and still is
    Label = enum.IntEnum("Label", [f"a{k}" for k in range(1, 200)])

    class Plain(int):
        pass

    for code in [grown(4, 30)] + CATALOG:
        for kind in (Label, Plain):
            crossings = [[kind(x) for x in tup] for tup in code]
            assert agree(crossings) == outcome(code, _validate)
            mixed = [tup[:] for tup in code]
            mixed[0][0] = kind(mixed[0][0])
            assert agree(mixed) == outcome(code, _validate)


# ---------------------------------------------------------------------------
# invalid codes


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, 10 ** 6), moves=st.integers(0, 40),
       faults=st.integers(1, 3), rng=st.randoms(use_true_random=False))
def test_corrupted_codes_give_the_identical_message(seed, moves, faults, rng):
    crossings = scrambled(grown(seed, moves), rng)
    for _ in range(faults):
        crossings = corrupted(crossings, rng)
    agree(crossings)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(n=st.integers(1, 6), rng=st.randoms(use_true_random=False))
def test_random_pairings_give_the_identical_outcome(n, rng):
    agree(random_pairing(n, rng))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6), moves=st.integers(0, 30),
       curls=st.integers(0, 6), rng=st.randoms(use_true_random=False))
def test_composite_codes_give_the_identical_message(seed, moves, curls, rng):
    code = grown(seed, moves)
    n = len(code)
    other = curled(rng.choice(CATALOG), rng, curls)
    side_by_side = code + shifted(other, 2 * n)
    torus_first = TORUS + shifted(code, 4)
    torus_last = code + shifted(TORUS, 2 * n)
    crowded = scrambled(curled(rng.choice(CROWDED), rng, curls), rng)
    assert agree(side_by_side).startswith("DiagramError: non-spherical map")
    assert agree(torus_first).startswith("DiagramError: disconnected map")
    assert agree(torus_last).startswith("DiagramError: disconnected map")
    assert agree(scrambled(torus_last, rng)).startswith("DiagramError: ")
    assert agree(crowded).startswith("DiagramError: region touches")


def test_the_corruptions_reach_every_fault():
    # the generators above are not vacuous: seeded the same way, they reach
    # every message the validator has, and valid codes too
    rng = random.Random(0)
    seen = set()
    for k in range(1500):
        code = scrambled(grown(k, k % 25), rng)
        for _ in range(1 + k % 3):
            code = corrupted(code, rng)
        got = agree(code)
        seen.add(got.split(" ")[1] if isinstance(got, str) else "valid")
        got = agree(random_pairing(1 + k % 5, rng))
        seen.add(got.split(" ")[1] if isinstance(got, str) else "valid")
    assert agree([]) == "DiagramError: diagram has no crossings"
    # "crossing": a slot short or over; "arc": a foreign label;
    # "region": crowded; "non-spherical", "disconnected", "missing",
    # "unpaired" and codes that stay valid
    assert seen == {"crossing", "arc", "missing", "unpaired",
                    "non-spherical", "region", "disconnected", "valid"}


def test_each_foreign_label_gets_the_identical_message():
    for code in [[[1, 2, 2, 1]], grown(2, 9)] + CATALOG:
        for c in range(len(code)):
            for s in range(4):
                for label in FOREIGN + [2 * len(code) + 1]:
                    crossings = [tup[:] for tup in code]
                    crossings[c][s] = label
                    assert agree(crossings).startswith("DiagramError: ")


def test_the_first_of_several_faults_is_named():
    code = grown(6, 12)
    n = len(code)
    three = [tup[:] for tup in code]
    del three[-1][0]
    # a foreign label ahead of a 3-slot crossing, and behind it
    for c, want in ((0, "arc label"), (n - 1, "crossing")):
        crossings = [tup[:] for tup in three]
        crossings[c][1] = "1"
        assert agree(crossings).startswith(f"DiagramError: {want}")
    # a label missing and another unpaired: the smaller label is named
    crossings = [tup[:] for tup in code]
    crossings[0][0] = crossings[0][1]
    got = agree(crossings)
    assert got.startswith(("DiagramError: missing", "DiagramError: unpaired"))
    # crowded and disconnected: crowding is checked first
    crossings = CROWDED[0] + shifted(TORUS, 4)
    assert agree(crossings).startswith("DiagramError: region touches")
