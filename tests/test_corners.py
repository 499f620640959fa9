"""Per-crossing facts read off the corner table against the walks they
replaced.

Row v of either region choice matrix is the four corners at crossing v,
``diagram._region[4 v .. 4 v + 3]``: the regions with two corners at v, the
corner counts, reducibility and the mod-2 oracle's bit rows are all read
there.  The code that built them elsewhere stays here as the oracle: the
walk over each ``Region``'s corners, a region's corner count at a crossing,
the overshoot that the two-path single-rule solve summed over the regions
with two corners at a crossing, and the bit rows of the sparse rows.
"""

import random

import pytest

from regionchoice.catalog import catalog_entry, names
from regionchoice.diagram import (DiagramError, FlatDiagram,
                                  _doubled_crossings, arc_by_label, arcs,
                                  random_diagram, reducible_crossings,
                                  regions)
from regionchoice.incidence import DOUBLE, SINGLE, _residual
from regionchoice.solvers import (add1_algebraic, add1_geometric, solve,
                                  solve_mod2, solve_single_via_double)
from test_sparse import LINKS, corner_bit_rows, sparse_rows

KNOTS = ([catalog_entry(name).diagram for name in names()]
         + [random_diagram(s, 3 + s % 40) for s in range(300)])


def region_walk_doubled(diagram):
    """Per region, the crossings it has two corners at, by one pass over
    each region's corners."""
    out = []
    for reg in regions(diagram):
        seen = set()
        twice = []
        for c, _ in reg.corners:
            if c in seen:
                twice.append(c)
            seen.add(c)
        out.append(tuple(sorted(twice)))
    return out


def region_corner_count(region, crossing):
    """How many of the region's corners lie at the crossing."""
    return sum(1 for c, _ in region.corners if c == crossing)


def rule_gap_overshoot(diagram, particular):
    """Per crossing, the double-rule particular's excess over the single
    rule: the values of the regions with two corners there."""
    overshoot = [0] * diagram.crossing_count
    for region, crossings in enumerate(region_walk_doubled(diagram)):
        for v in crossings:
            overshoot[v] += particular[region]
    return overshoot


def dict_bit_rows(diagram, b):
    """The mod-2 rows with ``b`` in bit ``n + 2``, from the sparse rows."""
    cols = diagram.region_count
    return [sum(1 << j for j in row) | x % 2 << cols
            for row, x in zip(sparse_rows(diagram, SINGLE), b)]


def test_doubled_crossings_equal_the_region_walk():
    reducible = 0
    for D in KNOTS + LINKS:
        twice = region_walk_doubled(D)
        assert _doubled_crossings(D) == twice
        assert reducible_crossings(D) == tuple(
            sorted({c for row in twice for c in row}))
        reducible += bool(reducible_crossings(D))
    # both outcomes are seen
    assert 0 < reducible < len(KNOTS + LINKS)


def test_corner_counts_and_reducibility_equal_the_region_walk():
    counts = set()
    for D in KNOTS[:120] + LINKS:
        regs = regions(D)
        for v in range(D.crossing_count):
            at = D._region[4 * v:4 * v + 4]
            for reg in regs:
                k = at.count(reg.index)
                assert k == region_corner_count(reg, v)
                counts.add(k)
            assert (len(set(at)) < 4) == any(
                region_corner_count(reg, v) == 2 for reg in regs)
    assert counts == {0, 1, 2}


def test_mod2_bit_rows_equal_the_sparse_rows():
    # the input of the mod-2 oracle, read off the corner table
    rng = random.Random(5)
    for D in KNOTS + LINKS:
        b = tuple(rng.randint(-3, 3) for _ in range(D.crossing_count))
        assert corner_bit_rows(D, b) == dict_bit_rows(D, b)


def test_overshoot_is_the_single_rule_residual_of_the_double_particular():
    rng = random.Random(7)
    nonzero = 0
    for D in KNOTS:
        b = tuple(rng.randint(-9, 9) for _ in range(D.crossing_count))
        p = solve(D, DOUBLE, b).particular
        overshoot = rule_gap_overshoot(D, p)
        assert _residual(D, SINGLE, p, b) == tuple(-x for x in overshoot)
        # the two-path construction the overshoot fed
        fix = solve(D, SINGLE, tuple(-x for x in overshoot)).particular
        assert solve_single_via_double(D, b) == tuple(
            x + y for x, y in zip(p, fix))
        nonzero += any(overshoot)
    assert nonzero > len(KNOTS) // 2


def test_arc_by_label_is_the_arc_with_that_label():
    for D in KNOTS[:60] + LINKS:
        for arc in arcs(D):
            assert arc_by_label(D, arc.label) is arc
    D = catalog_entry("3_1").diagram
    for label in (0, -1, 7, 99):
        with pytest.raises(DiagramError, match=f"^no arc labelled {label}$"):
            arc_by_label(D, label)


def test_per_crossing_readers_build_no_region_objects():
    # a name never used before, so no cache holds this diagram yet
    D = FlatDiagram(random_diagram(12, 40).crossings, "no region objects")
    n = D.crossing_count
    b = tuple(range(n))
    misses = regions.cache_info().misses
    for rule in (SINGLE, DOUBLE):
        solve(D, rule, b)
        add1_algebraic(D, rule, n - 1)
    add1_geometric(D, n - 1)
    solve_single_via_double(D, b)
    solve_mod2(D, b)
    reducible_crossings(D)
    assert regions.cache_info().misses == misses
    # and the count does see a build
    regions(D)
    assert regions.cache_info().misses == misses + 1

