"""The sparse matrix path against the dense routines it replaced.

The mod-2 solve reads the single rule's route; the GF(2) elimination on
bit rows it ran before, ``solve_gf2`` on ``corner_bit_rows``, stays here as
its oracle (``bit_elimination_mod2``).  The components are counted on the
diagram's int darts ``4 c + s``.  The sparse rows ``sparse_rows``, which
the single rule's elimination factored before its loop correction, stay
here as the oracle of the bit rows and of the splice construction's
factorisation.  The routines these replaced stay as oracles too:
``dense_matrix`` is the corner loop ``build_matrix`` ran over ``regions``,
``column_scan_gf2`` the GF(2) elimination that scanned every column of
every row, and the component
count is the strand walk on ``(crossing, slot)`` pairs,
``tuple_orbits(tuple_mates(...), 2)`` from ``test_diagram``.  The residual
that ``verify`` and the geometric add-1 read off the regions at each
crossing's corners is checked against the dense ``residual``.
"""

import random

import pytest

from regionchoice.catalog import catalog_entry, names
from regionchoice.diagram import (DiagramError, FlatDiagram, apply_r1,
                                  apply_r2, component_count, is_knot,
                                  random_diagram, regions)
from regionchoice.incidence import (DOUBLE, SINGLE, _residual, build_matrix,
                                    mod2, residual)
from regionchoice.solvers import solve_mod2
from test_diagram import tuple_mates, tuple_orbits

# the Hopf diagram and one R2 move on it: two components each
LINKS = [FlatDiagram(((1, 2, 3, 4), (1, 4, 3, 2))),
         FlatDiagram(((1, 2, 3, 4), (5, 4, 3, 6), (7, 8, 2, 1),
                      (6, 8, 7, 5)))]
KNOTS = ([catalog_entry(name).diagram for name in names()]
         + [random_diagram(s, 3 + s % 40) for s in range(200)])


def sparse_rows(diagram, rule):
    """The matrix as sparse rows: per crossing, ``{region: entry}`` over the
    regions touching it, in increasing region order.  One step per corner,
    read off the diagram's faces: a corner at crossing v puts its region in
    row v, once under the single rule and once per corner under the double
    rule."""
    if rule not in (SINGLE, DOUBLE):
        raise ValueError(f"unknown rule {rule!r}")
    rows = [{} for _ in diagram.crossings]
    for j, face in enumerate(diagram._faces):
        for d in face:
            row = rows[d >> 2]
            row[j] = 1 if rule == SINGLE else row.get(j, 0) + 1
    return rows


def dense_matrix(diagram, rule):
    """The entries, one step per corner of every region."""
    regs = regions(diagram)
    rows = [[0] * len(regs) for _ in range(diagram.crossing_count)]
    for reg in regs:
        for v, _ in reg.corners:
            rows[v][reg.index] = (1 if rule == SINGLE
                                  else rows[v][reg.index] + 1)
    return tuple(map(tuple, rows))


def column_scan_gf2(matrix, b):
    """``A u = b`` over GF(2) by Gaussian elimination on bitmask rows, each
    pivot found and each back-substitution made by a scan of the columns."""
    rows = [list(r) for r in matrix]
    if len(b) != len(rows):
        raise ValueError(f"b has length {len(b)}, expected {len(rows)}")
    if not rows:
        return ()
    cols = len(rows[0])
    masks = []
    for row, bit in zip(rows, b):
        if len(row) != cols:
            raise ValueError("ragged matrix")
        m = 0
        for j, x in enumerate(row):
            if x % 2:
                m |= 1 << j
        masks.append(m | ((bit % 2) << cols))
    pivots = []
    for m in masks:
        for col, pm in pivots:
            if (m >> col) & 1:
                m ^= pm
        for col in range(cols):
            if (m >> col) & 1:
                pivots.append((col, m))
                break
        else:
            if (m >> cols) & 1:
                return None
    u = [0] * cols
    for col, pm in reversed(pivots):
        acc = (pm >> cols) & 1
        for j in range(cols):
            if j != col and (pm >> j) & 1:
                acc ^= u[j]
        u[col] = acc
    return tuple(u)


def solve_gf2(masks: list[int], cols: int):
    """Solve ``A u = b`` over GF(2) on bit rows; returns a 0/1 tuple or
    None.  Bit ``j < cols`` of a mask is the row's entry in column ``j``
    and bit ``cols`` its right-hand side.

    Each row is reduced by the pivot rows before it and pivots on its
    lowest column bit; the free columns are 0, and each pivot column is
    resolved from the last pivot upwards as the parity of its row against
    the columns resolved so far."""
    columns = (1 << cols) - 1
    pivots = []  # (column bit, mask)
    for m in masks:
        for bit, pm in pivots:
            if m & bit:
                m ^= pm
        m_cols = m & columns
        if m_cols:
            pivots.append((m_cols & -m_cols, m))
        elif m >> cols:
            return None
    # a pivot row's other column bits are all later pivots' or free, so
    # they are resolved before it
    u = 0
    for bit, pm in reversed(pivots):
        if ((pm >> cols) + (pm & u).bit_count()) & 1:
            u |= bit
    return tuple((u >> j) & 1 for j in range(cols))


def corner_bit_rows(diagram, b):
    """The mod-2 rows with ``b mod 2`` in bit ``n + 2``: every single-rule
    entry is 1, so row v's bits are the regions at v's four corners."""
    cols, region = diagram.region_count, diagram._region
    return [1 << r0 | 1 << r1 | 1 << r2 | 1 << r3 | x % 2 << cols
            for r0, r1, r2, r3, x in zip(region[0::4], region[1::4],
                                         region[2::4], region[3::4], b)]


def bit_elimination_mod2(diagram, b):
    """The regions of ``solve_gf2``'s answer on ``corner_bit_rows``, whose
    free columns are 0: the oracle of ``solve_mod2``."""
    bits = solve_gf2(corner_bit_rows(diagram, b), diagram.region_count)
    return tuple(r for r, bit in enumerate(bits) if bit)


def outcome(call, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("rule", [SINGLE, DOUBLE])
def test_rows_are_the_nonzeros_of_the_matrix(rule):
    for D in KNOTS + LINKS:
        dense = build_matrix(D, rule).entries
        assert dense == dense_matrix(D, rule)
        assert sparse_rows(D, rule) == [{j: x for j, x in enumerate(row) if x}
                                  for row in dense]
        # in increasing region order
        assert all(list(row) == sorted(row) for row in sparse_rows(D, rule))


def test_rows_refuse_an_unknown_rule():
    with pytest.raises(ValueError, match="unknown rule 'triple'"):
        sparse_rows(LINKS[0], "triple")


@pytest.mark.parametrize("rule", [SINGLE, DOUBLE])
def test_residual_from_the_corners_equals_the_dense_residual(rule):
    rng = random.Random(7)
    for D in KNOTS + LINKS:
        M = build_matrix(D, rule)
        n, cols = D.crossing_count, D.region_count
        u = tuple(rng.randint(-9, 9) for _ in range(cols))
        b = tuple(rng.randint(-9, 9) for _ in range(n))
        assert _residual(D, rule, u, b) == residual(M, u, b)
        # the length refusals, b checked first
        for args in ((u, b[1:]), (u[1:], b), (u[1:], b + (0,))):
            assert outcome(_residual, D, rule, *args) == outcome(residual, M,
                                                                 *args)
    with pytest.raises(ValueError, match="unknown rule 'triple'"):
        _residual(LINKS[0], "triple", (0,) * 4, (0, 0))


def test_single_rule_residual_drops_the_second_of_two_opposite_corners():
    # the corner table's single-rule residual, with no set per row, is the
    # dense product, also where a region has two corners at a crossing
    rng = random.Random(17)
    diagrams = ([catalog_entry(name).diagram for name in names()] + LINKS
                + [random_diagram(s, 3 + s % 40) for s in range(300)])
    doubled = 0
    for D in diagrams:
        M = build_matrix(D, SINGLE)
        u = tuple(rng.randint(-9, 9) for _ in range(D.region_count))
        b = tuple(rng.randint(-9, 9) for _ in range(D.crossing_count))
        assert _residual(D, SINGLE, u, b) == residual(M, u, b)
        doubled += any(4 - sum(row) for row in M.entries)
    assert doubled > 200


def test_solve_mod2_equals_the_column_scan():
    rng = random.Random(5)
    for D in KNOTS:
        bits = mod2(build_matrix(D, SINGLE))
        for _ in range(3):
            b = tuple(rng.randint(-3, 3) for _ in range(D.crossing_count))
            u = column_scan_gf2(bits, tuple(x % 2 for x in b))
            assert solve_mod2(D, b) == tuple(r for r, x in enumerate(u) if x)
    # the length refusal of the point vector
    with pytest.raises(ValueError, match=r"^b has length 2, expected 3$"):
        solve_mod2(catalog_entry("3_1").diagram, (1, 0))


def test_bit_rows_of_links_equal_the_column_scan_on_every_b():
    # these links' mod-2 matrices have rank n - 1, so half of all b are
    # inconsistent: None on both paths
    inconsistent = 0
    for D in LINKS:
        n, cols = D.crossing_count, D.region_count
        masks = [sum(1 << j for j in row) for row in sparse_rows(D, SINGLE)]
        bits = mod2(build_matrix(D, SINGLE))
        for k in range(2 ** n):
            b = tuple((k >> i) & 1 for i in range(n))
            got = solve_gf2([m | x << cols for m, x in zip(masks, b)], cols)
            assert got == column_scan_gf2(bits, b)
            inconsistent += got is None
    assert inconsistent == 2 + 8


def test_solve_gf2_equals_the_column_scan_on_random_systems():
    rng = random.Random(11)
    answered = refused = 0
    for _ in range(4000):
        rows, cols = rng.randint(0, 7), rng.randint(0, 9)
        density = rng.random()
        matrix = [[rng.randint(-3, 3) if rng.random() < density else 0
                   for _ in range(cols)] for _ in range(rows)]
        b = [rng.randint(-2, 2) for _ in range(rows)]
        masks = [sum(1 << j for j, x in enumerate(row) if x % 2)
                 | bit % 2 << cols for row, bit in zip(matrix, b)]
        got = solve_gf2(masks, cols)
        # with no rows the scan knows no column count; all-zero solves
        assert got == (column_scan_gf2(matrix, b) if rows else (0,) * cols)
        answered += got is not None
        refused += got is None
    assert answered > 1000 and refused > 1000


def test_component_count_equals_the_strand_orbits():
    component_count.cache_clear()
    for D in KNOTS + LINKS:
        assert component_count(D) == len(
            tuple_orbits(tuple_mates(D.crossings), 2)) // 2
    assert [component_count(D) for D in LINKS] == [2, 2]


def grown_links(count):
    """Two-component diagrams grown from the Hopf diagram by random R1 and
    R2 moves, which keep the component count."""
    rng = random.Random(41)
    grown = []
    for _ in range(count):
        D = LINKS[0]
        for _ in range(rng.randint(1, 12)):
            labels = range(1, D.arc_count + 1)
            if rng.random() < 0.5:
                D = apply_r1(D, rng.choice(labels),
                             rng.choice(("left", "right")))
            else:
                try:
                    D = apply_r2(D, *rng.sample(labels, 2))
                except DiagramError:    # the two arcs share no region
                    pass
        grown.append(D)
    return grown


def test_is_knot_is_one_component():
    links = LINKS + grown_links(60)
    assert max(D.crossing_count for D in links) > 12
    for D in KNOTS + links:
        assert is_knot(D) == (component_count(D) == 1)
    assert all(map(is_knot, KNOTS)) and not any(map(is_knot, links))
