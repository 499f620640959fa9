"""The pinned sparse solve and the (I | 0 0) decomposition against the dense
Smith-style reduction, and by property.

Every solver answers with the family pinned on one arc's two side columns,
which ``zlinalg.solve_pinned`` finds by factoring the matrix left when those
columns are deleted, and ``zlinalg.reduce_to_e00`` reads
``P A Q = (I | 0 0)`` off the same kind of factorisation.  ``dense_e00`` is
the reduction ``reduce_to_e00`` ran before: dense unimodular row and column
operations with its own pivot search, Euclid steps and divisibility fix.  It
stays here, with ``dense_solve`` reading a solution family off it, as the
independent path; both must describe the same solution lattice.
``markowitz_scan`` is the elimination before its pivot queues: it must
pick exactly the pivots ``zlinalg._factor_unit`` picks.  ``dict_image`` and
``dict_substitute`` are one product and one substitution per vector, a
generator over each row's dict: the oracles, column by column, of
``_UnitFactorisation``'s block ``product`` and ``solve``, and with one
substitution per unit vector of ``rref_rational``'s block solve.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regionchoice import zlinalg
from regionchoice.catalog import catalog_entry, names
from regionchoice.diagram import (FlatDiagram, apply_r1, arcs,
                                  random_diagram, regions)
from regionchoice.incidence import DOUBLE, SINGLE, apply, build_matrix
from regionchoice.solvers import _pin_pair, kernel_basis, solve
from regionchoice.zlinalg import (E00Decomposition, Operation, _APPLY,
                                  _make_unit as make_unit, reduce_to_e00,
                                  rref_rational, solve_pinned)
from test_echelon import shuffled
from test_sparse import sparse_rows
from test_zlinalg import determinant

DIAGRAMS = ([catalog_entry(name).diagram for name in names()]
            + [random_diagram(seed, 4 + 3 * seed) for seed in range(10)])


def dense_e00(matrix) -> E00Decomposition:
    """Diagonalize by unimodular row/column operations (Smith-style).

    Pivots are chosen as the smallest nonzero entry in magnitude and cleared
    by Euclidean remainder steps, which keeps intermediate growth modest.
    The diagonal is made nonnegative with divisibility down the chain.
    """
    rows = len(matrix)
    if rows == 0 or len(matrix[0]) == 0:
        raise ValueError("cannot reduce an empty matrix")
    cols = len(matrix[0])
    a = [list(row) for row in matrix]
    p = [[int(i == j) for j in range(rows)] for i in range(rows)]
    q = [[int(i == j) for j in range(cols)] for i in range(cols)]
    log: list[Operation] = []

    def step(kind: str, i: int, j: int = -1, mult: int = 0) -> None:
        log.append(Operation(kind, i, j, mult))
        _APPLY[kind](a, i, j, mult)
        _APPLY[kind](p if "row" in kind else q, i, j, mult)

    def pivot_position(t: int):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None
                                     or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    for t in range(min(rows, cols)):
        while True:
            pos = pivot_position(t)
            if pos is None:
                break
            if pos[0] != t:
                step("swap_rows", t, pos[0])
            if pos[1] != t:
                step("swap_cols", t, pos[1])
            if a[t][t] < 0:
                step("negate_row", t)
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    step("add_row", i, t, -(a[i][t] // pivot))
                    dirty = dirty or a[i][t] != 0
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    step("add_col", j, t, -(a[t][j] // pivot))
                    dirty = dirty or a[t][j] != 0
            if dirty:
                continue
            # divisibility: fold in any entry the pivot does not divide
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            step("add_row", t, offender, 1)

    return E00Decomposition(
        tuple(tuple(row) for row in matrix),
        tuple(tuple(row) for row in p),
        tuple(tuple(row) for row in q),
        tuple(tuple(row) for row in a),
        tuple(log))


def dense_solve(matrix, b) -> zlinalg.SolutionFamily:
    """The solution family of ``A u + b = o`` read off ``dense_e00``:
    the particular is ``Q (-P b, 0, 0)`` and the kernel the last two
    columns of ``Q``."""
    d = dense_e00(matrix)
    assert d.is_e00
    y = [-sum(x * v for x, v in zip(row, b)) for row in d.p] + [0, 0]
    particular = tuple(sum(x * v for x, v in zip(row, y)) for row in d.q)
    assert all(sum(x * u for x, u in zip(row, particular)) + v == 0
               for row, v in zip(matrix, b))
    k1, k2 = list(zip(*d.q))[-2:]
    return zlinalg.SolutionFamily(d.matrix, tuple(b), particular, (k1, k2))


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in zip(*b)) for row in a)


def coefficients(v, k1, k2):
    """The integers (a, b) with v = a k1 + b k2, asserted to exist."""
    r1, r2 = next((i, j) for i in range(len(k1)) for j in range(i + 1, len(k1))
                  if k1[i] * k2[j] != k2[i] * k1[j])
    d = k1[r1] * k2[r2] - k2[r1] * k1[r2]
    a = Fraction(v[r1] * k2[r2] - v[r2] * k2[r1], d)
    b = Fraction(k1[r1] * v[r2] - k1[r2] * v[r1], d)
    assert a.denominator == b.denominator == 1
    assert tuple(a * x + b * y for x, y in zip(k1, k2)) == tuple(v)
    return int(a), int(b)


def test_pinned_and_smith_paths_describe_the_same_lattice():
    rng = random.Random(4)
    for D in DIAGRAMS:
        r1, r2 = _pin_pair(D)
        n = D.crossing_count
        for rule in (SINGLE, DOUBLE):
            b = tuple(rng.randint(-30, 30) for _ in range(n))
            new = solve(D, rule, b)
            old = dense_solve(build_matrix(D, rule).entries, b)
            k1, k2 = new.kernel
            assert (new.particular[r1], new.particular[r2]) == (0, 0)
            assert ((k1[r1], k1[r2]), (k2[r1], k2[r2])) == ((1, 0), (0, 1))
            # the particular solutions differ by a kernel vector
            diff = tuple(x - y for x, y in zip(old.particular, new.particular))
            coefficients(diff, k1, k2)
            # the kernel bases differ by a 2x2 change of basis of det +-1
            (a, b1), (c, d) = (coefficients(k, k1, k2) for k in old.kernel)
            assert a * d - b1 * c in (1, -1)


def test_e00_matches_the_dense_oracle_on_the_criterion_5_set():
    # the matrices of acceptance criterion 5, a third of them shuffled
    rng = random.Random(5)
    diagrams = [catalog_entry(n).diagram for n in names()]
    diagrams += [random_diagram(seed, 8) for seed in range(1, 51)]
    count = 0
    for D in diagrams:
        for rule in (SINGLE, DOUBLE):
            matrix = build_matrix(D, rule).entries
            if count % 3 == 2:
                matrix = shuffled(matrix, rng)
            new, old = reduce_to_e00(matrix), dense_e00(matrix)
            for d in (new, old):
                assert d.is_e00
                assert abs(determinant(d.p)) == abs(determinant(d.q)) == 1
                assert mat_mul(mat_mul(d.p, d.matrix), d.q) == d.s
                assert zlinalg.replay(d.matrix, d.log) == d.s
            # the kernel columns differ by a 2x2 change of basis of det +-1
            k1, k2 = list(zip(*new.q))[-2:]
            (a, b), (c, e) = (coefficients(k, k1, k2)
                              for k in list(zip(*old.q))[-2:])
            assert a * e - b * c in (1, -1)
            count += 1
    assert count == 2 * (len(names()) + 50)


def test_pin_pair_is_the_largest_arc_by_high_then_low_side():
    for D in DIAGRAMS:
        sides = [tuple(sorted(arc.sides)) for arc in arcs(D)]
        lo, hi = max(sides, key=lambda p: (p[1], p[0]))
        assert _pin_pair(D) == (lo, hi)


def test_solve_path_leaves_the_arcs_cache_alone():
    # a name never used before, so no cache holds this diagram yet
    D = FlatDiagram(random_diagram(71, 30).crossings, "uncached")
    regions(D)
    # lookups, not its size, which a full bounded cache keeps
    before = arcs.cache_info()
    solve(D, SINGLE, (1,) * D.crossing_count)
    kernel_basis(D, DOUBLE)
    after = arcs.cache_info()
    assert after.hits + after.misses == before.hits + before.misses


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), moves=st.integers(0, 24),
       rule=st.sampled_from((SINGLE, DOUBLE)))
def test_solution_has_zero_residual_and_saturated_kernel(seed, moves, rule):
    D = random_diagram(seed, moves)
    n = D.crossing_count
    b = tuple(random.Random(seed).randint(-50, 50) for _ in range(n))
    fam = solve(D, rule, b)
    M = build_matrix(D, rule)
    assert all(x + y == 0 for x, y in zip(apply(M, fam.particular), b))
    k1, k2 = fam.kernel
    assert apply(M, k1) == apply(M, k2) == (0,) * n
    m = D.region_count
    assert any(k1[i] * k2[j] - k1[j] * k2[i] in (1, -1)
               for i in range(m) for j in range(i + 1, m))


# sha256 of repr(reduce_to_e00(m).log) + "\n" over both rules' matrices of
# the catalog and random_diagram(s, 3 + s % 25), s < 150, every third one
# shuffled by random.Random(18), as the scan over every live row logged them
E00_LOG_SHA256 = \
    "acc03195a4074eaba8857b5a938744a0e76de2072f4b2ae2dce1e98ea678c189"


def test_e00_log_matches_the_golden_digest():
    # the log is the one output that shows the pivot order
    rng = random.Random(18)
    h = hashlib.sha256()
    diagrams = ([catalog_entry(n).diagram for n in names()]
                + [random_diagram(s, 3 + s % 25) for s in range(150)])
    count = 0
    for D in diagrams:
        for rule in (SINGLE, DOUBLE):
            matrix = build_matrix(D, rule).entries
            if count % 3 == 2:
                matrix = shuffled(matrix, rng)
            h.update((repr(reduce_to_e00(matrix).log) + "\n").encode())
            count += 1
    assert h.hexdigest() == E00_LOG_SHA256


def markowitz_scan(rows, columns, stage):
    """The elimination ``zlinalg._factor_unit`` replaced, kept as its
    oracle: every pivot rescans every live row for the +-1 entry of least
    Markowitz cost, ties going to the lower row and then to the first entry
    in the row's dict order; it stops at the first row holding a cost-0
    pivot."""
    live_rows = set(range(len(rows)))
    live_cols = set(columns)
    col_rows = {j: set() for j in columns}
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)
    ops, pivots = [], []

    def add_row(target, source, m):
        ops.append((target, source, m))
        row = rows[target]
        for j, x in rows[source].items():
            new = row.get(j, 0) + m * x
            if new:
                if j not in row:
                    col_rows[j].add(target)
                row[j] = new
            else:
                del row[j]
                col_rows[j].discard(target)

    while live_rows:
        best = None
        for i in live_rows:
            row = rows[i]
            others = len(row) - 1
            for j, x in row.items():
                if x == 1 or x == -1:
                    cost = others * (len(col_rows[j]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
            if best is not None and best[0] == 0:
                break
        if best is None:
            make_unit(rows, col_rows, live_cols, add_row, stage)
            continue
        _, i, j = best
        p = rows[i][j]
        for k in sorted(col_rows[j] - {i}):
            add_row(k, i, -p * rows[k][j])
        live_rows.discard(i)
        live_cols.discard(j)
        for c in rows[i]:
            col_rows[c].discard(i)
        pivots.append((i, j, p, {c: x for c, x in rows[i].items() if c != j}))
    return ops, pivots, live_cols


def eliminated(factor, rows, columns):
    """``factor`` run on a copy of the sparse rows: its row operations, its
    pivots with each rest in dict order, its unpivoted columns and the rows
    it left, or the refusal it raised."""
    rows = [dict(row) for row in rows]
    try:
        ops, pivots, left = factor(rows, list(columns), "differential")
    except zlinalg.InternalInvariantError as exc:
        return str(exc)
    return (ops, [(i, j, p, list(rest.items())) for i, j, p, rest in pivots],
            sorted(left), [list(row.items()) for row in rows])


def kinked(D, rng, count):
    """``D`` with ``count`` curls added on seeded arcs and sides."""
    for _ in range(count):
        side = rng.choice(("left", "right"))
        D = apply_r1(D, rng.choice(arcs(D)).label, side)
    return D


def mixed(rows, rng, steps):
    """The rows after ``steps`` seeded row additions with multipliers
    +-2 .. +-5: the same row lattice, far fewer +-1 entries."""
    rows = [dict(row) for row in rows]
    for _ in range(steps):
        t, s = rng.sample(range(len(rows)), 2)
        m = rng.choice((-5, -4, -3, -2, 2, 3, 4, 5))
        for j, x in rows[s].items():
            new = rows[t].get(j, 0) + m * x
            if new:
                rows[t][j] = new
            else:
                del rows[t][j]
    return rows


def test_factor_unit_pivots_exactly_as_the_scan(monkeypatch):
    made = []
    unit = zlinalg._make_unit

    def counting(*args):
        made.append(args[-1])
        unit(*args)

    monkeypatch.setattr(zlinalg, "_make_unit", counting)
    rng = random.Random(1957)
    diagrams = [catalog_entry(name).diagram for name in names()]
    diagrams += [random_diagram(s, 3 + s % 40) for s in range(60)]
    diagrams += [kinked(random_diagram(s, 2 + s % 12), rng, 4 + s % 20)
                 for s in range(30)]
    cases = []
    for D in diagrams:
        pins = _pin_pair(D)
        for rule in (SINGLE, DOUBLE):
            rows = sparse_rows(D, rule)
            shuffled_rows = zlinalg._sparse(
                shuffled(build_matrix(D, rule).entries, rng))
            cases += [(rows, pins, False), (shuffled_rows, pins, False)]
            if D.crossing_count > 2:
                cases.append((mixed(rows, rng, 3 * D.crossing_count), pins,
                              True))
    for _ in range(300):
        n, top = rng.randint(1, 6), rng.choice((1, 2, 5))
        dense = [[rng.randint(-top, top) if rng.random() < 0.6 else 0
                  for _ in range(n + 2)] for _ in range(n)]
        cases.append((zlinalg._sparse(dense),
                      tuple(rng.sample(range(n + 2), 2)), False))
    forced = 0
    for rows, pins, is_mixed in cases:
        cols = len(rows) + 2
        pinned = ([{j: x for j, x in row.items() if j not in pins}
                   for row in rows], [j for j in range(cols) if j not in pins])
        for args in (pinned, (rows, range(cols))):
            before = len(made)
            new = eliminated(zlinalg._factor_unit, *args)
            assert new == eliminated(markowitz_scan, *args)
            # a factored mixed matrix on which no +-1 entry was left live
            forced += (is_mixed and len(made) > before
                       and not isinstance(new, str))
    assert forced


def dict_image(rows, u):
    """``A u`` from sparse dict rows, one generator per row: the oracle of
    ``_UnitFactorisation.product``, column by column."""
    return [sum(x * u[j] for j, x in row.items()) for row in rows]


def dict_substitute(ops, pivots, y, cols):
    """``B x = y`` solved from ``_factor_unit``'s dict pivots, one
    generator per pivot rest: the oracle of ``_UnitFactorisation.solve``,
    column by column."""
    for target, source, m in ops:
        if y[source]:
            y[target] += m * y[source]
    x = [0] * cols
    for i, j, p, rest in reversed(pivots):
        x[j] = p * (y[i] - sum(v * x[c] for c, v in rest.items()))
    return x


def columns(block):
    """The columns of a block, one list of r ints per row, as lists."""
    return [list(column) for column in zip(*block)]


def unimodular(rng, n):
    """A seeded n x (n+2) matrix ``P (I | 0 0) Q``, with ``P`` and ``Q``
    products of elementary operations with multipliers +-1 .. +-4: entries
    of either sign and above 2, and every elementary divisor 1."""
    a = [[int(i == j) for j in range(n + 2)] for i in range(n)]
    for _ in range(n + 2):
        t, s = rng.sample(range(n + 2), 2)
        m = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        for row in a:
            row[t] += m * row[s]
        if n > 1:
            t, s = rng.sample(range(n), 2)
            a[t] = [x + rng.choice((-1, 1)) * y for x, y in zip(a[t], a[s])]
    return a


def test_block_solve_and_product_equal_the_dict_oracles(monkeypatch):
    made = []

    class Recording(zlinalg._UnitFactorisation):
        def __init__(self, rows, cols, pins, stage):
            super().__init__(rows, cols, pins, stage)
            made.append((rows, self))

    monkeypatch.setattr(zlinalg, "_UnitFactorisation", Recording)
    rng = random.Random(19)
    matrices = []
    for D in DIAGRAMS:
        for rule in (SINGLE, DOUBLE):
            matrices.append(build_matrix(D, rule).entries)
    matrices += [unimodular(rng, 1 + k % 7) for k in range(120)]
    for matrix in matrices:
        try:
            rref_rational(matrix)
            pins = made[-1][1].pins
            reduce_to_e00(matrix)
        except zlinalg.InternalInvariantError:
            continue        # no unit pivot without pins; nothing was built
        solve_pinned(matrix, pins, [[rng.randint(-9, 9) for _ in matrix]])
    seen = set()
    for rows, f in made:
        cols, n = f.cols, len(rows)
        skip = f.pins if f.stage == "pinned solve" else ()
        ops, pivots, _ = zlinalg._factor_unit(
            [{j: x for j, x in row.items() if j not in skip} for row in rows],
            [j for j in range(cols) if j not in skip], "oracle")
        # the rows and pivot rests are the dicts the elimination returned,
        # in the same order
        assert f.rows is rows and f.ops == ops
        assert [(i, j, p, list(rest.items())) for i, j, p, rest in f.pivots
                ] == [(i, j, p, list(rest.items()))
                      for i, j, p, rest in pivots]
        # r = 1, the identity (r = n) and a random r = n block
        for y in ([[rng.randint(-50, 50)] for _ in rows],
                  [[int(i == k) for k in range(n)] for i in range(n)],
                  [[rng.randint(-50, 50) for _ in rows] for _ in rows]):
            before = [row[:] for row in y]
            x = f.solve(y)
            assert y == before
            assert len(x) == cols
            assert columns(x) == [dict_substitute(ops, pivots, column, cols)
                                  for column in columns(y)]
        # the kernel as an r = 2 block, r = 1 and r = n
        for u in (list(zip(*f.kernel)),
                  [[rng.randint(-10 ** 6, 10 ** 6)] for _ in range(cols)],
                  [[rng.randint(-10 ** 6, 10 ** 6) for _ in rows]
                   for _ in range(cols)]):
            ax = list(f.product(u))
            assert len(ax) == n
            assert columns(ax) == [dict_image(rows, column)
                                   for column in columns(u)]
        seen.update(f"{len(r)}-entry row" for r in rows if len(r) < 2)
        seen.update(f"{len(rest)}-entry rest" for *_, rest in pivots
                    if len(rest) < 2)
        seen.update("weight above 2" for r in rows
                    if any(abs(x) > 2 for x in r.values()))
        seen.update("negative weight" for r in rows
                    if any(x < 0 for x in r.values()))
        if n == 1:
            seen.add("n = 1")
        seen.add(f.stage)
    assert seen >= {"1-entry row", "0-entry rest", "1-entry rest",
                    "weight above 2", "negative weight", "n = 1",
                    "pinned solve", "echelon", "E00"}


def test_a_corrupted_block_is_refused_by_the_echelon_check(monkeypatch):
    # one entry of the identity's solved block flipped, in every row in
    # turn: the block product names the column, also on the free pair
    solve = zlinalg._UnitFactorisation.solve
    matrix = build_matrix(catalog_entry("5_2").diagram, SINGLE).entries
    rows, cols = len(matrix), len(matrix) + 2
    expected = rref_rational(matrix)
    for j in range(cols):
        k = j % rows

        def corrupt(self, y):
            x = solve(self, y)
            if hasattr(self, "kernel"):     # not the kernel's own solve
                x[j] = x[j][:]              # rows may be shared
                x[j][k] += 1
            return x

        monkeypatch.setattr(zlinalg._UnitFactorisation, "solve", corrupt)
        with pytest.raises(zlinalg.InternalInvariantError,
                           match=rf"^echelon, certificate: A_S\^-1 e_{k + 1} "
                                 rf"does not solve A x = e_{k + 1}$"):
            rref_rational(matrix)
        monkeypatch.undo()
    assert rref_rational(matrix) == expected


def test_rref_at_n_741_is_the_per_column_solve():
    # the block solve and move against one dict substitution and one
    # kernel move per unit vector, off the same elimination
    matrix = build_matrix(random_diagram(5, 500), SINGLE).entries
    rows, cols = len(matrix), len(matrix) + 2
    assert rows == 741
    sparse = zlinalg._sparse(matrix)
    ops, pivots, left = zlinalg._factor_unit(
        [row.copy() for row in sparse], range(cols), "oracle")
    kernel = []
    for pin in sorted(left):
        x = dict_substitute(ops, pivots, [-row.get(pin, 0) for row in sparse],
                            cols)
        x[pin] = 1
        kernel.append(x)
    f1, f2 = zlinalg._last_pair(kernel, pytest.fail)
    d, z1, z2 = zlinalg._pair_basis(kernel, f1, f2)
    pivot_cols = tuple(j for j in range(cols) if j not in (f1, f2))
    b_columns = []
    for k in range(rows):
        x = dict_substitute(ops, pivots, [int(i == k) for i in range(rows)],
                            cols)
        b_columns.append([Fraction(d * x[j] - x[f1] * z1[j] - x[f2] * z2[j],
                                   d) for j in pivot_cols])
    e = rref_rational(matrix)
    assert e.pivot_cols == pivot_cols
    assert e.b_coeffs == tuple(zip(*b_columns))
    for p, row in zip(pivot_cols, e.coeffs):
        assert (row[p], row[f1], row[f2]) == (
            1, Fraction(-z1[p], d), Fraction(-z2[p], d))
        assert row.count(0) == cols - 3 + (not z1[p]) + (not z2[p])
