"""The pinned sparse solve and the (I | 0 0) decomposition against the dense
Smith-style reduction, and by property.

Every solver factors the matrix left when one arc's two side columns are
deleted (``zlinalg.solve_pinned``), and ``zlinalg.reduce_to_e00`` reads
``P A Q = (I | 0 0)`` off the same kind of factorisation.  ``dense_e00`` is
the reduction ``reduce_to_e00`` ran before: dense unimodular row and column
operations with its own pivot search, Euclid steps and divisibility fix.  It
stays here, with ``dense_solve`` reading a solution family off it, as the
independent path; both must describe the same solution lattice.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from regionchoice import zlinalg
from regionchoice.catalog import catalog_entry, names
from regionchoice.diagram import (FlatDiagram, arcs, random_diagram,
                                  regions)
from regionchoice.incidence import DOUBLE, SINGLE, apply, build_matrix
from regionchoice.solvers import _pin_pair, kernel_basis, solve
from regionchoice.zlinalg import (E00Decomposition, Operation, _APPLY,
                                  reduce_to_e00)
from test_echelon import shuffled
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
    before = arcs.cache_info().currsize
    solve(D, SINGLE, (1,) * D.crossing_count)
    kernel_basis(D, DOUBLE)
    assert arcs.cache_info().currsize == before


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
