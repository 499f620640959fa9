"""The pinned sparse solve against the Smith-style reduction, and by property.

Every solver factors the matrix left when one arc's two side columns are
deleted (``zlinalg.solve_pinned``).  ``reduce_to_e00`` with
``solve_with_decomposition`` stays as an independent path; both must describe
the same solution lattice.
"""

import random

from hypothesis import given, settings, strategies as st

from regionchoice import zlinalg
from regionchoice.catalog import catalog, names
from regionchoice.diagram import (FlatDiagram, arcs, random_diagram,
                                  regions)
from regionchoice.incidence import DOUBLE, SINGLE, apply, build_matrix
from regionchoice.solvers import _pin_pair, kernel_basis, solve

DIAGRAMS = ([catalog(name) for name in names()]
            + [random_diagram(seed, 4 + 3 * seed) for seed in range(10)])


def coefficients(v, k1, k2, r1, r2):
    """(a, b) with v = a k1 + b k2, for a basis pinned to (1,0), (0,1)."""
    a, b = v[r1], v[r2]
    assert tuple(a * x + b * y for x, y in zip(k1, k2)) == tuple(v)
    return a, b


def test_pinned_and_smith_paths_describe_the_same_lattice():
    rng = random.Random(4)
    for D in DIAGRAMS:
        r1, r2 = _pin_pair(D)
        n = D.crossing_count
        for rule in (SINGLE, DOUBLE):
            b = tuple(rng.randint(-30, 30) for _ in range(n))
            new = solve(D, rule, b)
            old = zlinalg.solve_with_decomposition(
                zlinalg.reduce_to_e00(build_matrix(D, rule).entries), b)
            k1, k2 = new.kernel
            assert (new.particular[r1], new.particular[r2]) == (0, 0)
            assert ((k1[r1], k1[r2]), (k2[r1], k2[r2])) == ((1, 0), (0, 1))
            # the particular solutions differ by a kernel vector
            diff = tuple(x - y for x, y in zip(old.particular, new.particular))
            coefficients(diff, k1, k2, r1, r2)
            # the kernel bases differ by a 2x2 change of basis of det +-1
            (a, b1), (c, d) = (coefficients(k, k1, k2, r1, r2)
                               for k in old.kernel)
            assert a * d - b1 * c in (1, -1)


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
