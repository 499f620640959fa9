import copy
import gc
import hashlib
import pickle
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from regionchoice import incidence, solvers, zlinalg
from regionchoice.catalog import catalog_entry, names
from regionchoice.diagram import (D0, DiagramError, FlatDiagram,
                                  InternalInvariantError, _Map,
                                  _doubled_crossings, _walk, apply_r1, arcs,
                                  checkerboard, component_count,
                                  random_diagram, regions)
from regionchoice.incidence import (DOUBLE, SINGLE, apply, build_matrix,
                                    residual)
from regionchoice.solvers import (PinnedKernelRequest, _pin_pair,
                                  add1_algebraic, add1_geometric,
                                  arc_unimodularity_report, kernel_basis,
                                  pinned_kernel, solve, solve_mod2,
                                  solve_single_via_double, verify)
from splice_oracle import _strand_cut, splice
from test_sparse import LINKS, bit_elimination_mod2, sparse_rows
from test_zlinalg import _norm


def unit(n, v):
    return tuple(1 if i == v else 0 for i in range(n))


def test_solve_trefoil_known_family():
    D = catalog_entry("3_1").diagram
    fam = solve(D, SINGLE, (1, 0, 0))
    assert fam.particular == (-1, 1, -1, 0, 0)
    assert fam.kernel == ((0, -1, 0, 1, 0), (1, -2, 1, 0, 1))


def test_solve_rejects_links():
    link = FlatDiagram(((1, 2, 3, 4), (1, 4, 3, 2)))
    calls = [(solve, DOUBLE, (0, 0)), (solve_mod2, (1, 0))]
    for rule in (SINGLE, DOUBLE):
        calls += [(kernel_basis, rule), (arc_unimodularity_report, rule),
                  (pinned_kernel, PinnedKernelRequest(1, 0, 1, rule))]
    for call, *args in calls:
        with pytest.raises(ValueError, match="requires a knot projection"):
            call(link, *args)


def test_solve_curl_double():
    fam = solve(D0, DOUBLE, (5,))
    assert apply(build_matrix(D0, DOUBLE), fam.particular) == (-5,)


def test_verify_reports_per_crossing():
    D = catalog_entry("4_1").diagram
    b = (2, -1, 0, 7)
    fam = solve(D, SINGLE, b)
    report = verify(D, SINGLE, fam.particular, b)
    assert report.passed
    assert report.residual == (0, 0, 0, 0)
    assert report.per_crossing == (("v1", 0), ("v2", 0), ("v3", 0), ("v4", 0))
    bad = verify(D, SINGLE, fam.particular, (0, 0, 0, 0))
    assert not bad.passed


def test_kernel_contains_checkerboard():
    from regionchoice.diagram import checkerboard
    for name in ("3_1", "5_2", "example2_4"):
        D = catalog_entry(name).diagram
        M = build_matrix(D, DOUBLE)
        assert apply(M, checkerboard(D).signs) == (0,) * D.crossing_count


def test_pinned_kernel_values():
    D = catalog_entry("3_1").diagram
    u = pinned_kernel(D, PinnedKernelRequest(arc=1, a=0, b=1))
    assert u == (0, -1, 0, 1, 0)
    # the requested values sit on the two sides of arc 1
    from regionchoice.diagram import arc_by_label
    r1, r2 = arc_by_label(D, 1).sides
    assert (u[r1], u[r2]) == (0, 1)


def test_pinned_kernel_arbitrary_pairs():
    D = catalog_entry("5_1").diagram
    from regionchoice.diagram import arc_by_label
    for a, b in ((0, 1), (3, -2), (7, 7)):
        u = pinned_kernel(D, PinnedKernelRequest(arc=4, a=a, b=b))
        r1, r2 = arc_by_label(D, 4).sides
        assert (u[r1], u[r2]) == (a, b)
        assert apply(build_matrix(D, DOUBLE), u) == (0,) * 5


def test_arc_unimodularity_on_catalog():
    for name in ("d0", "3_1", "4_1", "example2_4"):
        D = catalog_entry(name).diagram
        for rule in (SINGLE, DOUBLE):
            report = arc_unimodularity_report(D, rule)
            assert set(report.values()) == {1}


def test_add1_algebraic_unit_residual():
    D = catalog_entry("4_1").diagram
    for v in range(4):
        for rule in (SINGLE, DOUBLE):
            cert = add1_algebraic(D, rule, v)
            assert cert.residual == unit(4, v)


def fresh(D):
    """An equal copy of ``D`` that holds no solve route yet."""
    return FlatDiagram(D.crossings, D.name)


def route(D, rule):
    """The solve route that a query stored on ``D`` for the rule."""
    return D._routes[rule]


@pytest.fixture
def factorisations(monkeypatch):
    """The stages of every ``_UnitFactorisation`` built, in order."""
    made = []

    class Counting(zlinalg._UnitFactorisation):
        def __init__(self, rows, cols, pins, stage):
            made.append(stage)
            super().__init__(rows, cols, pins, stage)

    monkeypatch.setattr(zlinalg, "_UnitFactorisation", Counting)
    return made


@pytest.fixture
def winding_sums(monkeypatch):
    """The diagram of every double-rule ``_WindingSum`` built, in order."""
    made = []

    class Counting(solvers._WindingSum):
        def __init__(self, diagram):
            made.append(diagram)
            super().__init__(diagram)

    monkeypatch.setattr(solvers, "_WindingSum", Counting)
    return made


@pytest.fixture
def loop_corrections(monkeypatch):
    """The diagram of every single-rule ``_LoopCorrection`` built, in
    order."""
    made = []

    class Counting(solvers._LoopCorrection):
        def __init__(self, diagram, double):
            made.append(diagram)
            super().__init__(diagram, double)

    monkeypatch.setattr(solvers, "_LoopCorrection", Counting)
    return made


def test_add1_algebraic_builds_and_factors_each_matrix_once(
        loop_corrections, winding_sums, factorisations):
    # the single rule's loop correction and the winding sum under it, once
    # each; no rule factors anything (the double rule's sweep is below)
    D = random_diagram(3, 9)
    n = D.crossing_count
    certs = [add1_algebraic(D, SINGLE, v) for v in range(n)]
    assert loop_corrections == winding_sums == [D]
    assert factorisations == []
    for cert in certs:
        (family,) = zlinalg.solve_pinned(
            build_matrix(D, cert.rule).entries, _pin_pair(D),
            [tuple(-x for x in unit(n, cert.crossing))])
        assert cert.assignment == family.particular
        assert cert.residual == unit(n, cert.crossing)


def test_add1_refuses_a_bool_crossing():
    D = catalog_entry("3_1").diagram
    for flag in (True, False, 1.0):
        with pytest.raises(ValueError, match="not an integer"):
            add1_algebraic(D, SINGLE, flag)
        with pytest.raises(ValueError, match="not an integer"):
            add1_geometric(D, flag)


def test_pinned_kernel_refuses_an_arc_that_is_not_an_int():
    D = catalog_entry("4_1").diagram
    for arc in (True, 1.0):
        with pytest.raises(DiagramError):
            pinned_kernel(D, PinnedKernelRequest(arc, 0, 1))


def test_add1_algebraic_bad_crossing():
    with pytest.raises(ValueError):
        add1_algebraic(D0, SINGLE, 5)


def test_add1_geometric_unit_residual():
    for name in ("d0", "3_1", "example2_4"):
        D = catalog_entry(name).diagram
        for v in range(D.crossing_count):
            cert = add1_geometric(D, v)
            assert cert.residual == unit(D.crossing_count, v)
            assert cert.rule == DOUBLE


def test_add1_paths_differ_by_kernel():
    D = catalog_entry("3_1").diagram
    M = build_matrix(D, DOUBLE)
    for v in range(3):
        g = add1_geometric(D, v).assignment
        a = add1_algebraic(D, DOUBLE, v).assignment
        diff = tuple(x - y for x, y in zip(g, a))
        assert apply(M, diff) == (0, 0, 0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), moves=st.integers(0, 14))
def test_add1_paths_differ_by_a_double_rule_kernel_vector(seed, moves):
    D = random_diagram(seed, moves)
    M = build_matrix(D, DOUBLE)
    zeros = (0,) * D.crossing_count
    for v in range(D.crossing_count):
        g = add1_geometric(D, v).assignment
        a = add1_algebraic(D, DOUBLE, v).assignment
        assert apply(M, tuple(x - y for x, y in zip(g, a))) == zeros


def single_via_double_per_certificate(D, b):
    """The two-path construction with one add-1 solve per needed crossing."""
    particular = solve(D, DOUBLE, b).particular
    u = list(particular)
    certificates = {}
    for region, crossings in enumerate(_doubled_crossings(D)):
        coeff = particular[region]
        if coeff == 0:
            continue
        for v in crossings:
            if v not in certificates:
                certificates[v] = add1_algebraic(D, SINGLE, v).assignment
            for i, x in enumerate(certificates[v]):
                u[i] += coeff * x
    return tuple(u)


# sha256 of repr(solve_single_via_double(D, b)) + "\n" over the catalog and
# random_diagram(s, 6 + 2 s), s in 0..11, with b drawn from random.Random(i)
# for the i-th diagram, as the per-crossing substitution computed them
VIA_DOUBLE_SHA256 = \
    "9101f9fc30f243401a3dbde3c5c1ed8450a6a43864963af0213f8c14eff88f8d"


def test_single_via_double_matches_the_golden_digest():
    h = hashlib.sha256()
    diagrams = ([catalog_entry(name).diagram for name in names()]
                + [random_diagram(s, 6 + 2 * s) for s in range(12)])
    for i, D in enumerate(diagrams):
        rng = random.Random(i)
        b = tuple(rng.randint(-9, 9) for _ in range(D.crossing_count))
        h.update((repr(solve_single_via_double(D, b)) + "\n").encode())
    assert h.hexdigest() == VIA_DOUBLE_SHA256


# sha256 of repr(add1_geometric(D, v)) + "\n" at every crossing of the
# catalog and random_diagram(s, 6 + 2 s), s in 0..11, as the construction
# computed them through the factorisation cache and two dense products
ADD1_GEOMETRIC_SHA256 = \
    "f19fbf64df231f6f3731736b6a227d0f8967f94b1d8669d4a05d3bac9af4fb6f"


def test_add1_geometric_matches_the_golden_digest():
    h = hashlib.sha256()
    diagrams = ([catalog_entry(name).diagram for name in names()]
                + [random_diagram(s, 6 + 2 * s) for s in range(12)])
    for D in diagrams:
        for v in range(D.crossing_count):
            h.update((repr(add1_geometric(D, v)) + "\n").encode())
    assert h.hexdigest() == ADD1_GEOMETRIC_SHA256


# sha256 of repr(add1_algebraic(D, rule, v)) + "\n" under the single and
# then the double rule at every crossing of the catalog and
# random_diagram(s, 6 + 2 s), s in 0..11, as the factorisation with the
# scan over every live row computed them
ADD1_ALGEBRAIC_SHA256 = \
    "46faf350696d9292c72a8f383491864ded313d96237108bfde81b6c426dac08c"


def test_add1_algebraic_matches_the_golden_digest():
    h = hashlib.sha256()
    diagrams = ([catalog_entry(name).diagram for name in names()]
                + [random_diagram(s, 6 + 2 * s) for s in range(12)])
    for D in diagrams:
        for rule in (SINGLE, DOUBLE):
            for v in range(D.crossing_count):
                h.update((repr(add1_algebraic(D, rule, v)) + "\n").encode())
    assert h.hexdigest() == ADD1_ALGEBRAIC_SHA256


def add1_by_splicing(D, v):
    """The paper's construction of the geometric add-1, the oracle for its
    closed form: splice at v; factor the first component pinned on the two
    sides of the smoothed strand and take its kernel vector that is 0 and 1
    there; flip its sign on the white regions of the second component's
    checkerboard coloring; merge back, and negate if the residual is -e_v."""
    split = splice(D, v)
    first, second = split.first, split.second
    r1, r2 = first.strand_sides
    if first.diagram is None:
        u1 = [0, 0]
        u1[r2] = 1
    else:
        u1 = zlinalg._UnitFactorisation(
            sparse_rows(first.diagram, DOUBLE),
            first.diagram.region_count, (r1, r2), "oracle").kernel[1]
    # the uncached coloring: each component is used once
    sign2 = ((1, -1) if second.diagram is None
             else checkerboard.__wrapped__(second.diagram).signs)
    u = tuple(u1[first.region_map[r]] * sign2[second.region_map[r]]
              for r in range(D.region_count))
    n = D.crossing_count
    M = build_matrix(D, DOUBLE)
    if residual(M, u, (0,) * n) != unit(n, v):
        u = tuple(-x for x in u)
    assert residual(M, u, (0,) * n) == unit(n, v)
    return u


def test_add1_geometric_equals_the_splice_construction():
    diagrams = ([catalog_entry(name).diagram for name in names()]
                + [random_diagram(s, 3 + s % 50) for s in range(200)])
    for D in diagrams:
        for v in range(D.crossing_count):
            assert add1_geometric(D, v).assignment == add1_by_splicing(D, v)


def winding_numbers(D):
    """Alexander's numbering of the regions, 0 on region 0: the knot,
    oriented along the strand from dart 0, has the region of dart d one
    more than the region of its mate on every arc it runs along from d."""
    mate, region = D._mate, D._region
    steps = [(region[d], region[mate[d]]) for d in _walk(mate, 0, 2)]
    alpha = {0: 0}
    while len(alpha) < D.region_count:
        size = len(alpha)
        for left, right in steps:
            if right in alpha:
                alpha.setdefault(left, alpha[right] + 1)
            elif left in alpha:
                alpha[right] = alpha[left] - 1
        assert len(alpha) > size, "the regions are not connected"
    assert all(alpha[left] == alpha[right] + 1 for left, right in steps)
    return [alpha[r] for r in range(D.region_count)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), moves=st.integers(0, 40))
def test_signed_winding_numbers_span_a_saturated_double_rule_kernel(seed,
                                                                    moves):
    # around every crossing the windings read k, k+1, k, k-1, so with
    # e = (-1)^alpha both e and e alpha are in the double-rule kernel
    D = random_diagram(seed, moves)
    alpha = winding_numbers(D)
    for c in range(D.crossing_count):
        around = [alpha[D._region[4 * c + s]] for s in range(4)]
        k = min(around) + 1
        assert sorted(around) == [k - 1, k, k, k + 1]
        assert all(abs(around[s] - around[s - 1]) == 1 for s in range(4))
    e = tuple(-1 if a & 1 else 1 for a in alpha)
    e_alpha = tuple(x * a for x, a in zip(e, alpha))
    assert e == checkerboard(D).signs
    M = build_matrix(D, DOUBLE)
    zeros = (0,) * D.crossing_count
    assert apply(M, e) == apply(M, e_alpha) == zeros
    for arc in arcs(D):
        assert abs(zlinalg._minor(e, e_alpha, *arc.sides)) == 1


def test_add1_geometric_splices_and_factors_nothing(factorisations):
    # the closed form builds no component and factors no matrix
    D = random_diagram(7, 30)
    n = D.crossing_count
    for v in range(n):
        assert add1_geometric(D, v).residual == unit(n, v)
    assert factorisations == []


BAD_CROSSINGS = pytest.mark.parametrize("crossing, message", [
    (99, "no crossing v100"),
    (3, "no crossing v4"),
    (-1, "no crossing v0"),
    (True, "crossing index True is not an integer"),
    (1.0, "crossing index 1.0 is not an integer"),
])


@BAD_CROSSINGS
def test_add1_geometric_refuses_a_bad_crossing(crossing, message):
    D = catalog_entry("3_1").diagram
    with pytest.raises(DiagramError, match=f"^{message}$"):
        add1_geometric(D, crossing)


@BAD_CROSSINGS
def test_add1_algebraic_refuses_a_bad_crossing(crossing, message):
    D = catalog_entry("3_1").diagram
    for rule in (SINGLE, DOUBLE):
        with pytest.raises(DiagramError, match=f"^{message}$"):
            add1_algebraic(D, rule, crossing)


def test_add1_geometric_refuses_a_missing_crossing_then_a_link():
    link = FlatDiagram(((1, 2, 3, 4), (1, 4, 3, 2)))
    with pytest.raises(DiagramError, match="^no crossing v3$"):
        add1_geometric(link, 2)
    with pytest.raises(ValueError, match="^the region choice solve requires "
                       "a knot projection$"):
        add1_geometric(link, 0)


def test_single_via_double_matches_direct():
    rng = random.Random(11)
    for D in (catalog_entry("example2_4").diagram, random_diagram(5, 12)):
        M = build_matrix(D, SINGLE)
        zero = (0,) * D.crossing_count
        for _ in range(10):
            b = tuple(rng.randint(-20, 20) for _ in range(D.crossing_count))
            u = solve_single_via_double(D, b)
            assert residual(M, u, b) == zero
            assert u == single_via_double_per_certificate(D, b)
            direct = solve(D, SINGLE, b).particular
            diff = tuple(x - y for x, y in zip(u, direct))
            assert apply(M, diff) == zero


def test_no_solver_builds_or_multiplies_a_dense_matrix(monkeypatch, capsys):
    from regionchoice import incidence
    from regionchoice.cli import main

    def dense(*args):
        raise AssertionError("a solver built or multiplied a dense matrix")

    # the catalog checks its labelings on the dense matrices when it loads;
    # the CLI's solve below builds the entry's routes afresh
    catalog_entry("5_1").diagram._routes.clear()
    for name in ("build_matrix", "apply", "residual", "mod2"):
        monkeypatch.setattr(incidence, name, dense)
    # the families' matrix is a view whose rows no solver reads
    monkeypatch.setattr(incidence._Matrix, "_row", dense)
    D = random_diagram(6, 14)
    n = D.crossing_count
    b = tuple(range(n))
    for rule in (SINGLE, DOUBLE):
        family = solve(D, rule, b)
        assert verify(D, rule, family.particular, b).passed
        assert add1_algebraic(D, rule, n - 1).residual == unit(n, n - 1)
        arc_unimodularity_report(D, rule)
        pinned_kernel(D, PinnedKernelRequest(1, 2, -1, rule))
    for v in range(n):
        assert add1_geometric(D, v).residual == unit(n, v)
    solve_single_via_double(D, b)
    solve_mod2(D, b)
    assert main(["solve", "--diagram", "5_1", "--b", "1,0,1,0,0",
                 "--mod2"]) == 0
    assert "PASS residual mod 2 = [0, 0, 0, 0, 0]" in capsys.readouterr().out


def test_a_family_is_the_family_of_the_dense_matrix():
    for D in (fresh(D0), fresh(catalog_entry("6_3").diagram),
              random_diagram(7, 20)):
        b = tuple(range(1, D.crossing_count + 1))
        for rule in (SINGLE, DOUBLE):
            family = solve(D, rule, b)
            dense = zlinalg.SolutionFamily(
                build_matrix(D, rule).entries, family.b, family.particular,
                family.kernel)
            assert family == dense and dense == family
            assert hash(family) == hash(dense)
            assert repr(family) == repr(dense)


def test_the_route_cache_keeps_no_dense_matrix():
    # the dense family matrix at n = 741 is about 4.6 MB, and the cache
    # kept it with its route; a route's own data is a fraction of 1 MB
    D = random_diagram(5, 500)
    b = tuple((7 * i) % 19 - 9 for i in range(D.crossing_count))
    for rule in (SINGLE, DOUBLE):
        D._routes.clear()
        tracemalloc.start()
        try:
            solve(D, rule, b)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
            D._routes.clear()
            gc.collect()
            kept -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 1_000_000, (rule, kept)


def test_single_via_double_builds_each_route_once_then_not_at_all(
        loop_corrections, winding_sums, factorisations):
    # one loop correction, on one winding sum for the double-rule
    # particular; nothing is factored
    D = random_diagram(5, 12)
    b = tuple(range(1, D.crossing_count + 1))
    u = solve_single_via_double(D, b)
    assert loop_corrections == winding_sums == [D]
    assert factorisations == []
    loop_corrections.clear()
    winding_sums.clear()
    assert solve_single_via_double(D, b) == u
    assert loop_corrections == winding_sums == factorisations == []
    # both paths are zero on the pin pair, so the sum is the canonical
    # single-rule particular
    (family,) = zlinalg.solve_pinned(build_matrix(D, SINGLE).entries,
                                     _pin_pair(D), [b])
    assert u == family.particular


def flip_kernel_entry(f):
    k1, k2 = f.kernel
    j = next(j for j, x in enumerate(k1) if x and j not in f.pins)
    f.kernel = (k1[:j] + (-k1[j],) + k1[j + 1:], k2)


def drop_a_pair(f):
    f.pairs.pop(len(f.pairs) // 2)


def move_a_pairs_region(f):
    # to a region at another corner of the same crossing
    v, r = f.pairs[0]
    f.pairs[0] = (v, next(x for x in f.double.region[4 * v:4 * v + 4]
                          if x != r))


def break_the_tree_order(f):
    # a loop inside another is put before it
    j = next(j for j, (_, _, up, _) in enumerate(f.loops) if up >= 0)
    up = f.loops[j][2]
    f.loops[up], f.loops[j] = f.loops[j], f.loops[up]


@pytest.mark.parametrize("corrupt", [flip_kernel_entry, drop_a_pair,
                                     move_a_pairs_region,
                                     break_the_tree_order])
def test_a_corrupted_cached_factorisation_is_refused(corrupt):
    # the single rule's route is the loop correction; its certificate is
    # checked in every call that reads it, the mod-2 solve's among them
    grown = random_diagram(4, 30)
    n = grown.crossing_count
    calls = [lambda D: solve(D, SINGLE, (1,) * n),
             lambda D: add1_algebraic(D, SINGLE, 0),
             lambda D: pinned_kernel(D, PinnedKernelRequest(1, 0, 1, SINGLE)),
             lambda D: solve_single_via_double(D, (1,) * n),
             lambda D: solve_mod2(D, (1,) * n)]
    for call in calls:
        D = fresh(grown)
        call(D)
        f = route(D, SINGLE)
        assert len(f.pairs) > 2 and any(up >= 0 for _, _, up, _ in f.loops)
        corrupt(f)
        with pytest.raises(InternalInvariantError,
                           match="^loop correction, certificate: "):
            call(D)


def test_each_query_checks_the_certificate_once(monkeypatch):
    # the construction's check serves the query that built it, and every
    # later query checks again: under the single rule, the mod-2 solve
    # included, the loop correction's own certificate and the winding sum's
    # rank certificate (``_signs``, which the winding sum's construction
    # and ``check_rank`` both run), under the double rule the winding
    # sum's, which its check and construction both derive
    grown = random_diagram(4, 10)
    ones = (1,) * grown.crossing_count
    single = [(solvers._LoopCorrection, "_check"),
              (solvers._WindingSum, "_signs")]
    for query, checked in (
            (lambda D: solve(D, SINGLE, ones), single),
            (lambda D: solve_mod2(D, ones), single),
            (lambda D: solve(D, DOUBLE, ones),
             [(solvers._WindingSum, "_derived")])):
        D = fresh(grown)
        counts = []
        for route, name in checked:
            seen = []
            check = getattr(route, name)
            monkeypatch.setattr(
                route, name,
                lambda f, *a, check=check, seen=seen: seen.append(f)
                or check(f, *a))
            counts.append((route, seen))
        for k in range(1, 4):
            query(D)
            assert [len(seen) for _, seen in counts] == [k] * len(counts)
        assert all(type(f) is route for route, seen in counts for f in seen)
        monkeypatch.undo()


def test_add1_geometric_reads_the_cached_double_rule_route(
        monkeypatch, winding_sums, loop_corrections):
    # the add-1 is read off the double rule's winding sum, which the other
    # queries built: one certificate check per call, nothing built or
    # dropped
    D = random_diagram(6, 12)
    for rule in (SINGLE, DOUBLE):
        kernel_basis(D, rule)
    kept = dict(D._routes)
    assert set(kept) == {SINGLE, DOUBLE}
    checks = []
    check = solvers._WindingSum.check
    monkeypatch.setattr(solvers._WindingSum, "check",
                        lambda f: checks.append(f) or check(f))
    for v in range(D.crossing_count):
        add1_geometric(D, v)
    assert winding_sums == loop_corrections == [D]
    assert D._routes == kept
    assert checks == [kept[DOUBLE]] * D.crossing_count


def test_a_dropped_solved_diagram_is_freed_with_its_routes():
    # the routes hang off the diagram and refer to no diagram, so dropping
    # the last reference frees all three with the collector off
    D = random_diagram(5, 40)
    ones = (1,) * D.crossing_count
    for rule in (SINGLE, DOUBLE):
        solve(D, rule, ones)
    solve_mod2(D, ones)
    refs = [weakref.ref(x) for x in (D, route(D, SINGLE), route(D, DOUBLE))]
    gc.disable()
    try:
        del D
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda D: pickle.loads(pickle.dumps(D))],
    ids=["copy", "deepcopy", "pickle"])
def test_a_copy_builds_its_own_route(clone, winding_sums):
    D = random_diagram(4, 10)
    ones = (1,) * D.crossing_count
    kernel_basis(D, DOUBLE)
    E = clone(D)
    assert E == D and E is not D and E._routes == {}
    family = solve(E, DOUBLE, ones)
    assert len(winding_sums) == 2 and winding_sums[1] is E
    assert route(E, DOUBLE) is not route(D, DOUBLE)
    flip_a_sign(route(D, DOUBLE))
    with pytest.raises(InternalInvariantError,
                       match="^winding sum, certificate: "):
        solve(D, DOUBLE, ones)
    assert solve(E, DOUBLE, ones) == family
    assert len(winding_sums) == 2


def test_equal_distinct_diagrams_each_build_one_winding_sum(winding_sums,
                                                            loop_corrections):
    D = random_diagram(6, 12)
    E = fresh(D)
    assert E == D and hash(E) == hash(D) and E is not D
    b = tuple(range(D.crossing_count))
    for G in (D, E, D, E):
        for rule in (SINGLE, DOUBLE):
            solve(G, rule, b)
    for made in (winding_sums, loop_corrections):
        assert [G is D for G in made] == [True, False]
        assert made[1] is E


def test_solving_and_dropping_grown_diagrams_leaves_the_heap_flat():
    # each diagram's routes go with it.  Measured on Python 3.11: 300
    # solved and dropped diagrams leave 50-65 KB, tuples on the
    # interpreter's free lists; keeping their routes would hold 4.6 MB
    def solve_grown(seeds):
        for seed in seeds:
            D = random_diagram(seed, 20)
            ones = (1,) * D.crossing_count
            for rule in (SINGLE, DOUBLE):
                solve(D, rule, ones)
            solve_mod2(D, ones)

    tracemalloc.start()
    try:
        solve_grown(range(10))
        before = tracemalloc.get_traced_memory()[0]
        solve_grown(range(10, 310))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 500_000, grown


def test_add1_geometric_leaves_the_diagram_caches_alone():
    # each add-1 walks the strand and the regions of the diagram's own
    # tables, and builds neither arcs nor a coloring
    D = random_diagram(5, 25)

    # lookups, not sizes: a full bounded cache keeps its size whatever it
    # was asked
    def lookups():
        return [f.cache_info().hits + f.cache_info().misses
                for f in (arcs, checkerboard, regions, component_count)]
    before = lookups()
    for v in range(D.crossing_count):
        add1_geometric(D, v)
    assert lookups() == before


def test_a_cold_single_rule_solve_counts_no_components():
    # the knot test walks one strand; the component scan is not asked, so
    # its cache neither looks up nor keeps a fresh diagram
    D = random_diagram(23, 30)
    ones = (1,) * D.crossing_count
    before = component_count.cache_info()
    solve(D, SINGLE, ones)
    solve_mod2(D, ones)
    after = component_count.cache_info()
    assert (after.hits, after.misses, after.currsize) == (
        before.hits, before.misses, before.currsize)


def test_pinned_kernel_matches_the_per_arc_solve():
    diagrams = ([catalog_entry(name).diagram for name in names()]
                + [random_diagram(s, 4 + 2 * s) for s in range(8)])
    for D in diagrams:
        zeros = (0,) * D.crossing_count
        for rule in (SINGLE, DOUBLE):
            M = build_matrix(D, rule).entries
            for arc in arcs(D):
                (family,) = zlinalg.solve_pinned(M, arc.sides, [zeros])
                for a, b in ((0, 1), (1, 0), (3, -2)):
                    request = PinnedKernelRequest(arc.label, a, b, rule)
                    assert pinned_kernel(D, request) == family.member(a, b)


def test_mod2_solutions_verify():
    rng = random.Random(2)
    for name in ("3_1", "5_2", "example2_4"):
        D = catalog_entry(name).diagram
        M = build_matrix(D, SINGLE)
        n = D.crossing_count
        for _ in range(20):
            b = tuple(rng.randint(0, 1) for _ in range(n))
            chosen = solve_mod2(D, b)
            u = tuple(1 if r in chosen else 0 for r in range(D.region_count))
            assert all(x % 2 == 0 for x in residual(M, u, b))


def test_kernel_basis_spans_for_random_diagrams():
    for seed in (3, 8, 21):
        D = random_diagram(seed, 6)
        for rule in (SINGLE, DOUBLE):
            k1, k2 = kernel_basis(D, rule)
            M = build_matrix(D, rule)
            assert apply(M, k1) == (0,) * D.crossing_count
            assert apply(M, k2) == (0,) * D.crossing_count


def test_minimize_is_not_stopped_by_a_plateau():
    # a search that stops once a neighbourhood of the least-squares point
    # stops improving returns Linf 12 here; the minimum is 11
    D = random_diagram(13, 5)
    fam = solve(D, DOUBLE, (-6, -7, -1, -5, -5, -5, 9, 9, 8))
    best = zlinalg.minimize_in_family(fam, "Linf")
    assert residual(build_matrix(D, DOUBLE), best, fam.b) == (0,) * 9
    window = range(-25, 26)
    assert max(map(abs, best)) == 11 == min(
        max(map(abs, fam.member(a, c))) for a in window for c in window)


def test_minimize_does_not_depend_on_how_the_family_is_written():
    D = random_diagram(11, 8)
    fam = solve(D, SINGLE, (-3, -2, -9, 5, 1, 5, 9, -3, 7, -2, 0, 6, -9))
    k1, k2 = fam.kernel
    rebased = zlinalg.SolutionFamily(
        fam.matrix, fam.b, fam.member(3, -2),
        (tuple(x + y for x, y in zip(k1, k2)), k2))
    assert (zlinalg.minimize_in_family(fam, "Linf")
            == zlinalg.minimize_in_family(rebased, "Linf"))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), moves=st.integers(0, 24),
       rule=st.sampled_from((SINGLE, DOUBLE)), shuffle=st.integers(0, 10 ** 6))
def test_relabeling_permutes_the_solution_set(seed, moves, rule, shuffle):
    D = random_diagram(seed, moves)
    n, m = D.crossing_count, D.region_count
    rng = random.Random(shuffle)
    b = tuple(rng.randint(-50, 50) for _ in range(n))

    # new arc labels trace the same faces, so nothing changes
    label = list(range(1, 2 * n + 1))
    rng.shuffle(label)
    relabeled = FlatDiagram(tuple(tuple(label[x - 1] for x in c)
                                  for c in D.crossings))
    assert build_matrix(relabeled, rule) == build_matrix(D, rule)
    assert solve(relabeled, rule, b) == solve(D, rule, b)

    # new crossing order: row i is old row order[i], and region r is new
    # region sigma[r], the one with the same corners moved to their new
    # crossing numbers
    order = list(range(n))
    rng.shuffle(order)
    moved = FlatDiagram(tuple(D.crossings[c] for c in order))
    at = {c: i for i, c in enumerate(order)}
    region_of = {frozenset(reg.corners): reg.index for reg in regions(moved)}
    sigma = [region_of[frozenset((at[c], s) for c, s in reg.corners)]
             for reg in regions(D)]
    assert sorted(sigma) == list(range(m))
    b_moved = tuple(b[c] for c in order)
    matrix = build_matrix(moved, rule)
    for norm in ("Linf", "L2"):
        old = zlinalg.minimize_in_family(solve(D, rule, b), norm)
        new = zlinalg.minimize_in_family(solve(moved, rule, b_moved), norm)
        assert _norm(old, norm) == _norm(new, norm)
        mapped = [0] * m
        for r, x in enumerate(old):
            mapped[sigma[r]] = x
        assert residual(matrix, mapped, b_moved) == (0,) * n


def test_a_double_rule_sweep_builds_one_winding_sum_per_diagram(
        loop_corrections, factorisations, winding_sums):
    # every double-rule query on a diagram reads one winding sum; none
    # builds the single rule's route or factors anything
    diagrams = [fresh(catalog_entry("example2_4").diagram),
                random_diagram(2, 15)]
    for D in diagrams:
        n = D.crossing_count
        solve(D, DOUBLE, tuple(range(n)))
        kernel_basis(D, DOUBLE)
        arc_unimodularity_report(D, DOUBLE)
        for arc in arcs(D):
            pinned_kernel(D, PinnedKernelRequest(arc.label, 1, -2, DOUBLE))
        for v in range(n):
            add1_algebraic(D, DOUBLE, v)
            add1_geometric(D, v)
    assert winding_sums == diagrams
    assert loop_corrections == factorisations == []


def test_the_winding_sum_is_the_pinned_solve():
    # particular and kernel equal the engine's on the same pins, so the
    # two routes give one canonical family
    diagrams = ([catalog_entry(name).diagram for name in names()]
                + [random_diagram(s, 3 + s % 40) for s in range(300)]
                + [random_diagram(5, 500)])
    assert diagrams[-1].crossing_count == 741
    for i, D in enumerate(diagrams):
        rng = random.Random(i)
        b = tuple(rng.randint(-9, 9) for _ in range(D.crossing_count))
        (family,) = zlinalg.solve_pinned(build_matrix(D, DOUBLE).entries,
                                         _pin_pair(D), [b])
        assert solve(D, DOUBLE, b) == family


def nested_kinks(D, count):
    """``count`` kinks, each put on the last one: repeating
    ``apply_r1(D, max(D.crossings[-1]), "left")``, on one map.  An arc's
    label is its rank by least dart, so the largest label at the last
    crossing is its arc with the largest least dart."""
    grow = _Map(D)
    for _ in range(count):
        x = len(grow.mate) - 4
        grow.r1(max(min(d, grow.mate[d]) for d in range(x, x + 4)), "left")
    return FlatDiagram(grow.crossings(), D.name)


def test_nested_kinks_are_repeated_r1_moves():
    D = random_diagram(5, 60)
    repeated = D
    for count in range(1, 13):
        repeated = apply_r1(repeated, max(repeated.crossings[-1]), "left")
        assert nested_kinks(D, count) == repeated


def single_by_naive_sweep(D, b):
    """The single-rule particular zero on the pins, by the sweep
    ``y <- V^T S2(b - U y)`` over the pairs off the pins until ``y`` stops
    moving, with ``S2`` the double rule's pinned solve: the route's
    unitriangular solve done the slow way, one winding sum per sweep.
    ``I + W`` is unitriangular, so ``W`` is nilpotent and the sweep stops
    after at most one more sweep than there are pairs."""
    double = route(D, DOUBLE)
    pairs = [(v, r) for r, twice in enumerate(_doubled_crossings(D))
             for v in twice if r not in double.pins]
    y = [0] * len(pairs)
    for _ in range(len(pairs) + 2):
        rhs = list(b)
        for (v, _), x in zip(pairs, y):
            rhs[v] -= x
        u = double.particular(rhs)
        if [u[r] for _, r in pairs] == y:
            return u
        y = [u[r] for _, r in pairs]
    raise AssertionError("the sweep did not stop")


def assert_the_pinned_solve(diagrams):
    """The single rule's family is the engine's on the same pins, and its
    particular the naive sweep's."""
    for i, D in enumerate(diagrams):
        rng = random.Random(i)
        b = tuple(rng.randint(-9, 9) for _ in range(D.crossing_count))
        (family,) = zlinalg.solve_pinned(build_matrix(D, SINGLE).entries,
                                         _pin_pair(D), [b])
        assert not D._routes
        assert solve(D, SINGLE, b) == family
        assert single_by_naive_sweep(D, b) == family.particular


def test_the_loop_correction_is_the_pinned_solve():
    diagrams = ([fresh(catalog_entry(name).diagram) for name in names()]
                + [random_diagram(s, 3 + s % 40) for s in range(300)])
    assert_the_pinned_solve(diagrams)
    # loops inside loops are among them
    assert any(up >= 0 for D in diagrams
               for _, _, up, _ in route(D, SINGLE).loops)


def test_the_loop_correction_is_the_pinned_solve_at_large_n():
    diagrams = [random_diagram(5, 500), random_diagram(9, 2000)]
    assert [D.crossing_count for D in diagrams] == [741, 3021]
    assert_the_pinned_solve(diagrams)


def test_the_loop_correction_is_the_pinned_solve_on_nested_kinks():
    # the sweep takes one more sweep than the kinks are deep; the route
    # takes one pass
    diagrams = [nested_kinks(random_diagram(5, 500), count)
                for count in (300, 1000)]
    assert [D.crossing_count for D in diagrams] == [1041, 1741]
    assert_the_pinned_solve(diagrams)
    depth = []
    for _, _, up, _ in route(diagrams[-1], SINGLE).loops:
        depth.append(depth[up] + 1 if up >= 0 else 1)
    assert max(depth) >= 1000


def test_solve_mod2_is_the_bit_elimination():
    # the route's answer, moved to zero on the lexicographically last pair
    # with an odd kernel minor, is the answer of the elimination, whose
    # free columns are that pair: identical, also where the move is not
    # the reduced particular's
    rng = random.Random(29)
    diagrams = ([catalog_entry(name).diagram for name in names()]
                + [random_diagram(s, 3 + s % 40) for s in range(300)]
                + [random_diagram(5, 500), random_diagram(9, 2000)])
    diagrams.append(nested_kinks(diagrams[-2], 300))
    assert [D.crossing_count for D in diagrams[-3:]] == [741, 3021, 1041]
    moved = 0
    for D in diagrams:
        for _ in range(3):
            b = tuple(rng.randint(-3, 3) for _ in range(D.crossing_count))
            answer = solve_mod2(D, b)
            assert answer == bit_elimination_mod2(D, b)
            p = solve(D, SINGLE, tuple(x % 2 for x in b)).particular
            moved += answer != tuple(r for r, x in enumerate(p) if x % 2)
    assert moved > len(diagrams)
    # a link is refused before the length of b is read
    for D in LINKS:
        for b in ((1,) * D.crossing_count, (1,) * (D.crossing_count + 1)):
            with pytest.raises(ValueError, match="^the mod-2 solve requires "
                                                 "a knot projection$"):
                solve_mod2(D, b)


def add1_by_winding_walk(D, v):
    """The geometric add-1 as one walk over the regions per crossing, with
    both windings stepped across every arc and checked on the arcs it does
    not step across, and a sign chosen by the residual: the library's body
    before the double rule's winding sum, kept as its oracle."""
    walk, p, q = _strand_cut(D, v)
    mate, region = D._mate, D._region
    step, step1 = [0] * len(mate), [0] * len(mate)
    for i, d in enumerate(walk):
        step[d], step[mate[d]] = 1, -1
        if not p < i <= q:
            step1[d], step1[mate[d]] = 1, -1
    n = D.crossing_count
    alpha, alpha1, reached = [0] + [None] * (n + 1), [0] * (n + 2), [0]
    for r in reached:
        for d in D._faces[r]:
            o = region[mate[d]]
            a, a1 = alpha[r] - step[d], alpha1[r] - step1[d]
            if alpha[o] is None:
                alpha[o], alpha1[o] = a, a1
                reached.append(o)
            else:
                assert (alpha[o], alpha1[o]) == (a, a1)
    base = alpha1[region[min(walk[p], mate[walk[p]])]]
    u = tuple(base - b if a & 1 else b - base for a, b in zip(alpha, alpha1))
    res = incidence._residual(D, DOUBLE, u, (0,) * n)
    if res != unit(n, v):
        u, res = tuple(-x for x in u), tuple(-x for x in res)
    assert res == unit(n, v)
    return u


def test_add1_geometric_equals_the_winding_walk_it_replaced():
    diagrams = ([catalog_entry(name).diagram for name in names()]
                + [random_diagram(s, 3 + s % 40) for s in range(0, 300, 10)]
                + [random_diagram(4, 120)])
    for D in diagrams:
        for v in range(D.crossing_count):
            assert add1_geometric(D, v).assignment == add1_by_winding_walk(D, v)


def flip_a_sign(f):
    f.sigma[len(f.sigma) // 2] *= -1


def bump_a_tree_weight(f):
    o, r, i, s = f.tree[-1]
    f.tree[-1] = (o, r, i, s + 1)


def bump_a_tree_weight_by_2_and_derive_again_blind(f):
    # the same parity, so the same e and sigma, and a kernel derived
    # afresh with the products blinded: only the kernel products see it
    o, r, i, s = f.tree[-1]
    f.tree[-1] = (o, r, i, s + 2)
    f.image = lambda u: [0] * len(f.sigma)
    f.e, f.kernel, f.sigma = f._derived()
    del f.image


@pytest.mark.parametrize("corrupt", [
    flip_kernel_entry, flip_a_sign, bump_a_tree_weight,
    bump_a_tree_weight_by_2_and_derive_again_blind])
def test_a_corrupted_cached_winding_sum_is_refused(corrupt):
    grown = random_diagram(4, 10)
    n = grown.crossing_count
    calls = [lambda D: solve(D, DOUBLE, (1,) * n),
             lambda D: add1_algebraic(D, DOUBLE, 0),
             lambda D: pinned_kernel(D, PinnedKernelRequest(1, 0, 1, DOUBLE)),
             lambda D: add1_geometric(D, n - 1)]
    for call in calls:
        D = fresh(grown)
        call(D)
        corrupt(route(D, DOUBLE))
        with pytest.raises(InternalInvariantError,
                           match="^winding sum, certificate: "):
            call(D)


def test_a_sign_that_is_not_a_unit_is_refused():
    # sigma and the corner sums it is checked against both read 0 at v1
    D = random_diagram(4, 10)
    kernel_basis(D, DOUBLE)
    f = route(D, DOUBLE)
    for corner in f.corner_alpha1:
        corner[0] = 0
    f.sigma[0] = 0
    with pytest.raises(InternalInvariantError,
                       match="^winding sum, certificate: sigma at v1 is 0, "
                             "not \\+-1$"):
        solve(D, DOUBLE, (1,) * D.crossing_count)


def test_an_e_outside_the_kernel_is_refused_by_its_corner_sums():
    # with every tree step's sign 0, alpha is 0: e is all ones, whose corner
    # sums are 4, and e alpha is 0, which lies in the kernel
    D = random_diagram(4, 10)
    kernel_basis(D, DOUBLE)
    f = route(D, DOUBLE)
    f.tree[:] = [(o, r, i, 0) for o, r, i, _ in f.tree]
    with pytest.raises(InternalInvariantError,
                       match="^winding sum, certificate: e or e alpha is "
                             "outside the kernel$"):
        solve(D, DOUBLE, (1,) * D.crossing_count)


def test_a_wrong_answer_of_the_winding_sum_is_refused_by_its_residual():
    # the running sum's turns and the add-1's cut are not part of the
    # route's certificate: each answer's own residual refuses them
    D = random_diagram(4, 10)
    n = D.crossing_count
    kernel_basis(D, DOUBLE)
    f = route(D, DOUBLE)
    f.turn[0] *= -1
    with pytest.raises(InternalInvariantError,
                       match="^winding sum, certificate: particular solution "
                             "has nonzero residual$"):
        solve(D, DOUBLE, (1,) * n)
    # the crossing the running sum starts at
    v = f._at_arrival(range(n))[0]
    with pytest.raises(InternalInvariantError,
                       match="^winding sum, certificate: particular solution "
                             "has nonzero residual$"):
        add1_algebraic(D, DOUBLE, v)
    assert pinned_kernel(D, PinnedKernelRequest(1, 0, 1, DOUBLE))
    v = next(v for v in range(n) if f.q[v] - f.p[v] > 1)
    f.p[v] += 1
    with pytest.raises(InternalInvariantError,
                       match=f"^winding sum, certificate: geometric add-1 at "
                             f"v{v + 1} has residual "):
        add1_geometric(D, v)


def test_a_wrong_mod2_answer_is_refused_by_its_residual(monkeypatch):
    # a particular off by one at a region passes the route's certificate;
    # the mod-2 answer's own residual refuses it
    D = random_diagram(4, 10)
    particular = solvers._LoopCorrection.particular

    def off_by_one(f, b):
        u = particular(f, b)
        return (u[0] + 1,) + u[1:]

    monkeypatch.setattr(solvers._LoopCorrection, "particular", off_by_one)
    with pytest.raises(InternalInvariantError,
                       match="^loop correction, certificate: the mod-2 "
                             "solution misses b "):
        solve_mod2(D, (1,) * D.crossing_count)
