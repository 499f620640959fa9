"""The solve routes' tables against the constructors they replaced.

The library's routes read the strand from dart 0 that the diagram keeps
from its validation, in one pass; ``tests/route_oracle.py`` keeps the
constructors that walked it again and read it in several passes.  Every
table a route keeps, and that a query or a certificate check reads, must
be equal, on knots of every shape the suite builds: the catalog, grown
diagrams, reduced braid closures and loops nested 300 deep.  A link is
refused by both.
"""

import pytest

from regionchoice.catalog import catalog_entry, names
from regionchoice.diagram import apply_r1, random_diagram
from regionchoice.solvers import _KNOT_ONLY, _LoopCorrection, _WindingSum
from route_oracle import oracle_LoopCorrection, oracle_WindingSum
from test_braids import KNOTS, LINKS, sigma1_sigma2_inverse
from test_sparse import LINKS as SPARSE_LINKS

WINDING = ("walk", "p", "q", "pins", "start", "tree", "turn",
           "corner_alpha1", "e", "kernel", "sigma")
LOOPS = ("pairs", "loops", "home", "inside", "alpha", "kernel")


def assert_the_tables_of_then(D):
    """Both routes of ``D``, built by the library and by the oracle, keep
    equal tables; the winding sum's ``alpha`` is the loop correction's."""
    double, old_double = _WindingSum(D), oracle_WindingSum(D)
    for name in WINDING:
        assert getattr(double, name) == getattr(old_double, name), name
    n = D.crossing_count
    assert double._at_arrival(range(n)) == old_double._at_arrival(range(n))
    single = _LoopCorrection(D, double)
    old_single = oracle_LoopCorrection(D, old_double)
    for name in LOOPS:
        assert getattr(single, name) == getattr(old_single, name), name
    assert double.alpha == old_single.alpha
    return single


def test_the_catalog_and_grown_diagrams_keep_the_tables_of_then():
    diagrams = ([catalog_entry(name).diagram for name in names()]
                + [random_diagram(s, 3 + s % 40) for s in range(300)])
    routes = list(map(assert_the_tables_of_then, diagrams))
    # loops, nested ones and regions inside them are among them
    assert any(up >= 0 for f in routes for _, _, up, _ in f.loops)
    assert sum(len(f.inside) for f in routes) > 300


def test_reduced_braid_closures_keep_the_tables_of_then():
    for k in KNOTS:
        f = assert_the_tables_of_then(sigma1_sigma2_inverse(k))
        assert not f.pairs


def test_nested_kinks_keep_the_tables_of_then():
    D = random_diagram(5, 60)
    for count in range(1, 301):
        D = apply_r1(D, max(D.crossings[-1]), "left")
        if count % 100 == 0:
            f = assert_the_tables_of_then(D)
    depth = []
    for _, _, up, _ in f.loops:
        depth.append(depth[up] + 1 if up >= 0 else 1)
    assert max(depth) >= 300


def test_a_link_is_refused_by_both():
    for D in SPARSE_LINKS + [sigma1_sigma2_inverse(k) for k in LINKS]:
        for build in (_WindingSum, oracle_WindingSum):
            with pytest.raises(ValueError, match=f"^{_KNOT_ONLY}$"):
                build(D)
