import pytest

from regionchoice.catalog import catalog_entry
from regionchoice.incidence import DOUBLE, SINGLE, build_matrix
from regionchoice.oracle import (BudgetExceeded, OracleMismatch, SearchBox,
                                 brute_solutions, cross_check)
from regionchoice.solvers import solve
from regionchoice.zlinalg import SolutionFamily

CURL = ((2, 1, 1),)


def test_brute_finds_homogeneous_solutions():
    box = SearchBox(CURL, (0,), radius=1)
    hits = brute_solutions(box)
    assert (0, 0, 0) in hits
    assert all(2 * u[0] + u[1] + u[2] == 0 for u in hits)
    assert hits == sorted(hits)


def test_brute_respects_budget():
    box = SearchBox(CURL, (0,), radius=4, budget=100)
    with pytest.raises(BudgetExceeded):
        brute_solutions(box)


def test_brute_negative_radius():
    with pytest.raises(ValueError):
        brute_solutions(SearchBox(CURL, (0,), radius=-1))


def test_cross_check_curl():
    D = catalog_entry("d0").diagram
    M = build_matrix(D, DOUBLE)
    for b in ((0,), (1,), (-2,)):
        fam = solve(D, DOUBLE, b)
        report = cross_check(M.entries, b, fam, radius=2)
        assert report.brute_count > 0
        for alpha, beta in report.coefficients:
            member = fam.member(alpha, beta)
            assert max(abs(x) for x in member) <= 2


def test_cross_check_trefoil_both_rules():
    D = catalog_entry("3_1").diagram
    for rule in (SINGLE, DOUBLE):
        M = build_matrix(D, rule)
        fam = solve(D, rule, (0, 0, 0))
        report = cross_check(M.entries, (0, 0, 0), fam, radius=2)
        assert report.brute_count >= 1


def test_cross_check_catches_shifted_family():
    D = catalog_entry("3_1").diagram
    M = build_matrix(D, SINGLE)
    fam = solve(D, SINGLE, (1, 0, 0))
    shifted = SolutionFamily(fam.matrix, fam.b,
                             tuple(x + 1 for x in fam.particular), fam.kernel)
    assert shifted != fam and shifted.kernel == fam.kernel
    with pytest.raises(OracleMismatch):
        cross_check(M.entries, (1, 0, 0), shifted, radius=2)


def test_cross_check_catches_scaled_kernel():
    D = catalog_entry("3_1").diagram
    M = build_matrix(D, SINGLE)
    fam = solve(D, SINGLE, (0, 0, 0))
    k1, k2 = fam.kernel
    coarse = SolutionFamily(fam.matrix, fam.b, fam.particular,
                            (tuple(2 * x for x in k1), tuple(2 * x for x in k2)))
    assert coarse != fam and coarse.particular == fam.particular
    with pytest.raises(OracleMismatch):
        cross_check(M.entries, (0, 0, 0), coarse, radius=2)
