import pytest

from regionchoice.catalog import catalog_entry, names
from regionchoice.diagram import (D0, FlatDiagram, _doubled_crossings,
                                  random_diagram, reducible_crossings,
                                  regions)
from regionchoice.incidence import (DOUBLE, SINGLE, _Matrix, apply,
                                    build_matrix, mod2, render_text,
                                    residual)
from test_corners import region_corner_count

TREFOIL = FlatDiagram(((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)))


def test_curl_double_matrix():
    assert build_matrix(D0, DOUBLE).entries == ((2, 1, 1),)


def test_curl_single_matrix():
    assert build_matrix(D0, SINGLE).entries == ((1, 1, 1),)


def test_trefoil_matrices_agree():
    # no region touches a crossing twice, so both rules coincide
    assert reducible_crossings(TREFOIL) == ()
    assert build_matrix(TREFOIL, SINGLE).entries == \
        build_matrix(TREFOIL, DOUBLE).entries


def test_trefoil_single_matrix_value():
    assert build_matrix(TREFOIL, SINGLE).entries == (
        (1, 1, 1, 1, 0),
        (1, 1, 0, 1, 1),
        (0, 1, 1, 1, 1))


def test_double_row_sums_are_four():
    for name in ("d0", "3_1", "4_1", "example2_4", "6_3"):
        M = build_matrix(catalog_entry(name).diagram, DOUBLE)
        for row in M.entries:
            assert sum(row) == 4


def test_labels():
    M = build_matrix(TREFOIL, SINGLE)
    assert M.row_labels == ("v1", "v2", "v3")
    assert M.col_labels == ("r1", "r2", "r3", "r4", "r5")


def test_unknown_rule():
    with pytest.raises(ValueError):
        build_matrix(D0, "triple")


def test_apply_and_residual():
    M = build_matrix(TREFOIL, SINGLE)
    u = (1, -2, 1, 0, 1)
    out = apply(M, u)
    assert out == tuple(sum(r * x for r, x in zip(row, u))
                        for row in M.entries)
    assert residual(M, u, tuple(-x for x in out)) == (0, 0, 0)


def test_gap_columns_flag_reducible_crossings():
    gaps = dict(enumerate(_doubled_crossings(D0)))
    doubled = {r: vs for r, vs in gaps.items() if vs}
    assert doubled == {0: (0,)}
    assert all(not vs for vs in _doubled_crossings(TREFOIL))


def test_gap_columns_and_reducible_crossings_match_the_definition():
    # against the per-crossing definitions: a region's corner count at each
    # crossing, and some region with two corners at a reducible crossing
    for seed in range(20):
        for moves in (0, 3, 10, 25):
            D = random_diagram(seed, moves)
            crossings, regs = range(D.crossing_count), regions(D)
            assert _doubled_crossings(D) == [
                tuple(v for v in crossings
                      if region_corner_count(reg, v) == 2)
                for reg in regs]
            assert reducible_crossings(D) == tuple(
                v for v in crossings
                if any(region_corner_count(reg, v) == 2 for reg in regs))


def test_mod2_rejects_double_rule():
    M = build_matrix(D0, DOUBLE)
    with pytest.raises(ValueError):
        mod2(M)


def test_mod2_of_single_is_identity_on_bits():
    M = build_matrix(TREFOIL, SINGLE)
    assert mod2(M) == M.entries


def test_permuted_matches_manual_shuffle():
    M = build_matrix(TREFOIL, SINGLE)
    P = M.permuted((2, 0, 1), (4, 3, 2, 1, 0))
    assert P.entries[0] == tuple(M.entries[2][j] for j in (4, 3, 2, 1, 0))
    assert P.row_labels == ("v3", "v1", "v2")


def test_render_text_shape():
    out = render_text(build_matrix(D0, DOUBLE))
    lines = out.splitlines()
    assert len(lines) == 2  # header plus one crossing row
    assert "v1" in lines[1]


def test_build_matrix_equals_corner_counts():
    # the matrix is filled from the corner lists; it must equal the
    # per-(crossing, region) corner count definition entry for entry
    for D in [D0, TREFOIL] + [random_diagram(s, 3 * s) for s in range(12)]:
        regs = regions(D)
        double = tuple(tuple(region_corner_count(reg, v) for reg in regs)
                       for v in range(D.crossing_count))
        assert build_matrix(D, DOUBLE).entries == double
        assert build_matrix(D, SINGLE).entries == tuple(
            tuple(min(k, 1) for k in row) for row in double)


def test_the_matrix_view_reads_as_the_dense_matrix():
    diagrams = ([catalog_entry(name).diagram for name in names()]
                + [random_diagram(s, 3 + s % 40) for s in range(50)])
    for D in diagrams:
        for rule in (SINGLE, DOUBLE):
            view, dense = _Matrix(D, rule), build_matrix(D, rule).entries
            assert view == dense and dense == view
            assert not (view != dense or dense != view)
            assert hash(view) == hash(dense)
            assert repr(view) == repr(dense)
            assert len(view) == len(dense)
            assert list(view) == list(dense)
            n = len(dense)
            assert [view[v] for v in range(-n, n)] == [
                dense[v] for v in range(-n, n)]
            for v in (n, -n - 1):
                with pytest.raises(IndexError):
                    view[v]
            assert view == _Matrix(D, rule)
            # a changed entry, a missing row and a list are other matrices
            changed = dense[:-1] + (dense[-1][:-1] + (dense[-1][-1] + 1,),)
            for other in (changed, dense[:-1], list(dense)):
                assert view != other and other != view
    # the rules differ exactly at the reducible crossings
    D = random_diagram(7, 20)
    assert reducible_crossings(D)
    assert _Matrix(D, SINGLE) != _Matrix(D, DOUBLE)
    with pytest.raises(TypeError):
        _Matrix(D, SINGLE)[0:1]
    with pytest.raises(ValueError):
        _Matrix(D, "triple")
