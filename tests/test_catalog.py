import types

import pytest

from regionchoice.catalog import (REFERENCE_DOUBLE, REFERENCE_SINGLE,
                                  CatalogError, catalog_entry,
                                  match_labeling, names)
from regionchoice.diagram import is_knot, reducible_crossings
from regionchoice.incidence import DOUBLE, SINGLE, build_matrix


def test_catalog_name_is_the_module():
    import regionchoice
    import regionchoice.catalog as module
    assert isinstance(module, types.ModuleType)
    assert regionchoice.catalog is module
    # no function of the same name shadows it
    assert not hasattr(module, "catalog")


def test_names_are_stable():
    assert names() == ("d0", "example2_4", "3_1", "4_1", "5_1", "5_2",
                       "6_1", "6_2", "6_3")


def test_unknown_name():
    with pytest.raises(CatalogError):
        catalog_entry("7_1").diagram


def test_every_entry_is_a_knot():
    for name in names():
        assert is_knot(catalog_entry(name).diagram)


def test_reference_single_reproduced():
    for name, table in REFERENCE_SINGLE.items():
        assert catalog_entry(name).matrix(SINGLE).entries == table


def test_reference_double_reproduced():
    for name, table in REFERENCE_DOUBLE.items():
        assert catalog_entry(name).matrix(DOUBLE).entries == table


def test_example2_4_has_one_reducible_crossing():
    D = catalog_entry("example2_4").diagram
    assert D.crossing_count == 4
    assert len(reducible_crossings(D)) == 1


def test_minimal_projections_are_irreducible():
    for name in ("3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3"):
        assert reducible_crossings(catalog_entry(name).diagram) == ()


def test_match_labeling_identity():
    M = build_matrix(catalog_entry("3_1").diagram, SINGLE).entries
    rows, cols = match_labeling(M, M)
    assert sorted(rows) == [0, 1, 2]
    assert sorted(cols) == [0, 1, 2, 3, 4]


def test_match_labeling_shape_mismatch():
    assert match_labeling(((1,),), ((1, 0),)) is None


def test_match_labeling_impossible():
    assert match_labeling(((1, 0), (0, 1)), ((1, 1), (1, 1))) is None
