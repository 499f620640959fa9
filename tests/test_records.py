"""The package's value records against frozen dataclasses.

Every record class derives from ``diagram._Record``.  Each is checked
against a ``dataclasses.dataclass(frozen=True)`` twin built from the same
annotations, defaults and methods: equality, hash, repr, immutability,
the constructor's signature and errors, ``__match_args__``, copying and
pickling.
"""

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from regionchoice import catalog, diagram, incidence, oracle, solvers, zlinalg
from regionchoice.catalog import catalog_entry
from regionchoice.diagram import (FlatDiagram, _Record, arcs, checkerboard,
                                  parse_flat_pd, regions)
from regionchoice.incidence import DOUBLE, SINGLE, build_matrix

ROOT = Path(__file__).resolve().parent.parent
TREFOIL = ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3))
# what the record base adds to a class body, which the twin leaves out
MACHINERY = {"__init__", "__hash__", "__reduce__", "_fields", "_get",
             "__match_args__", "__dict__", "__weakref__"}


def records():
    """Every record class of the package, by module."""
    found = []
    for module in (diagram, zlinalg, solvers, oracle, catalog, incidence):
        found += [value for value in vars(module).values()
                  if isinstance(value, type) and issubclass(value, _Record)
                  and value is not _Record
                  and value.__module__ == module.__name__]
    return found


def twin(cls):
    """A frozen dataclass with the record's name, annotations, defaults and
    methods."""
    body = {k: v for k, v in vars(cls).items() if k not in MACHINERY}
    return dataclasses.dataclass(frozen=True)(
        type(cls.__name__, (), body))


def samples():
    """Two records of each class with different field values."""
    D, E = catalog_entry("3_1").diagram, catalog_entry("4_1").diagram
    M, N = build_matrix(D, SINGLE), build_matrix(E, DOUBLE)
    fam = solvers.solve(D, SINGLE, (1, 0, 0))
    family = zlinalg.SolutionFamily(tuple(fam.matrix), fam.b,
                                     fam.particular, fam.kernel)
    reduced = zlinalg.reduce_to_e00(M.entries)
    curl = ((2, 1, 1),)
    box = oracle.SearchBox(curl, (0,), 1)
    return {
        FlatDiagram: (FlatDiagram(TREFOIL, "t"), E),
        diagram.Region: regions(D)[:2],
        diagram.Arc: arcs(D)[:2],
        diagram.CheckerboardColoring: (checkerboard(D), checkerboard(E)),
        zlinalg.Operation: (zlinalg.Operation("swap_rows", 0, 1),
                            zlinalg.Operation("add_row", 2, 0, -3)),
        zlinalg.E00Decomposition: (reduced, zlinalg.reduce_to_e00(N.entries)),
        zlinalg.SolutionFamily: (family, zlinalg.SolutionFamily(
            family.matrix, family.b, family.particular,
            family.kernel[::-1])),
        zlinalg.EchelonForm: (zlinalg.rref_rational(M.entries),
                              zlinalg.rref_rational(N.entries)),
        solvers.Add1Certificate: (solvers.add1_algebraic(D, SINGLE, 0),
                                  solvers.add1_geometric(D, 1)),
        solvers.PinnedKernelRequest: (solvers.PinnedKernelRequest(1, 2, 3),
                                      solvers.PinnedKernelRequest(
                                          2, 0, -1, SINGLE)),
        solvers.VerificationReport: (
            solvers.verify(D, SINGLE, fam.particular, (1, 0, 0)),
            solvers.verify(D, SINGLE, (0,) * 5, (1, 0, 0))),
        oracle.SearchBox: (box, oracle.SearchBox(curl, (0,), 2, 99)),
        oracle.CrossCheckReport: (
            oracle.cross_check(M.entries, (1, 0, 0), fam, 1),
            oracle.CrossCheckReport(0, ())),
        catalog.CatalogEntry: (catalog_entry("3_1"), catalog_entry("4_1")),
        incidence.RegionChoiceMatrix: (M, N),
    }


SAMPLES = samples()


def values(record):
    """The field values of a record or of its twin."""
    return tuple(getattr(record, f) for f in record.__match_args__)


def error(call) -> tuple[type, str]:
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


def test_every_record_class_has_samples():
    assert len(records()) == 15
    assert set(records()) == set(SAMPLES)
    for cls, (one, two) in SAMPLES.items():
        assert type(one) is cls and type(two) is cls
        assert values(one) != values(two), cls


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_behaves_as_its_frozen_dataclass_twin(cls):
    Twin = twin(cls)
    fields = tuple(f.name for f in dataclasses.fields(Twin))
    assert cls._fields == cls.__match_args__ == Twin.__match_args__ == fields
    one, two = SAMPLES[cls]
    for record in (one, two):
        args = values(record)
        mine, theirs = cls(*args), Twin(*args)
        # equality within the class, and none with another class
        assert mine == record and not mine != record
        assert theirs == Twin(*args)
        assert mine.__eq__(theirs) is NotImplemented
        assert theirs.__eq__(mine) is NotImplemented
        assert mine != theirs and not mine == theirs
        # another record class with the same fields and values
        cousin = type("Cousin", (_Record,), {
            "__annotations__": dict(cls.__annotations__)})(*args)
        assert values(cousin) == args and hash(cousin) == hash(mine)
        assert mine.__eq__(cousin) is NotImplemented
        assert mine != cousin and not mine == cousin
        assert hash(mine) == hash(theirs) == hash(record)
        assert repr(mine) == repr(theirs)
        # by keyword, in any order, and with each default left out
        kwargs = dict(zip(fields, args))
        assert cls(**dict(reversed(kwargs.items()))) == mine
        defaults = [f.name for f in dataclasses.fields(Twin)
                    if f.default is not dataclasses.MISSING]
        short = {k: v for k, v in kwargs.items() if k not in defaults}
        assert values(cls(**short)) == values(Twin(**short))
        # immutable, with the dataclass's message; its FrozenInstanceError
        # is an AttributeError, which the record raises
        for name in (*fields, "other"):
            for change in (lambda x: setattr(x, name, 0),
                           lambda x: delattr(x, name)):
                kind, message = error(lambda: change(mine))
                theirs_kind, theirs_message = error(lambda: change(theirs))
                assert kind is AttributeError
                assert issubclass(theirs_kind, AttributeError)
                assert message == theirs_message
        assert values(mine) == args
        # the constructor's errors: missing, extra, unknown, repeated
        for call in (lambda c: c(), lambda c: c(*args, 0),
                     lambda c: c(*args, other=0),
                     lambda c: c(*args, **{fields[0]: args[0]})):
            got = error(lambda: call(cls))
            assert got == error(lambda: call(Twin))
            assert got[0] is TypeError and f"{cls.__name__}.__init__" in got[1]
        # copies
        for back in (copy.copy(mine), pickle.loads(pickle.dumps(mine))):
            assert type(back) is cls and back == mine
            assert hash(back) == hash(mine) and repr(back) == repr(mine)
    assert (one == two) is (Twin(*values(one)) == Twin(*values(two))) is False
    assert (one != two) is (Twin(*values(one)) != Twin(*values(two))) is True


def test_structural_pattern_matching_reads_the_fields():
    match catalog_entry("3_1"):
        case catalog.CatalogEntry(name, FlatDiagram(crossings)):
            assert name == "3_1" and len(crossings) == 3
        case _:
            pytest.fail("no match")


def test_a_diagram_copy_rebuilds_its_tables():
    D = parse_flat_pd(json.dumps({"crossings": TREFOIL, "name": "t"}))
    assert D.crossings == TREFOIL and all(type(c) is tuple
                                          for c in D.crossings)
    for back in (copy.copy(D), copy.deepcopy(D), pickle.loads(
            pickle.dumps(D))):
        assert back == D and back is not D
        assert hash(back) == hash(D) == hash((TREFOIL, "t"))
        assert (back._mate, back._faces, back._region) == (
            D._mate, D._faces, D._region)
    assert FlatDiagram(TREFOIL).name is None
    assert hash(FlatDiagram(TREFOIL)) == hash((TREFOIL, None))


def test_a_pickled_diagram_hashes_in_the_process_that_loads_it():
    # str hashes are salted per process, so a hash cached in one process
    # is wrong in another; the child runs under other hash seeds
    D = catalog_entry("5_2").diagram
    blob = pickle.dumps([D, FlatDiagram(TREFOIL, "t")]).hex()
    script = (
        "import pickle, sys\n"
        "from regionchoice.diagram import FlatDiagram, arcs\n"
        "ds = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
        "for d in ds:\n"
        "    assert hash(d) == hash((d.crossings, d.name))\n"
        "    fresh = FlatDiagram(d.crossings, d.name)\n"
        "    assert d == fresh and hash(d) == hash(fresh)\n"
        "    assert arcs(d) == arcs(fresh) and {d: 1}[fresh] == 1\n"
        "print(hash('5_2'))\n")
    seen = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(ROOT / "src"))
        child = subprocess.run([sys.executable, "-c", script], input=blob,
                               capture_output=True, text=True, env=env,
                               timeout=120)
        assert child.returncode == 0, child.stderr
        seen.add(child.stdout)
    assert len(seen) == 2      # the seeds salt str hashes differently
