"""Tests of the benchmark itself (not part of the library's suite).

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from itertools import islice, zip_longest
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from regionchoice import catalog_entry, diagram, incidence  # noqa: E402

SEED = 5


def ops_of(workload, rounds: int):
    out = []
    for rnd in islice(workload.rounds(), rounds):
        out += [op for step in zip_longest(*rnd) for op in step if op]
    return out


@pytest.fixture(scope="module")
def fresh():
    return workloads.make("solve_fresh", SEED,
                          workloads.generate("solve_fresh", SEED), BENCH)


@pytest.fixture(scope="module")
def sweep():
    return workloads.make("family_sweep", SEED,
                          workloads.generate("family_sweep", SEED), BENCH)


def test_generation_is_deterministic_and_sized():
    one = workloads.generate("family_sweep", 3)
    assert one == workloads.generate("family_sweep", 3)
    assert one != workloads.generate("family_sweep", 4)
    for size, diagrams in zip(workloads.SWEEP_SIZES, one["diagrams"]):
        for crossings in diagrams:
            d = diagram.FlatDiagram(tuple(map(tuple, crossings)))
            assert d.crossing_count == size and diagram.is_knot(d)


def test_no_two_fresh_ops_share_a_diagram(fresh):
    keys = [op.key for op in ops_of(fresh, 150)]
    names = [name for name, _ in keys]
    crossings = [c for _, c in keys]
    assert len(set(names)) == len(names) == 450
    assert len(set(crossings)) == len(crossings)
    for (name, c), size in zip(keys[:3], workloads.SOLVE_SIZES):
        assert len(c) == size


def test_no_two_grow_ops_share_a_diagram():
    grow = workloads.make("grow_diagrams", SEED, {}, BENCH)
    keys = [op.key for op in ops_of(grow, 500)]
    seeds = [seed for seed, _ in keys]
    names = [name for _, name in keys]
    assert len(set(seeds)) == len(seeds) and len(set(names)) == len(names)


def test_every_sweep_class_runs_every_query(sweep):
    rnd = next(sweep.rounds())
    counts = [len(ops) for ops in rnd]
    assert counts == [k * (5 * n + 4) for n, k in
                      zip(workloads.SWEEP_SIZES, workloads.SWEEP_COPIES)]
    assert max(counts) - min(counts) <= 3


def test_checks_reject_wrong_answers(fresh):
    op = ops_of(fresh, 1)[0]
    family, best, report = op.call()
    op.check((family, best, report))
    bad = family.particular[:-1] + (family.particular[-1] + 1,)
    with pytest.raises(reference.CheckFailed):
        op.check((type(family)(family.matrix, family.b, bad, family.kernel),
                  best, report))
    k1, k2 = family.kernel
    with pytest.raises(reference.CheckFailed):
        op.check((type(family)(family.matrix, family.b, family.particular,
                               (k1, tuple(2 * x for x in k2))), best, report))


def test_reference_matches_library_conventions():
    for name in ("example2_4", "3_1", "6_3"):
        d = catalog_entry(name).diagram
        r = reference.Reference(d.crossings)
        assert r.faces == tuple(reg.corners for reg in diagram.regions(d))
        assert r.sides == {a.label: a.sides for a in diagram.arcs(d)}
        assert r.single == incidence.build_matrix(d, "single").entries
        assert r.double == incidence.build_matrix(d, "double").entries


def test_every_binding_is_wrapped():
    tracer = tracing.Tracer()
    wrapped = {id(original) for _, _, original, _ in tracer.bindings}
    tracer.install()
    try:
        for ns, bound, original, wrapper in tracer.bindings:
            assert getattr(ns, bound) is wrapper
        # nothing public from a layer module is left unwrapped anywhere
        for name, mod in sys.modules.items():
            if name.split(".")[0] != tracing.PACKAGE:
                continue
            for bound, value in vars(mod).items():
                assert id(value) not in wrapped, f"{name}.{bound} missed"
    finally:
        tracer.uninstall()
    for ns, bound, original, _ in tracer.bindings:
        assert getattr(ns, bound) is original


# sample arguments for every layer function that another module imports
D = catalog_entry("4_1").diagram
SAMPLE_ARGS = {
    "diagram.regions": (D,), "diagram.arcs": (D,),
    "diagram.checkerboard": (D,), "diagram.is_knot": (D,),
    "diagram.reducible_crossings": (D,), "diagram.arc_by_label": (D, 1),
    "diagram.splice": (D, 0), "diagram.apply_r1": (D, 1, "left"),
    "diagram.parse_flat_pd": ('{"crossings": [[1, 2, 2, 1]]}',),
    "diagram.random_diagram": (3, 2), "diagram.to_dot": (D,),
    "diagram.to_flat_pd": (D,), "incidence.build_matrix": (D, "single"),
    "catalog.catalog_entry": ("3_1",), "catalog.names": (),
}


def test_a_call_through_each_importing_module_is_counted():
    tracer = tracing.Tracer()
    seen_modules = set()
    tracer.install()
    try:
        for ns, bound, original, wrapper in tracer.bindings:
            name = f"{original.__module__.rsplit('.', 1)[1]}.{original.__name__}"
            if ns.__name__ == original.__module__:
                continue
            if ns.__name__ == tracing.PACKAGE and name not in SAMPLE_ARGS:
                continue   # the package re-exports everything; sample some
            assert name in SAMPLE_ARGS, f"{ns.__name__}.{bound}: add sample"
            before = tracer.functions[name][0]
            getattr(ns, bound)(*SAMPLE_ARGS[name])
            assert tracer.functions[name][0] == before + 1, (ns, bound)
            seen_modules.add(ns.__name__)
    finally:
        tracer.uninstall()
    importing = {f"{tracing.PACKAGE}.{m}" for m in
                 ("incidence", "solvers", "catalog", "cli")}
    assert importing | {tracing.PACKAGE} <= seen_modules


@pytest.mark.parametrize("name", ["solve_fresh", "family_sweep",
                                  "grow_diagrams"])
def test_wrapping_leaves_answers_identical(name):
    inputs = workloads.generate(name, SEED)
    plain = [op.call() for op in ops_of(
        workloads.make(name, SEED, inputs, BENCH), 1)][:60]
    tracer = tracing.Tracer()
    traced = []
    for op in ops_of(workloads.make(name, SEED, inputs, BENCH), 1)[:60]:
        tracer.install(op.cls)
        try:
            traced.append(op.call())
        finally:
            tracer.uninstall()
        op.check(traced[-1])
    assert traced == plain
    assert sum(calls for calls, _, _ in tracer.functions.values()) > 0


def test_traced_sweep_counts_every_query(sweep):
    crossings = sweep.diagrams[0][0]
    d = diagram.FlatDiagram(tuple(map(tuple, crossings)))
    n = d.crossing_count
    ops = sweep._queries(0, d, reference.Reference(crossings),
                         workloads._rng("test"))
    tracer = tracing.Tracer()
    for op in ops:
        tracer.install(op.cls)
        try:
            op.check(op.call())
        finally:
            tracer.uninstall()
    calls = {name: rec[0] for name, rec in tracer.functions.items()}
    assert calls["solvers.add1_algebraic"] >= 2 * n
    assert calls["solvers.add1_geometric"] == n
    assert calls["solvers.pinned_kernel"] == 2 * n
    assert calls["solvers.solve_single_via_double"] == 1
    assert calls["solvers.arc_unimodularity_report"] == 2
    assert calls["zlinalg.rref_rational"] == 1


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.per_layer_spec()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert spec["paths"] == ["bench"]
