"""The four workloads: input generation, timed operations and their checks.

A workload yields *rounds*.  A round holds one list of operations per size
class; the runner interleaves the classes one operation at a time, so every
class gets the same number of operations and, with three classes, the median
falls in the middle class and the 90th percentile in the largest.  Runs stop
only at the end of a round.

Diagrams of an exact crossing count come from ``random_diagram`` grown to at
most the target, topped up with curls (R1 kinks) at seeded places.  The kinks
are added by ``add_kinks`` below, not by the library, so the inputs of
``solve_fresh`` can be made fresh for every operation without library calls
between operations.

Every operation calls the library through module attributes
(``solvers.solve``), so the traced run sees the wrapped functions.
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable

import reference as ref
import tracing
from reference import CheckFailed, Reference, expect

SINGLE, DOUBLE = "single", "double"

SOLVE_SIZES = (17, 34, 65)
SOLVE_BASES = 6              # random_diagram bases per solve_fresh class
# a diagram of n crossings gets 5n + 4 queries; 4 x 44, 2 x 89 and 1 x 179
# give the three classes about the same number of operations per round
SWEEP_SIZES = (8, 17, 35)
SWEEP_COPIES = (4, 2, 1)
SWEEP_ROUNDS = 12            # rounds of diagrams generated at set-up
GROW_MOVES = (11, 21, 43)
CLI_SIZES = (None, 9, 17)    # None: the shipped catalog
CLI_FILES = 4                # generated files per CLI file class
CLI_KINDS = ("solve", "solve_min", "solve_mod2", "add1_alg", "add1_geo",
             "matrix", "rref", "validate", "regions", "checkerboard")
CHILD_TIMEOUT_S = 60

WORKLOADS = ("solve_fresh", "family_sweep", "grow_diagrams", "cli_calls")


@dataclass
class Op:
    """One request from the caller; ``key`` names the input diagram."""

    cls: int
    call: Callable[[], Any]
    check: Callable[[Any], None]
    key: Any = None


# ---------------------------------------------------------------------------
# input generation (runs inside the timed set-up)


def _rng(*parts) -> random.Random:
    return random.Random("-".join(map(str, parts)))


def add_kinks(crossings, rng: random.Random, count: int):
    """Insert ``count`` curls on seeded arcs and sides; labels renumbered
    1..2n in order of first appearance, as the library numbers them."""
    cr = [list(tup) for tup in crossings]
    darts: dict[int, list[tuple[int, int]]] = {}
    for c, tup in enumerate(cr):
        for s, label in enumerate(tup):
            darts.setdefault(label, []).append((c, s))
    live = sorted(darts)
    top = live[-1]
    for _ in range(count):
        label = live.pop(rng.randrange(len(live)))
        (c1, s1), (c2, s2) = sorted(darts.pop(label))
        p, q, loop = top + 1, top + 2, top + 3
        top += 3
        m = len(cr)
        cr[c1][s1], cr[c2][s2] = p, q
        if rng.random() < 0.5:
            cr.append([p, q, loop, loop])
            darts[q], darts[loop] = [(c2, s2), (m, 1)], [(m, 2), (m, 3)]
        else:
            cr.append([p, loop, loop, q])
            darts[q], darts[loop] = [(c2, s2), (m, 3)], [(m, 1), (m, 2)]
        darts[p] = [(c1, s1), (m, 0)]
        live += [p, q, loop]
    new: dict[int, int] = {}
    return [[new.setdefault(label, len(new) + 1) for label in tup]
            for tup in cr]


def _grown(rng: random.Random, target: int):
    """``random_diagram`` with at most ``target - 1`` crossings."""
    from regionchoice import diagram
    grown = diagram.random_diagram(rng.randrange(2 ** 31), (target - 2) // 2)
    return [list(tup) for tup in grown.crossings]


def _exact(rng: random.Random, target: int):
    base = _grown(rng, target)
    return add_kinks(base, rng, target - len(base))


def generate(workload: str, seed: int) -> dict:
    """The inputs a run needs, as plain JSON data."""
    rng = _rng(workload, seed)
    if workload == "solve_fresh":
        return {"bases": [[_grown(rng, t) for _ in range(SOLVE_BASES)]
                          for t in SOLVE_SIZES]}
    if workload == "family_sweep":
        return {"diagrams": [[_exact(rng, t) for _ in range(k * SWEEP_ROUNDS)]
                             for t, k in zip(SWEEP_SIZES, SWEEP_COPIES)]}
    if workload == "grow_diagrams":
        return {}
    if workload == "cli_calls":
        return {"files": [[_exact(rng, t) for _ in range(CLI_FILES)]
                          if t else [] for t in CLI_SIZES]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# workloads


def make(workload: str, seed: int, inputs: dict, workdir: Path):
    if workload == "solve_fresh":
        return SolveFresh(seed, inputs)
    if workload == "family_sweep":
        return FamilySweep(seed, inputs)
    if workload == "grow_diagrams":
        return GrowDiagrams(seed)
    if workload == "cli_calls":
        return CliCalls(seed, inputs, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _lib():
    from regionchoice import diagram, incidence, solvers, zlinalg
    return diagram, incidence, solvers, zlinalg


class SolveFresh:
    """Parse, solve, minimize and verify; a new diagram every operation."""

    classes = SOLVE_SIZES

    def __init__(self, seed: int, inputs: dict) -> None:
        self.seed = seed
        self.bases = inputs["bases"]

    def rounds(self):
        rngs = [_rng("solve_fresh-ops", self.seed, c)
                for c in range(len(self.classes))]
        seen: set = set()
        j = 0
        while True:
            yield [[self._op(c, j, rngs[c], seen)]
                   for c in range(len(self.classes))]
            j += 1

    def _op(self, c: int, j: int, rng: random.Random, seen: set) -> Op:
        base = self.bases[c][j % len(self.bases[c])]
        while True:
            crossings = add_kinks(base, rng, self.classes[c] - len(base))
            key = tuple(map(tuple, crossings))
            if key not in seen:
                seen.add(key)
                break
        name = f"fresh-{self.seed}-{c}-{j}"
        doc = json.dumps({"crossings": crossings, "name": name})
        rule = SINGLE if j % 2 == 0 else DOUBLE
        b = tuple(rng.randint(-9, 9) for _ in crossings)
        r = Reference(crossings)
        diagram, _, solvers, zlinalg = _lib()

        def call():
            d = diagram.parse_flat_pd(doc)
            family = solvers.solve(d, rule, b)
            best = zlinalg.minimize_in_family(family, "Linf")
            return family, best, solvers.verify(d, rule, best, b)

        def check(result):
            family, best, report = result
            a = r.matrix(rule)
            ref.check_solution(a, family.particular, b, "particular")
            ref.check_kernel(a, *family.kernel)
            ref.check_minimized(a, best, family.particular, b)
            expect(report.passed and not any(report.residual),
                   "verify rejected the minimized member")

        return Op(c, call, check, key=(name, key))


class FamilySweep:
    """Every query of the solution family, in a fixed order, per diagram."""

    classes = SWEEP_SIZES

    def __init__(self, seed: int, inputs: dict) -> None:
        self.seed = seed
        self.diagrams = inputs["diagrams"]

    def rounds(self):
        diagram = _lib()[0]
        for r in range(SWEEP_ROUNDS):
            rnd = []
            for c, k in enumerate(SWEEP_COPIES):
                ops = []
                for i in range(r * k, (r + 1) * k):
                    crossings = self.diagrams[c][i]
                    d = diagram.parse_flat_pd(json.dumps(
                        {"crossings": crossings,
                         "name": f"sweep-{self.seed}-{c}-{i}"}))
                    ops += self._queries(c, d, Reference(crossings),
                                         _rng("family_sweep-ops", self.seed,
                                              c, i))
                rnd.append(ops)
            yield rnd

    def _queries(self, c, d, r: Reference, rng) -> list[Op]:
        _, incidence, solvers, zlinalg = _lib()
        n = r.n
        ops = []
        for rule in (SINGLE, DOUBLE):
            for v in range(n):
                ops.append(Op(c, _late(solvers, "add1_algebraic", d, rule, v),
                              partial(_check_cert, r.matrix(rule), v)))
        for v in range(n):
            ops.append(Op(c, _late(solvers, "add1_geometric", d, v),
                          partial(_check_cert, r.double, v)))
        for label, sides in r.sides.items():
            rule = SINGLE if label % 2 else DOUBLE
            pins = (rng.randint(-3, 3), rng.randint(-3, 3))
            request = solvers.PinnedKernelRequest(label, *pins, rule)
            ops.append(Op(c, _late(solvers, "pinned_kernel", d, request),
                          partial(_check_pinned, r.matrix(rule), sides, pins)))
        b = tuple(rng.randint(-9, 9) for _ in range(n))
        ops.append(Op(c, _late(solvers, "solve_single_via_double", d, b),
                      lambda u: ref.check_solution(r.single, u, b,
                                                   "two-path single rule")))
        for rule in (SINGLE, DOUBLE):
            ops.append(Op(c, _late(solvers, "arc_unimodularity_report", d,
                                rule),
                          partial(_check_arc_report, r)))
        target = tuple(rng.randint(-9, 9) for _ in range(n))
        ops.append(Op(
            c, lambda: zlinalg.rref_rational(
                incidence.build_matrix(d, SINGLE).entries),
            lambda e: ref.check_echelon(r.single, e.pivot_cols, e.coeffs,
                                        e.b_coeffs, target)))
        return ops


def _late(module, name: str, *args):
    """Call ``module.name`` as bound when the operation runs, so the traced
    run reaches the wrapper (``partial`` would keep the original)."""
    return lambda: getattr(module, name)(*args)


def _check_cert(matrix, v, cert) -> None:
    ref.check_add1(matrix, cert.assignment, v)


def _check_pinned(matrix, sides, pins, u) -> None:
    expect(not any(ref.product(matrix, u)), "pinned vector outside the kernel")
    expect((u[sides[0]], u[sides[1]]) == pins, "pinned values not met")


def _check_arc_report(r: Reference, report) -> None:
    expect(report == {label: 1 for label in r.sides},
           "an arc's kernel restriction is not unimodular")


class GrowDiagrams:
    """random_diagram, a flat-PD round trip and the cheap derived data."""

    classes = GROW_MOVES

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rounds(self):
        j = 0
        while True:
            yield [[self._op(c, j)] for c in range(len(self.classes))]
            j += 1

    def _op(self, c: int, j: int) -> Op:
        diagram, incidence, solvers, _ = _lib()
        moves = self.classes[c]
        # distinct for every (class, j): no two operations share a diagram
        seed = (self.seed * len(self.classes) + c) * 1_000_000 + j
        rng = _rng("grow_diagrams-ops", seed)
        bits = [rng.randrange(2) for _ in range(2 + 2 * moves)]

        def call():
            d = diagram.random_diagram(seed, moves)
            back = diagram.parse_flat_pd(diagram.to_flat_pd(d))
            b = tuple(bits[:back.crossing_count])
            return (d, back, diagram.regions(back), diagram.arcs(back),
                    diagram.checkerboard(back),
                    diagram.reducible_crossings(back),
                    incidence.build_matrix(back, SINGLE),
                    incidence.build_matrix(back, DOUBLE), b,
                    solvers.solve_mod2(back, b))

        def check(result):
            (d, back, regions, arcs, coloring, reducible, single, double,
             b, chosen) = result
            expect(d.name == f"random-{seed}-{moves}", f"name {d.name!r}")
            expect(back.crossings == d.crossings and back.name == d.name,
                   "flat-PD round trip changed the diagram")
            r = Reference(d.crossings)
            expect(tuple(reg.corners for reg in regions) == r.faces,
                   "regions differ from the reference faces")
            expect({a.label: a.sides for a in arcs} == r.sides,
                   "arc sides differ from the reference")
            ref.check_coloring(r, coloring.signs)
            expect(reducible == r.reducible, "reducible crossings differ")
            expect(single.entries == r.single and double.entries == r.double,
                   "region choice matrix differs from the reference")
            ref.check_mod2(r.single, chosen, b)

        return Op(c, call, check, key=(seed, f"random-{seed}-{moves}"))


# ---------------------------------------------------------------------------
# CLI calls


def run_child(argv, cwd: Path, env: dict, out: Path):
    """Run one child to completion; returns (exit code, stdout, rusage).

    Output goes to a file so the child never blocks on a pipe, and the child
    is reaped with ``wait4`` for its own CPU time and peak RSS.
    """
    with open(out, "wb") as sink:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=sink,
                                stderr=subprocess.DEVNULL)
    pidfd = os.pidfd_open(proc.pid)
    try:
        if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.read_text(), usage


class ChildTraces:
    """Traced CLI children: each writes its spans to a file of its own."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.child_script = Path(__file__).resolve().parent / "cli_child.py"
        self.active = False
        self.count = 0

    def install(self, klass: int = 0) -> None:
        self.active = True

    def uninstall(self) -> None:
        self.active = False

    def next_file(self) -> Path:
        self.count += 1
        return self.workdir / f"trace-{self.count}.json"

    def raw(self) -> dict:
        raw = tracing.empty_raw()
        for i in range(1, self.count + 1):
            path = self.workdir / f"trace-{i}.json"
            if path.exists():
                tracing.merge(raw, json.loads(path.read_text()))
        return raw


class CliCalls:
    """One ``python -m regionchoice.cli`` child per operation."""

    classes = CLI_SIZES

    def __init__(self, seed: int, inputs: dict, workdir: Path) -> None:
        from regionchoice.catalog import names
        self.seed = seed
        self.workdir = workdir
        self.root = Path(__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.catalog = names()
        self.files = []
        for c, docs in enumerate(inputs["files"]):
            paths = []
            for i, crossings in enumerate(docs):
                path = workdir / f"cli-{seed}-{c}-{i}.json"
                path.write_text(json.dumps(
                    {"crossings": crossings, "name": path.stem}))
                paths.append(path)
            self.files.append(paths)
        self.traces = None    # a ChildTraces while the traced run is active
        self.max_rss_kb = 0   # largest child over the first operations
        self.rss_frozen = False
        self.cpu_s: list[float] = []

    def rounds(self):
        rngs = [_rng("cli_calls-ops", self.seed, c)
                for c in range(len(self.classes))]
        order: list[list[str]] = [[] for _ in self.classes]
        j = 0
        while True:
            rnd = []
            for c in range(len(self.classes)):
                if not order[c]:
                    order[c] = rngs[c].sample(CLI_KINDS, len(CLI_KINDS))
                rnd.append([self._op(c, j, order[c].pop(), rngs[c])])
            yield rnd
            j += 1

    def _source(self, c: int, rng: random.Random):
        from regionchoice.catalog import catalog_entry
        diagram = _lib()[0]
        if self.classes[c] is None:
            name = rng.choice(self.catalog)
            d = catalog_entry(name).diagram
            return ["--diagram", name], d, name
        path = rng.choice(self.files[c])
        return ["--file", str(path)], diagram.parse_flat_pd(
            path.read_text()), None

    def _op(self, c: int, j: int, kind: str, rng: random.Random) -> Op:
        source, d, name = self._source(c, rng)
        n = d.crossing_count
        rule = rng.choice((SINGLE, DOUBLE))
        b = [rng.randint(-9, 9) for _ in range(n)]
        bits = [rng.randrange(2) for _ in range(n)]
        v = rng.randrange(n)
        labels = ["--reference-labels"] if name else []
        csv = ",".join(map(str, b))   # "--b=" form: values may start with "-"
        args = {
            "solve": ["solve", *source, "--rule", rule, f"--b={csv}"],
            "solve_min": ["solve", *source, "--rule", rule, f"--b={csv}",
                          "--minimize", "Linf"],
            "solve_mod2": ["solve", *source,
                           "--b=" + ",".join(map(str, bits)), "--mod2"],
            "add1_alg": ["add1", *source, "--crossing", f"v{v + 1}",
                         "--rule", rule, "--path", "algebraic"],
            "add1_geo": ["add1", *source, "--crossing", f"v{v + 1}",
                         "--rule", DOUBLE, "--path", "geometric"],
            "matrix": ["matrix", *source, "--rule", rule, *labels],
            "rref": ["rref", *source, *labels],
            "validate": ["validate", *source],
            "regions": ["regions", *source],
            "checkerboard": ["checkerboard", *source],
        }[kind] + ["--format", "json"]
        out = self.workdir / "stdout.txt"

        def call():
            traces = self.traces
            if traces is not None and traces.active:
                argv = [sys.executable, str(traces.child_script),
                        str(traces.next_file()), str(c), *args]
            else:
                argv = [sys.executable, "-m", "regionchoice.cli", *args]
            code, text, usage = run_child(argv, self.root, self.env, out)
            if not self.rss_frozen:
                self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
            if traces is None or not traces.active:
                self.cpu_s.append(usage.ru_utime + usage.ru_stime)
            return code, text

        def check(result):
            code, text = result
            expect(code == 0, f"{' '.join(args)}: exit {code}")
            _check_cli(kind, json.loads(text), d, name, rule, tuple(b),
                       tuple(bits), v)

        return Op(c, call, check, key=tuple(args))


def _check_cli(kind, out, d, name, rule, b, bits, v) -> None:
    """The child's answer equals the in-process call and passes the
    reference checks."""
    from regionchoice import zlinalg
    from regionchoice.catalog import catalog_entry
    diagram, incidence, solvers, _ = _lib()
    r = Reference(d.crossings)
    if kind in ("solve", "solve_min"):
        family = solvers.solve(d, rule, b)
        want = (zlinalg.minimize_in_family(family, "Linf")
                if kind == "solve_min" else family.particular)
        expect(out["verified"] is True, "CLI did not verify its solution")
        expect(out["solution"] == list(want), "solution differs in-process")
        expect(out["kernel_basis"] == [list(k) for k in family.kernel],
               "kernel basis differs in-process")
        ref.check_solution(r.matrix(rule), out["solution"], b, "CLI solve")
        ref.check_kernel(r.matrix(rule), *out["kernel_basis"])
        if kind == "solve_min":
            ref.check_minimized(r.matrix(rule), out["solution"],
                                family.particular, b)
    elif kind == "solve_mod2":
        chosen = solvers.solve_mod2(d, bits)
        expect(out["verified"] is True, "CLI did not verify its mod-2 answer")
        expect(out["regions"] == [f"r{x + 1}" for x in chosen],
               "mod-2 regions differ in-process")
        ref.check_mod2(r.single, chosen, bits)
    elif kind in ("add1_alg", "add1_geo"):
        cert = (solvers.add1_algebraic(d, rule, v) if kind == "add1_alg"
                else solvers.add1_geometric(d, v))
        expect(out["verified"] is True, "CLI did not verify its add-1")
        expect(out["assignment"] == list(cert.assignment),
               "add-1 assignment differs in-process")
        ref.check_add1(r.matrix(cert.rule), out["assignment"], v)
    elif kind == "matrix":
        want = (catalog_entry(name).matrix(rule) if name
                else incidence.build_matrix(d, rule)).entries
        expect(out["entries"] == [list(row) for row in want],
               "matrix differs in-process")
        if not name:
            expect(tuple(map(tuple, out["entries"])) == r.matrix(rule),
                   "matrix differs from the reference")
    elif kind == "rref":
        matrix = (catalog_entry(name).matrix(SINGLE) if name
                  else incidence.build_matrix(d, SINGLE)).entries
        echelon = zlinalg.rref_rational(matrix)
        coeffs = [[Fraction(x) for x in row] for row in out["coeffs"]]
        b_coeffs = [[Fraction(x) for x in row] for row in out["b_coeffs"]]
        expect(out["pivot_cols"] == list(echelon.pivot_cols)
               and coeffs == [list(row) for row in echelon.coeffs]
               and b_coeffs == [list(row) for row in echelon.b_coeffs],
               "echelon form differs in-process")
        ref.check_echelon(matrix, out["pivot_cols"], coeffs, b_coeffs, b)
    elif kind == "validate":
        expect(out["valid"] is True and out["crossings"] == r.n
               and out["regions"] == r.n + 2, "validate output is wrong")
    elif kind == "regions":
        got = tuple(tuple(map(tuple, reg["corners"]))
                    for reg in out["regions"])
        expect(got == tuple(reg.corners for reg in diagram.regions(d))
               and got == r.faces, "regions differ")
    elif kind == "checkerboard":
        expect(out["signs"] == list(diagram.checkerboard(d).signs),
               "coloring differs in-process")
        ref.check_coloring(r, out["signs"])
    else:
        raise CheckFailed(f"unknown kind {kind}")
