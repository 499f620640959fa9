"""regionchoice benchmark: one workload per run, closed loop, one caller.

Usage, from the root of a checkout (nothing needs installing or building):

    python3 bench/run.py --workload solve_fresh --seed 1 --seconds 20 --trace 0

and all four workloads in one go:

    for w in solve_fresh family_sweep grow_diagrams cli_calls; do
        python3 bench/run.py --workload $w --seed 1 --seconds 20; done

Workloads (why each is here is in BENCHMARK.json):

* ``solve_fresh``: parse, solve, minimize and verify a diagram never seen
  before in the process (n = 17 / 34 / 65);
* ``family_sweep``: every add-1, pinned-kernel and report query on one
  diagram after another (n = 8 / 17 / 35);
* ``grow_diagrams``: ``random_diagram`` plus the cheap derived data
  (11 / 21 / 43 moves);
* ``cli_calls``: one ``python -m regionchoice.cli`` child per operation.

The caller runs operations back to back from one process and one thread (the
machine it was written for has 2 cores, shared); at most one child process
exists at a time.  Set-up (package import plus input generation) runs
``SETUP_REPS`` times, each in a fresh interpreter, and ``setup_s`` is the
median.  The run then measures operations until their summed time reaches
``--seconds`` and at least ``MIN_OPS`` were attempted, stopping at the end of
a round.  Each answer is checked against the benchmark's own reference
outside the timed region; a wrong answer, an exception or a nonzero CLI exit
counts as a failed operation and the run goes on.

Times are reported at a reference machine speed: each wall time is scaled by
a fixed calibration loop timed next to it (see ``speed.py``), because the
shared machine's speed drifts by tens of percent over minutes.  The raw wall
times are printed in the readable report as well.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps every public
layer function on every other step and reports the per-layer metrics.  The
last line of standard output is the JSON result; the lines before it are a
readable report with the run metadata and per-class counters.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import tracing
import workloads
from speed import SpeedGauge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 5
MIN_OPS = 150          # p90 then has at least fifteen samples beyond it
PROBE_REPS = 5         # bare and importing interpreters for cli.*_ms
SETUP_TIMEOUT_S = 120


class Record(NamedTuple):
    """One operation: wall time, its speed scale, and what went wrong."""

    cls: int
    wall_s: float
    scale: float
    error: str | None
    traced: bool

    @property
    def latency(self) -> float:
        """Wall time at reference machine speed."""
        return self.wall_s * self.scale


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_setup(workload: str, seed: int, gauge: SpeedGauge):
    """Median set-up time over fresh interpreters, at reference speed, and
    the inputs they made."""
    times, walls, payloads = [], [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py"), workload,
             str(seed)], cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=SETUP_TIMEOUT_S, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        walls.append(result["import_s"] + result["generate_s"])
        times.append(walls[-1] * gauge.scale_for(result["loop_s"]))
        payloads.append(result["inputs"])
    if any(p != payloads[0] for p in payloads):
        raise RuntimeError("set-up generated different inputs for one seed")
    return statistics.median(times), statistics.median(walls), payloads[0]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_loop(workload, seconds: float, tracer, gauge: SpeedGauge):
    """Closed loop over the workload's rounds.

    Returns one ``Record`` per operation and the peak RSS in KiB after the
    first ``MIN_OPS`` operations, which does not depend on how fast the run
    goes.
    """
    records = []
    measured = 0.0
    step = 0
    rss_kb = None
    errors_shown = 0
    for rnd in workload.rounds():
        for ops in zip_longest(*rnd):
            traced = tracer is not None and step % 2 == 1
            step += 1
            for op in ops:
                if op is None:
                    continue
                scale = gauge.scale()
                if traced:
                    tracer.install(op.cls)
                start = perf_counter()
                try:
                    result = op.call()
                except Exception as exc:   # a failed op; the run goes on
                    wall = perf_counter() - start
                    error = f"{type(exc).__name__}: {exc}"
                else:
                    wall = perf_counter() - start
                    error = None
                finally:
                    if traced:
                        tracer.uninstall()
                if error is None:
                    try:
                        op.check(result)
                    except Exception as exc:
                        error = f"wrong answer: {type(exc).__name__}: {exc}"
                    result = None
                if error is not None and errors_shown < 5:
                    errors_shown += 1
                    print(f"op {len(records)} (class {op.cls}) failed: "
                          f"{error}", file=sys.stderr)
                records.append(Record(op.cls, wall, scale, error, traced))
                measured += wall
                if len(records) == MIN_OPS:
                    rss_kb = workload_rss_kb(workload)
        if measured >= seconds and len(records) >= MIN_OPS:
            break
    if rss_kb is None:
        rss_kb = workload_rss_kb(workload)
    return records, rss_kb


def workload_rss_kb(workload) -> int:
    """Peak RSS of the process that ran the work: the largest CLI child for
    cli_calls, this process otherwise (Linux reports KiB)."""
    if isinstance(workload, workloads.CliCalls):
        workload.rss_frozen = True
        return workload.max_rss_kb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def end_to_end(records, setup_s: float, rss_kb: int, raw: bool = False):
    """The end-to-end metrics; ``raw`` uses wall times as measured."""
    times = [r.wall_s if raw else r.latency for r in records]
    # a failed operation misses any latency limit
    latencies = [t if r.error is None else math.inf
                 for t, r in zip(times, records)]
    ok = sum(1 for r in records if r.error is None)

    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(ok / sum(times), "1/s"),
        "op_p50_ms": metric(1000 * percentile(latencies, 0.50), "ms"),
        "op_p90_ms": metric(1000 * percentile(latencies, 0.90), "ms"),
        "op_fail_frac": metric((len(records) - ok) / len(records), "ratio"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }


def interpreter_probes() -> dict:
    """Wall time of a bare interpreter and of one importing the CLI module,
    alternated; the medians give the start-up floor and the import cost."""
    env = child_env()
    bare, imported = [], []
    for _ in range(PROBE_REPS):
        for code, into in (("pass", bare), ("import regionchoice.cli", imported)):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           check=True, timeout=SETUP_TIMEOUT_S)
            into.append(perf_counter() - start)
    interp = statistics.median(bare)
    return {"cli.interp_ms": 1000 * interp,
            "cli.import_ms": 1000 * (statistics.median(imported) - interp)}


def per_layer(workload, tracer, records) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run (span times are raw wall times)
    and the per-class counters."""
    traced = [r.latency for r in records if r.traced]
    plain = [r.latency for r in records if not r.traced]
    extra = {"trace_overhead_frac":
             statistics.fmean(traced) / statistics.fmean(plain) - 1}
    if isinstance(workload, workloads.CliCalls):
        extra.update(interpreter_probes())
        extra["cli.child_cpu_ms"] = 1000 * statistics.median(workload.cpu_s)
    raw = tracer.raw()
    return tracing.per_layer_metrics(raw, len(traced), extra), raw["by_class"]


def report(args, workload, records, metrics, by_class, gauge) -> None:
    """The readable part of the output: metadata, classes, metrics."""
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    print(f"regionchoice benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"python {platform.python_version()}  nproc {nproc}  "
          f"{platform.platform()}")
    scale = statistics.median(r.scale for r in records)
    print(f"speed scale to reference: median {scale:.3f} over "
          f"{len(gauge.samples)} calibration loops (times below are at "
          "reference speed)")
    print(f"{'class':>5} {'size':>7} {'ops':>5} {'failed':>6} "
          f"{'p50_ms':>9} {'p90_ms':>9}")
    for c, size in enumerate(workload.classes):
        mine = [r for r in records if r.cls == c]
        lats = [r.latency for r in mine]
        failed = sum(1 for r in mine if r.error)
        print(f"{c:>5} {size or 'catalog':>7} {len(mine):>5} {failed:>6} "
              f"{1000 * percentile(lats, 0.5):>9.3f} "
              f"{1000 * percentile(lats, 0.9):>9.3f}")
    for c, totals in sorted(by_class.items()):
        reductions = totals.get("reductions", 0)
        matrices = totals.get("matrices", 0)
        print(f"class {c}: reductions {reductions}, op-log length "
              f"{totals.get('log_ops', 0) / max(reductions, 1):.1f}/reduction, "
              f"max entry bits {totals.get('max_bits', 0)}, nnz "
              f"{totals.get('nnz', 0) / max(matrices, 1):.1f}/matrix")
    samples = sum(1 for r in records if r.traced == bool(args.trace))
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']:<14} "
              f"n={samples}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "regionchoice" / "__init__.py").is_file():
        print(f"error: {SRC}/regionchoice not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    gauge = SpeedGauge()
    setup_s, setup_wall_s, inputs = run_setup(args.workload, args.seed, gauge)
    sys.path.insert(0, str(SRC))
    workdir = Path(tempfile.mkdtemp(prefix="cli-work-", dir=BENCH))
    try:
        workload = workloads.make(args.workload, args.seed, inputs, workdir)
        tracer = None
        if args.trace and args.workload == "cli_calls":
            tracer = workload.traces = workloads.ChildTraces(workdir)
        elif args.trace:
            tracer = tracing.Tracer()
        records, rss_kb = run_loop(workload, args.seconds, tracer, gauge)
        by_class: dict = {}
        if args.trace:
            metrics, by_class = per_layer(workload, tracer, records)
        else:
            metrics = end_to_end(records, setup_s, rss_kb)
        report(args, workload, records, metrics, by_class, gauge)
        if not args.trace:
            print("as measured, wall time:")
            for name, m in end_to_end(records, setup_wall_s, rss_kb,
                                      raw=True).items():
                print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for r in records if r.error is not None)
    if not args.trace:
        del metrics["op_fail_frac"]   # 0 when healthy; reported above only
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
