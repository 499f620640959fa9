"""Per-layer spans for the traced run, recorded from outside the package.

Every public function of a layer module is replaced, in every package
namespace that binds it, by a wrapper that counts calls and records total time
and self time (total minus the time of wrapped calls made inside it).  A name
bound by ``from .diagram import regions`` lives in the importing module's
namespace too, so each binding is patched; otherwise calls made through it
would be lost.  ``install`` and ``uninstall`` swap the bindings, so untraced
operations run the library exactly as shipped.

Bookkeeping done after a call (matrix statistics) is timed and removed from
every enclosing span, so it shows only in ``trace_overhead_frac``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from time import perf_counter

PACKAGE = "regionchoice"
# oracle is left out on purpose: tests only, exponential, on no user path
LAYERS = ("diagram", "incidence", "zlinalg", "solvers", "catalog", "cli")
# the public lru_cache functions of the diagram module
CACHED = ("regions", "arcs", "component_count", "checkerboard")

# functions whose calls and self time are reported; the solvers entry points
# and cli.main also report total time
REPORTED = {
    "diagram": ("parse_flat_pd", "to_flat_pd", "random_diagram", "apply_r1",
                "apply_r2", "regions", "arcs", "arc_by_label", "checkerboard",
                "component_count", "reducible_crossings", "splice"),
    "incidence": ("build_matrix", "apply", "residual", "mod2",
                  "rule_gap_columns"),
    "zlinalg": ("reduce_to_e00", "solve_integral", "solve_with_decomposition",
                "kernel_basis", "minimize_in_family", "solve_gf2",
                "rref_rational"),
    "solvers": ("solve", "kernel_basis", "pinned_kernel",
                "arc_unimodularity_report", "add1_algebraic", "add1_geometric",
                "solve_single_via_double", "solve_mod2", "verify"),
    "catalog": ("catalog_entry", "match_labeling"),
    "cli": ("main",),
}
WITH_TOTAL = ("solvers", "cli")

# (name, unit, better) for the counters that are not per-function spans
DERIVED = (
    ("zlinalg.reduce_to_e00.log_ops", "ops/reduction", "lower"),
    ("zlinalg.max_entry_bits", "bits", "lower"),
    ("zlinalg.reductions_per_matrix", "ratio", "lower"),
    ("incidence.nnz", "nnz/matrix", "lower"),
    ("diagram.cache_hit_ratio", "ratio", "higher"),
    ("diagram.cache_entries", "count", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.interp_ms", "ms", "lower"),
    ("cli.child_cpu_ms", "ms", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = []
    for layer, functions in REPORTED.items():
        for fn in functions:
            spec.append((f"{layer}.{fn}.calls", "calls/op", "lower"))
            spec.append((f"{layer}.{fn}.self_ms", "ms/op", "lower"))
            if layer in WITH_TOTAL:
                spec.append((f"{layer}.{fn}.total_ms", "ms/op", "lower"))
    return spec + list(DERIVED)


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


def _bits(rows) -> int:
    return max((abs(x) for row in rows for x in row), default=0).bit_length()


class Tracer:
    """Wrappers for every public layer function, and what they recorded."""

    def __init__(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        self.functions: dict[str, list] = {}   # name -> [calls, self_s, total_s]
        self.totals = {"reductions": 0, "log_ops": 0, "matrices": 0, "nnz": 0,
                       "max_bits": 0, "cache_hits": 0, "cache_misses": 0}
        self.by_class: dict[int, dict[str, int]] = {}
        self.klass = 0
        self._distinct: set[int] = set()
        self._stack: list[float] = []
        self._paused = 0.0
        self._cached = [getattr(modules["diagram"], name) for name in CACHED]
        self._cache_mark = (0, 0)
        self.bindings: list[tuple[types.ModuleType, str, object, object]] = []
        hooks = {"zlinalg.reduce_to_e00": self._after_reduce,
                 "incidence.build_matrix": self._after_build}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not _is_function(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, obj, hooks.get(name))
                for ns in namespaces:
                    for bound, value in vars(ns).items():
                        if value is obj:
                            self.bindings.append((ns, bound, obj, wrapper))

    def install(self, klass: int = 0) -> None:
        self.klass = klass
        for ns, bound, _, wrapper in self.bindings:
            setattr(ns, bound, wrapper)
        self._cache_mark = self._cache_counts()

    def uninstall(self) -> None:
        for ns, bound, original, _ in self.bindings:
            setattr(ns, bound, original)
        hits, misses = self._cache_counts()
        self.totals["cache_hits"] += hits - self._cache_mark[0]
        self.totals["cache_misses"] += misses - self._cache_mark[1]

    def _cache_counts(self) -> tuple[int, int]:
        infos = [fn.cache_info() for fn in self._cached]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def cache_entries(self) -> int:
        return sum(fn.cache_info().currsize for fn in self._cached)

    def _wrap(self, name, fn, after):
        record = self.functions.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            paused = self._paused
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start - (self._paused - paused)
                inner = stack.pop()
                record[0] += 1
                record[1] += span - inner
                record[2] += span
                if stack:
                    stack[-1] += span
            if after is not None:
                begin = perf_counter()
                after(args, kwargs, result)
                self._paused += perf_counter() - begin
            return result

        return wrapper

    def _class_totals(self) -> dict[str, int]:
        return self.by_class.setdefault(self.klass, {
            "reductions": 0, "log_ops": 0, "max_bits": 0,
            "matrices": 0, "nnz": 0})

    def _after_reduce(self, args, kwargs, decomp) -> None:
        bits = max(_bits(decomp.p), _bits(decomp.q))
        for totals in (self.totals, self._class_totals()):
            totals["reductions"] += 1
            totals["log_ops"] += len(decomp.log)
            totals["max_bits"] = max(totals["max_bits"], bits)
        self._distinct.add(hash(args[0] if args else kwargs["matrix"]))

    def _after_build(self, args, kwargs, matrix) -> None:
        nnz = sum(1 for row in matrix.entries for x in row if x)
        for totals in (self.totals, self._class_totals()):
            totals["matrices"] += 1
            totals["nnz"] += nnz

    def raw(self) -> dict:
        """Everything recorded, as plain data that ``merge`` can add up."""
        return {"functions": self.functions,
                "totals": dict(self.totals,
                               distinct_matrices=len(self._distinct),
                               cache_entries=self.cache_entries()),
                "by_class": {str(k): v for k, v in self.by_class.items()}}


def empty_raw() -> dict:
    return {"functions": {}, "totals": {}, "by_class": {}}


def _add(into: dict, other: dict) -> None:
    for key, value in other.items():
        if key in ("max_bits", "cache_entries"):
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def merge(into: dict, other: dict) -> None:
    """Add the recordings of another process (a traced CLI child)."""
    for name, (calls, self_s, total_s) in other["functions"].items():
        record = into["functions"].setdefault(name, [0, 0.0, 0.0])
        record[0] += calls
        record[1] += self_s
        record[2] += total_s
    _add(into["totals"], other["totals"])
    for klass, totals in other["by_class"].items():
        _add(into["by_class"].setdefault(klass, {}), totals)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(raw: dict, traced_ops: int, extra: dict) -> dict:
    """The per-layer metrics: per-function figures per traced op, derived
    counters from the totals, and ``extra`` for what was measured outside."""
    functions, totals = raw["functions"], raw["totals"]
    derived_names = {name for name, _, _ in DERIVED}
    values = {}
    for name, unit, _ in per_layer_spec():
        if name in derived_names:
            continue
        function, _, stat = name.rpartition(".")
        calls, self_s, total_s = functions.get(function, (0, 0.0, 0.0))
        value = {"calls": calls, "self_ms": 1000 * self_s,
                 "total_ms": 1000 * total_s}[stat]
        values[name] = {"value": _ratio(value, traced_ops), "unit": unit}
    derived = {
        "zlinalg.reduce_to_e00.log_ops": _ratio(totals.get("log_ops", 0),
                                                totals.get("reductions", 0)),
        "zlinalg.max_entry_bits": totals.get("max_bits", 0),
        "zlinalg.reductions_per_matrix": _ratio(
            totals.get("reductions", 0), totals.get("distinct_matrices", 0)),
        "incidence.nnz": _ratio(totals.get("nnz", 0), totals.get("matrices", 0)),
        "diagram.cache_hit_ratio": _ratio(
            totals.get("cache_hits", 0),
            totals.get("cache_hits", 0) + totals.get("cache_misses", 0)),
        "diagram.cache_entries": totals.get("cache_entries", 0),
        "cli.import_ms": 0.0, "cli.interp_ms": 0.0, "cli.child_cpu_ms": 0.0,
        "trace_overhead_frac": 0.0,
    }
    derived.update(extra)
    for name, unit, _ in DERIVED:
        values[name] = {"value": derived[name], "unit": unit}
    return values
