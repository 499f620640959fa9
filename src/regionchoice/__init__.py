"""Flat knot projections and the integral region choice problem.

The package models flat projections as combinatorial maps, builds the
region choice matrices for the single and double counting rules, solves
the associated integer linear systems exactly, and verifies the solvers
against brute-force enumeration on small instances.

``import regionchoice`` loads only the base layer, ``diagram``.  Every other
name below, and every other layer module, is imported on first access
(PEP 562); the lookup keeps no copy, so each access reads the defining
module's current binding.
"""

from importlib import import_module as _import_module

from .diagram import (Arc, CheckerboardColoring, D0, DiagramError,
                      FlatDiagram, InternalInvariantError, Region, apply_r1,
                      apply_r2, arcs, arc_by_label, checkerboard,
                      component_count, is_knot, parse_flat_pd,
                      random_diagram, reducible_crossings, regions, to_dot,
                      to_flat_pd)

# the re-exported names of every layer but diagram, by defining module
_LAZY = {
    "catalog": ("CatalogEntry", "CatalogError", "catalog_entry", "names"),
    "incidence": ("DOUBLE", "SINGLE", "RegionChoiceMatrix", "apply",
                  "build_matrix", "mod2", "render_text", "residual"),
    "oracle": ("BudgetExceeded", "CrossCheckReport", "OracleMismatch",
               "SearchBox", "brute_solutions", "cross_check"),
    "solvers": ("ALGEBRAIC", "Add1Certificate", "GEOMETRIC",
                "PinnedKernelRequest", "VerificationReport",
                "add1_algebraic", "add1_geometric",
                "arc_unimodularity_report", "kernel_basis", "pinned_kernel",
                "solve", "solve_mod2", "solve_single_via_double", "verify"),
    "zlinalg": ("E00Decomposition", "EchelonForm", "NotE00Error",
                "Operation", "SolutionFamily", "minimize_in_family",
                "reduce_to_e00", "replay", "rref_rational", "solve_pinned"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

# what the imports above bound (the diagram names and the diagram module
# itself), and every lazy name and module
__all__ = sorted([name for name in globals() if not name.startswith("_")]
                 + [*_LAZY, *_HOME])

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _LAZY:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
