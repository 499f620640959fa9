"""Flat knot projections and the integral region choice problem.

The package models flat projections as combinatorial maps, builds the
region choice matrices for the single and double counting rules, solves
the associated integer linear systems exactly, and verifies the solvers
against brute-force enumeration on small instances.
"""

from .catalog import CatalogEntry, CatalogError, catalog_entry, names
from .diagram import (Arc, CheckerboardColoring, D0, DiagramError,
                      FlatDiagram, InternalInvariantError, Region, apply_r1,
                      apply_r2, arcs, arc_by_label, checkerboard,
                      component_count, is_knot, parse_flat_pd,
                      random_diagram, reducible_crossings, regions, to_dot,
                      to_flat_pd)
from .incidence import (DOUBLE, SINGLE, RegionChoiceMatrix, apply,
                        build_matrix, mod2, render_text, residual)
from .oracle import (BudgetExceeded, CrossCheckReport, OracleMismatch,
                     SearchBox, brute_solutions, cross_check)
from .solvers import (ALGEBRAIC, Add1Certificate, GEOMETRIC,
                      PinnedKernelRequest, VerificationReport,
                      add1_algebraic, add1_geometric,
                      arc_unimodularity_report, kernel_basis, pinned_kernel,
                      solve, solve_mod2, solve_single_via_double, verify)
from .zlinalg import (E00Decomposition, EchelonForm, NotE00Error, Operation,
                      SolutionFamily, minimize_in_family, reduce_to_e00,
                      replay, rref_rational, solve_pinned)

__version__ = "0.1.0"
