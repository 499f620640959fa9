"""Command-line interface.

Exit codes: 0 success, 2 input or validation error, 3 reserved (no
subcommand returns it), 4 internal invariant violation.  A closed stdout,
such as a pipe whose reader has gone, ends a command quietly with exit 0.
``solve --mod2`` solves the single rule only, and refuses ``--rule double``
and ``--minimize`` with exit 2.  A call that runs out of memory exits 2.

Only the base layer, ``diagram``, is imported here; each command imports
the layers it runs when it runs, so a call loads nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .diagram import (DiagramError, FlatDiagram, InternalInvariantError,
                      checkerboard, is_knot, parse_flat_pd, random_diagram,
                      regions, to_dot, to_flat_pd)

EXIT_INPUT = 2
EXIT_INVARIANT = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT) -> None:
        super().__init__(message)
        self.code = code


def _load_diagram(args) -> FlatDiagram:
    if bool(args.diagram) == bool(args.file):
        raise CliError("give exactly one of --diagram or --file")
    if args.diagram:
        from .catalog import CatalogError, catalog_entry
        try:
            return catalog_entry(args.diagram).diagram
        except CatalogError as exc:
            raise CliError(str(exc.args[0]))
    try:
        with open(args.file) as handle:
            return parse_flat_pd(handle.read())
    except OSError as exc:
        raise CliError(f"cannot read {args.file}: {exc}")


def _parse_b(text: str, n: int, mod2: bool = False) -> tuple[int, ...]:
    try:
        b = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"cannot parse point vector {text!r}")
    if len(b) != n:
        raise CliError(f"point vector has {len(b)} entries, expected {n}")
    if mod2 and any(x not in (0, 1) for x in b):
        raise CliError("--mod2 expects a vector of bits")
    return b


def _crossing_index(text: str, n: int) -> int:
    raw = text[1:] if text.startswith("v") else text
    try:
        v = int(raw) - 1
    except ValueError:
        raise CliError(f"cannot parse crossing {text!r}")
    if not 0 <= v < n:
        raise CliError(f"no crossing {text!r} (diagram has {n})")
    return v


def _emit(payload: dict, args) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in payload.get("text_lines", []):
            print(line)


def _matrix(args, diagram: FlatDiagram, rule: str):
    """The diagram's matrix, in the catalog's reference labeling if asked."""
    if not args.reference_labels:
        from .incidence import build_matrix
        return build_matrix(diagram, rule)
    if not args.diagram:
        raise CliError("--reference-labels needs --diagram")
    from .catalog import catalog_entry
    return catalog_entry(args.diagram).matrix(rule)


def cmd_matrix(args) -> int:
    from .incidence import render_text
    diagram = _load_diagram(args)
    matrix = _matrix(args, diagram, args.rule)
    _emit({
        "rule": matrix.rule,
        "row_labels": list(matrix.row_labels),
        "col_labels": list(matrix.col_labels),
        "entries": [list(r) for r in matrix.entries],
        "text_lines": render_text(matrix).splitlines(),
    }, args)
    return 0


def cmd_regions(args) -> int:
    diagram = _load_diagram(args)
    regs = regions(diagram)
    lines = [f"{len(regs)} regions"]
    for reg in regs:
        corners = " ".join(f"v{c + 1}.{s}" for c, s in reg.corners)
        lines.append(f"r{reg.index + 1}: {corners}")
    _emit({
        "regions": [{"index": r.index,
                     "corners": [list(c) for c in r.corners]} for r in regs],
        "text_lines": lines,
    }, args)
    return 0


def cmd_validate(args) -> int:
    diagram = _load_diagram(args)
    _emit({"valid": True,
           "crossings": diagram.crossing_count,
           "regions": diagram.region_count,
           "text_lines": [f"valid: {diagram.crossing_count} crossings, "
                          f"{diagram.region_count} regions"]}, args)
    return 0


def cmd_solve(args) -> int:
    from . import incidence, solvers, zlinalg
    if args.mod2 and args.rule == incidence.DOUBLE:
        raise CliError("--mod2 supports the single rule only")
    if args.mod2 and args.minimize:
        raise CliError("--mod2 takes no --minimize")
    diagram = _load_diagram(args)
    n = diagram.crossing_count
    b = _parse_b(args.b, n, mod2=args.mod2)
    if args.mod2:
        chosen = solvers.solve_mod2(diagram, b)
        picked = set(chosen)
        u = tuple(1 if r in picked else 0 for r in range(diagram.region_count))
        report = solvers.verify(diagram, incidence.SINGLE, u, b)
        res = tuple(x % 2 for x in report.residual)
        ok = not any(res)
        _emit({
            "regions": [f"r{r + 1}" for r in chosen],
            "residual_mod2": list(res),
            "verified": ok,
            "text_lines": [
                "regions: " + (" ".join(f"r{r + 1}" for r in chosen) or "(none)"),
                f"{'PASS' if ok else 'FAIL'} residual mod 2 = {list(res)}"],
        }, args)
        return 0 if ok else EXIT_INVARIANT
    family = solvers.solve(diagram, args.rule, b)
    u = (zlinalg.minimize_in_family(family, args.minimize)
         if args.minimize else family.particular)
    report = solvers.verify(diagram, args.rule, u, b)
    _emit({
        "solution": list(u),
        "kernel_basis": [list(k) for k in family.kernel],
        "residual": list(report.residual),
        "verified": report.passed,
        "text_lines": [
            f"solution: {list(u)}",
            f"kernel: {list(family.kernel[0])} {list(family.kernel[1])}",
            f"{'PASS' if report.passed else 'FAIL'} residual = "
            f"{list(report.residual)}"],
    }, args)
    return 0 if report.passed else EXIT_INVARIANT


def cmd_add1(args) -> int:
    from . import incidence, solvers
    diagram = _load_diagram(args)
    v = _crossing_index(args.crossing, diagram.crossing_count)
    if args.path == solvers.GEOMETRIC and args.rule == incidence.SINGLE:
        raise CliError("the geometric path supports the double rule only")
    if args.path == solvers.GEOMETRIC:
        cert = solvers.add1_geometric(diagram, v)
    else:
        cert = solvers.add1_algebraic(diagram, args.rule, v)
    ok = cert.residual == tuple(1 if i == v else 0
                                for i in range(diagram.crossing_count))
    _emit({
        "crossing": f"v{v + 1}",
        "rule": cert.rule,
        "path": cert.path,
        "assignment": list(cert.assignment),
        "residual": list(cert.residual),
        "verified": ok,
        "text_lines": [
            f"add-1 at v{v + 1} ({cert.rule}, {cert.path})",
            f"assignment: {list(cert.assignment)}",
            f"{'PASS' if ok else 'FAIL'} residual = {list(cert.residual)}"],
    }, args)
    return 0 if ok else EXIT_INVARIANT


def cmd_random(args) -> int:
    diagram = random_diagram(args.seed, args.moves)
    print(to_flat_pd(diagram))
    return 0


def cmd_catalog(args) -> int:
    from .catalog import names
    for name in names():
        print(name)
    return 0


def cmd_rref(args) -> int:
    from .incidence import SINGLE
    from .zlinalg import rref_rational
    diagram = _load_diagram(args)
    if not is_knot(diagram):
        raise CliError("rref requires a knot projection")
    matrix = _matrix(args, diagram, SINGLE)
    echelon = rref_rational(matrix.entries)
    lines = []
    for crow, brow in zip(echelon.coeffs, echelon.b_coeffs):
        left = " ".join(_frac(x) for x in crow)
        right = " + ".join(f"{_frac(c)} b{k + 1}" for k, c in enumerate(brow)
                           if c != 0) or "0"
        lines.append(f"( {left} | {right} )")
    _emit({
        "pivot_cols": list(echelon.pivot_cols),
        "coeffs": [[_frac(x) for x in row] for row in echelon.coeffs],
        "b_coeffs": [[_frac(x) for x in row] for row in echelon.b_coeffs],
        "text_lines": lines,
    }, args)
    return 0


def _frac(x) -> str:
    return str(x.numerator) if x.denominator == 1 else str(x)


def cmd_dot(args) -> int:
    diagram = _load_diagram(args)
    sys.stdout.write(to_dot(diagram))
    return 0


def cmd_checkerboard(args) -> int:
    diagram = _load_diagram(args)
    coloring = checkerboard(diagram)
    lines = [" ".join(f"r{i + 1}:{'+' if s > 0 else '-'}"
                      for i, s in enumerate(coloring.signs))]
    _emit({"signs": list(coloring.signs), "text_lines": lines}, args)
    return 0


def _add_source(parser: argparse.ArgumentParser, *, labels: bool = False,
                formats: bool = True) -> None:
    parser.add_argument("--diagram", help="catalog name")
    parser.add_argument("--file", help="flat-PD document path")
    if formats:
        parser.add_argument("--format", choices=("text", "json"),
                            default="text")
    if labels:
        parser.add_argument("--reference-labels", action="store_true",
                            help="use the catalog's reference labeling "
                                 "(with --diagram only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regionchoice",
        description="Region choice problems for flat knot projections")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="print a region choice matrix")
    _add_source(p, labels=True)
    p.add_argument("--rule", choices=("single", "double"), default="single")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("regions", help="list the regions")
    _add_source(p)
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("validate", help="validate a flat-PD document")
    _add_source(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve the region choice problem")
    _add_source(p)
    p.add_argument("--rule", choices=("single", "double"), default="single")
    p.add_argument("--b", required=True, help="comma-separated points")
    p.add_argument("--minimize", nargs="?", const="Linf",
                   choices=("Linf", "L2"))
    p.add_argument("--mod2", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("add1", help="add-1 certificate at a crossing")
    _add_source(p)
    p.add_argument("--crossing", required=True)
    p.add_argument("--rule", choices=("single", "double"), default="double")
    p.add_argument("--path", choices=("algebraic", "geometric"),
                   default="algebraic")
    p.set_defaults(func=cmd_add1)

    p = sub.add_parser("random", help="emit a random flat-PD document")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--moves", type=int, required=True)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("catalog", help="list catalog names")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("rref", help="symbolic echelon form of the matrix")
    _add_source(p, labels=True)
    p.set_defaults(func=cmd_rref)

    p = sub.add_parser("dot", help="emit the diagram graph in DOT")
    _add_source(p, formats=False)
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("checkerboard", help="checkerboard coloring")
    _add_source(p)
    p.set_defaults(func=cmd_checkerboard)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nobody reads the output any more.  Point stdout at devnull, so
        # that the flush at exit has nowhere left to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (CliError, DiagramError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "code", EXIT_INPUT)
    except MemoryError:
        print("error: out of memory: the input is too large for this command",
              file=sys.stderr)
        return EXIT_INPUT
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
