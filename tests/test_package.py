"""Guards on the package surface: no submodule is shadowed by a function or
class of the same name, every name the package re-exports resolves to its
defining module's object, and every public function, class and method has
a caller or a stated reason to be shipped."""

import ast
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import regionchoice

SUBMODULES = {m.name for m in pkgutil.iter_modules(regionchoice.__path__)}
ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "regionchoice"

# every name the package exports, by defining module; the modules are
# exported under their own names too, all but cli
EXPORTED = {
    "catalog": ("CatalogEntry", "CatalogError", "catalog_entry", "names"),
    "diagram": ("Arc", "CheckerboardColoring", "D0", "DiagramError",
                "FlatDiagram", "InternalInvariantError", "Region",
                "apply_r1", "apply_r2", "arcs", "arc_by_label",
                "checkerboard", "component_count", "is_knot",
                "parse_flat_pd", "random_diagram", "reducible_crossings",
                "regions", "to_dot", "to_flat_pd"),
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
EXPORTED_NAMES = {*EXPORTED,
                  *(name for names in EXPORTED.values() for name in names)}


def test_no_public_function_or_class_is_named_like_a_submodule():
    assert {"catalog", "diagram", "zlinalg"} <= SUBMODULES
    for name in sorted(SUBMODULES):
        module = importlib.import_module(f"regionchoice.{name}")
        assert getattr(regionchoice, name) is module
        for attr, value in vars(module).items():
            if (attr.startswith("_")
                    or not (inspect.isfunction(value)
                            or inspect.isclass(value))
                    or value.__module__ != module.__name__):
                continue
            assert attr not in SUBMODULES, f"{module.__name__}.{attr}"


def test_every_name_the_package_imports_resolves():
    # the names bound at import: the relative imports, all from diagram
    tree = ast.parse(inspect.getsource(regionchoice))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level]
    assert [node.module for node in imports] == ["diagram"]
    for node in imports:
        assert node.level == 1 and node.module in SUBMODULES
        module = importlib.import_module(f"regionchoice.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert (getattr(regionchoice, alias.asname or alias.name)
                    is getattr(module, alias.name))
    # the names looked up on first access: each is the defining module's
    # object, and so is every module
    for home, names in EXPORTED.items():
        module = importlib.import_module(f"regionchoice.{home}")
        assert getattr(regionchoice, home) is module
        for name in names:
            value = getattr(regionchoice, name)
            assert value is getattr(module, name), f"{home}.{name}"
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, f"{home}.{name}"
    assert regionchoice.zlinalg.InternalInvariantError \
        is regionchoice.InternalInvariantError
    # star import and dir give the exported names, and nothing else public
    star = {}
    exec("from regionchoice import *", star)
    assert set(star) - {"__builtins__"} == EXPORTED_NAMES
    assert sorted(regionchoice.__all__) == sorted(EXPORTED_NAMES)
    with pytest.raises(AttributeError, match="no_such_name"):
        regionchoice.no_such_name
    with pytest.raises(AttributeError):
        regionchoice._certified   # a private name of a layer stays private


def test_a_fresh_import_loads_only_diagram_and_lists_every_name():
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, regionchoice\n"
         "print(json.dumps([sorted(m for m in sys.modules"
         " if m.partition('.')[0] == 'regionchoice'),"
         " dir(regionchoice)]))"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    loaded, listed = json.loads(child.stdout)
    assert loaded == ["regionchoice", "regionchoice.diagram"]
    assert {n for n in listed if not n.startswith("_")} == EXPORTED_NAMES


# the benchmark's ten CLI kinds (bench/workloads.py CLI_KINDS), on 5_2
CLI_KINDS = {
    "solve": ["solve", "--rule", "single", "--b=1,0,-2,0,3"],
    "solve_min": ["solve", "--rule", "double", "--b=1,0,-2,0,3",
                  "--minimize", "Linf"],
    "solve_mod2": ["solve", "--b=1,0,1,1,0", "--mod2"],
    "add1_alg": ["add1", "--crossing", "v2", "--rule", "single",
                 "--path", "algebraic"],
    "add1_geo": ["add1", "--crossing", "v3", "--rule", "double",
                 "--path", "geometric"],
    "matrix": ["matrix", "--rule", "double"],
    "rref": ["rref"],
    "validate": ["validate"],
    "regions": ["regions"],
    "checkerboard": ["checkerboard"],
}


@pytest.mark.parametrize("source", ["diagram", "file"])
def test_a_cli_call_imports_no_dataclasses_and_fractions_for_rref_only(
        source, tmp_path):
    # python -S, as site can import more than the call does; no call
    # imports typing either, whose names only string annotations use
    from regionchoice.catalog import catalog_entry
    from regionchoice.diagram import to_flat_pd
    path = tmp_path / "5_2.json"
    path.write_text(to_flat_pd(catalog_entry("5_2").diagram))
    where = (["--diagram", "5_2", "--reference-labels"] if source == "diagram"
             else ["--file", str(path)])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for kind, args in CLI_KINDS.items():
        labels = where if args[0] in ("matrix", "rref") else where[:2]
        argv = [args[0], *labels, *args[1:], "--format", "json"]
        child = subprocess.run(
            [sys.executable, "-S", "-c",
             "import json, sys\n"
             "from regionchoice.cli import main\n"
             "code = main(json.loads(sys.argv[1]))\n"
             "sys.stdout.flush()\n"
             "print(json.dumps([code, 'dataclasses' in sys.modules,"
             " 'fractions' in sys.modules, 'typing' in sys.modules]),"
             " file=sys.stderr)",
             json.dumps(argv)],
            capture_output=True, text=True, env=env, timeout=120)
        assert child.returncode == 0, (kind, child.stderr)
        assert json.loads(child.stdout), kind
        code, dataclasses, fractions, typing = json.loads(
            child.stderr.splitlines()[-1])
        assert code == 0 and not dataclasses and not typing, kind
        assert fractions is (kind == "rref"), kind


def test_the_lazy_lookup_keeps_no_copy(monkeypatch):
    solvers = importlib.import_module("regionchoice.solvers")
    assert regionchoice.solve is solvers.solve
    assert "solve" not in vars(regionchoice)

    def patched(diagram, rule, b):
        raise AssertionError("not called")

    monkeypatch.setattr(solvers, "solve", patched)
    assert regionchoice.solve is patched
    monkeypatch.undo()
    assert regionchoice.solve is solvers.solve


# public functions, classes and methods that nothing in the package, the
# benchmark workloads or the acceptance suite calls, each with the reason it
# is shipped anyway
KEPT = {
    "solve_pinned": "the one public solve of a caller's own n x (n+2) "
                    "matrix",
    "component_count": "the public count of closed curves; is_knot asks "
                       "only whether there is one, by one strand walk",
}


def referenced_names(tree, strings=False):
    """Every name, attribute and imported name in the tree, and with
    ``strings`` every string constant; docstrings are strings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif (strings and isinstance(node, ast.Constant)
                and isinstance(node.value, str)):
            found.add(node.value)
    return found


def uses_outside_itself(node):
    """The names a top-level statement references, less a def's or a
    class's own name, and less each method's own name inside it."""
    if isinstance(node, ast.ClassDef):
        names = set()
        for part in (*node.decorator_list, *node.bases, *node.keywords,
                     *node.body):
            names |= uses_outside_itself(part)
    else:
        names = referenced_names(node)
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names.discard(node.name)
    return names


def public_definitions(tree):
    """The public functions and classes of a module, and the public methods
    of its public classes, as ``Class.method``."""
    public = set()
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            public.add(node.name)
            if isinstance(node, ast.ClassDef):
                public |= {f"{node.name}.{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_")}
    return public


def test_every_public_function_has_a_caller_or_a_reason():
    # uses inside the package, each outside the def it sits in; the
    # package's re-exports are no use
    used = set()
    for path in SOURCE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            used |= uses_outside_itself(node)
    # the workloads name some solvers by string, so strings count there
    used |= referenced_names(
        ast.parse((ROOT / "bench" / "workloads.py").read_text()), True)
    used |= referenced_names(
        ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    public = set()
    for name in SUBMODULES - {"cli"}:
        public |= public_definitions(
            ast.parse((SOURCE / f"{name}.py").read_text()))
    assert {"FlatDiagram", "FlatDiagram.crossing_count",
            "SolutionFamily.member"} <= public
    unused = {name for name in public
              if name.rpartition(".")[2] not in used}
    assert sorted(unused) == sorted(KEPT)
