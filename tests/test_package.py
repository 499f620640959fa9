"""Guards on the package surface: no submodule is shadowed by a function or
class of the same name, every name the package re-exports resolves, and
every public function has a caller or a stated reason to be shipped."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import regionchoice

SUBMODULES = {m.name for m in pkgutil.iter_modules(regionchoice.__path__)}


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
    tree = ast.parse(inspect.getsource(regionchoice))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in SUBMODULES
        module = importlib.import_module(f"regionchoice.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert (getattr(regionchoice, alias.asname or alias.name)
                    is getattr(module, alias.name))


ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "regionchoice"
# public functions that nothing in the package, the benchmark workloads or
# the acceptance suite calls, each with the reason it is shipped anyway
KEPT = {
    "solve_pinned": "the one public solve of a caller's own n x (n+2) "
                    "matrix",
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


def test_every_public_function_has_a_caller_or_a_reason():
    # uses inside the package, each outside the def it sits in; the
    # package's re-exports are no use
    used = set()
    for path in SOURCE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            names = referenced_names(node)
            if isinstance(node, ast.FunctionDef):
                names.discard(node.name)
            used |= names
    # the workloads name some solvers by string, so strings count there
    used |= referenced_names(
        ast.parse((ROOT / "bench" / "workloads.py").read_text()), True)
    used |= referenced_names(
        ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    public = {node.name
              for name in SUBMODULES - {"cli"}
              for node in ast.parse(
                  (SOURCE / f"{name}.py").read_text()).body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")}
    assert sorted(public - used) == sorted(KEPT)
