"""Guards on the package surface: no submodule is shadowed by a function or
class of the same name, and every name the package re-exports resolves."""

import ast
import importlib
import inspect
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
