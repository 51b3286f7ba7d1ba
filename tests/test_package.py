import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import molmatch

MODULES = sorted(info.name for info in pkgutil.iter_modules(molmatch.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    # perfbench's tracer finds the functions it wraps through __all__ and
    # skips names that do not resolve, so a stale export would go unnoticed
    module = importlib.import_module(f"molmatch.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"molmatch.{name}.__all__ lists missing names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_no_private_cross_module_imports(name):
    # a module's underscore names are its own; another module that needs
    # one should get a public name instead
    source = Path(molmatch.__file__).with_name(f"{name}.py").read_text(encoding="utf-8")
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("molmatch"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"molmatch.{name} imports private names {private}"
