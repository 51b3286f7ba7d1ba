import importlib
import pkgutil

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
