"""Every name in a module's __all__ resolves, so `from wigscale.<module> import *` works."""

import importlib
import pkgutil

import pytest

import wigscale

# __main__ runs the CLI on import
MODULES = ["wigscale"] + [
    f"wigscale.{name}" for _, name, _ in pkgutil.iter_modules(wigscale.__path__) if name != "__main__"
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in getattr(module, "__all__", []) if not hasattr(module, name)] == []
