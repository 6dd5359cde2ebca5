"""Every name in a module's __all__ resolves, and the package exports exactly its modules' public names."""

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


def test_package_exports_the_union_of_the_module_lists():
    modules = [wigscale.phase_space, wigscale.moments, wigscale.fock_space, wigscale.gaussian_cv]
    union = [name for module in modules for name in module.__all__]
    assert len(set(union)) == len(union)  # no name is public in two modules
    assert sorted(wigscale.__all__) == sorted(union)
