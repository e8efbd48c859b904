"""Every name a package module lists in ``__all__`` must resolve."""
import importlib
import pkgutil

import pytest

import evicred

MODULES = ["evicred"] + [f"evicred.{m.name}"
                         for m in pkgutil.iter_modules(evicred.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", [])
               if not hasattr(module, name)]
    assert missing == []
