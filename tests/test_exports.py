"""Module names: every name a package module lists in ``__all__`` must
resolve, and no module of the package or of the tests imports a name it
never uses."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import evicred

MODULES = ["evicred"] + [f"evicred.{m.name}"
                         for m in pkgutil.iter_modules(evicred.__path__)]
ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "evicred").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", [])
               if not hasattr(module, name)]
    assert missing == []


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no expression and no ``__all__`` uses.

    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


def test_unused_import_finder_has_teeth():
    assert unused_imports("import json\nimport os.path\n"
                          "from a import b, c as d\nfrom __future__ import x\n"
                          "__all__ = ['b']\n") == ["d", "json", "os"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
