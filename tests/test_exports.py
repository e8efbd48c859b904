"""Module names: every name a package module lists in ``__all__`` must
resolve, no module of the package or of the tests imports a name it never
uses, and no module-level name of the package goes unread unless an
``__all__`` lists it.  The package builds no tensor from a literal.  The
suite's warning filters fail a deprecated call in the package."""
import ast
import importlib
import pkgutil
import warnings
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


def unread_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each module-level function, class or assignment
    that no module of ``sources`` reads, as a name or as an attribute, and
    that is private (``_x``, not ``__x__``) or public and in no module's
    ``__all__``."""
    defined, read, exported = [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
                if names == ["__all__"]:
                    exported |= {elt.value for elt in node.value.elts}
            else:
                names = []
            defined += [(module, name) for name in names if not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}:{name}" for module, name in defined
                  if name not in read and (name.startswith("_") or name not in exported))


def test_dead_name_finder_has_teeth():
    assert unread_names({
        "a": "_LIMIT = 3\n_seen: set = set()\n_used, _spare = 1, 2\n__all__ = []\n"
             "def _helper():\n    return _LIMIT + _used\n"
             "class _Dead:\n    pass\n"
             "def public():\n    return b._shared()\n",
        "b": "def _shared():\n    _helper()\n"
             "def listed():\n    pass\n"
             "def only_tests_call_me():\n    pass\n"
             "__all__ = ['listed']\n",
    }) == ["a:_Dead", "a:_seen", "a:_spare", "a:public", "b:only_tests_call_me"]


@pytest.fixture(scope="module")
def package_unread_names():
    package = ROOT / "src" / "evicred"
    return unread_names({p.name: p.read_text(encoding="utf-8")
                         for p in sorted(package.glob("*.py"))})


def test_no_dead_private_names(package_unread_names):
    assert [n for n in package_unread_names if n.split(":")[1].startswith("_")] == []


def test_no_unexported_public_name_goes_unread(package_unread_names):
    # A public name that no module reads and no ``__all__`` lists is
    # library surface that only tests reach.
    assert [n for n in package_unread_names if not n.split(":")[1].startswith("_")] == []


def literal_tensor_data(source: str) -> list[int]:
    """Lines of each ``Tensor(...)`` call whose data is a list, tuple or
    constant literal (signed or not), given by position or as ``data=``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Tensor"):
            continue
        data = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "data")]
        for arg in data:
            if isinstance(arg, ast.UnaryOp):
                arg = arg.operand
            if isinstance(arg, (ast.List, ast.Tuple, ast.Constant)):
                lines.append(node.lineno)
    return lines


def test_literal_tensor_data_finder_has_teeth():
    assert literal_tensor_data(
        "Tensor([[1.0]])\nTensor((1.0,))\nTensor(-2)\nTensor(data=[0.5])\n"
        "Tensor(np.ones((1, 1)))\nTensor(x, requires_grad=True)\nT([1.0])\n"
        "Tensor('abc')\n") == [1, 2, 3, 4, 8]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "evicred").glob("*.py")),
                         ids=lambda p: p.name)
def test_package_builds_tensors_from_arrays(path):
    # A tensor holds a 2-D float array; a literal's rank and dtype are
    # decided by how it is written, so the package builds every tensor
    # from an array it has shaped, on paths the tests never run as well.
    assert literal_tensor_data(path.read_text(encoding="utf-8")) == []


def test_deprecation_warning_in_the_package_fails_the_suite():
    # As numpy reports a deprecated call: attributed to the calling module.
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit("deprecated", DeprecationWarning, "embeddings.py", 1,
                               module="evicred.embeddings")
