"""Every name a ``gase`` module advertises resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gase

MODULES = sorted(m.name for m in pkgutil.iter_modules(gase.__path__)
                 if not m.name.startswith("__"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"gase.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(gase.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"gase.{node.module}")
        for alias in node.names:
            assert alias.name in getattr(mod, "__all__", ())
            assert getattr(gase, alias.asname or alias.name) is getattr(mod, alias.name)
