"""The public names of the package resolve: each module's `__all__` and
every name `blocksolve/__init__.py` imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import blocksolve

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(blocksolve.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"blocksolve.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"blocksolve.{name}.__all__ names missing {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(blocksolve.__file__).read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(blocksolve, n)] == []
