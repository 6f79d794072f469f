"""Exported names resolve: each module's ``__all__`` and the package's own
imports, so a deleted name cannot linger in an export list."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import greedy_opt

MODULES = sorted(info.name for info in pkgutil.iter_modules(greedy_opt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"greedy_opt.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    """Each name ``greedy_opt/__init__.py`` imports is defined by the module
    it names and is an attribute of the package."""
    tree = ast.parse(Path(greedy_opt.__file__).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    for module, name in imports:
        source = importlib.import_module(f"greedy_opt.{module}")
        assert hasattr(source, name), f"{module}.{name}"
        assert getattr(greedy_opt, name) is getattr(source, name), name
