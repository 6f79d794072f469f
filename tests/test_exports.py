"""The package's public surface: each module's ``__all__`` resolves, the
package root is exactly the ``__all__`` of the modules it re-exports, the
import graph has no cycle, and the README's module map names every module."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import greedy_opt

MODULES = sorted(info.name for info in pkgutil.iter_modules(greedy_opt.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"greedy_opt.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    """``greedy_opt/__init__.py`` only star-imports modules that define
    ``__all__``; each name in those lists is the same object at the root,
    and the root has no other public name but its modules."""
    tree = ast.parse(Path(greedy_opt.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exported = set()
    for node in imports:
        assert isinstance(node, ast.ImportFrom) and node.level == 1
        assert [alias.name for alias in node.names] == ["*"], node.module
        module = importlib.import_module(f"greedy_opt.{node.module}")
        for name in module.__all__:
            assert getattr(greedy_opt, name) is getattr(module, name), name
        exported.update(module.__all__)
    public = {name for name, value in vars(greedy_opt).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == exported


def _fresh_python(code):
    """Run ``code`` in a new interpreter that imports this package."""
    src = str(Path(greedy_opt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=120)


def test_cli_and_verification_import_without_a_cycle():
    """``cli`` leaves ``verification`` unloaded until ``verify`` runs, and
    ``verification``, which builds its runs through ``cli``, imports on
    its own."""
    done = _fresh_python("import sys, greedy_opt.cli; "
                         "print('greedy_opt.verification' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
    done = _fresh_python("from greedy_opt import verification; "
                         "print(verification.cli.__name__)")
    assert (done.returncode, done.stdout) == (0, "greedy_opt.cli\n"), \
        done.stderr


def test_readme_module_map_names_each_module_once():
    """The README's module map has one row per module under ``greedy_opt``
    (``__init__`` aside), each naming its module and at most 240
    characters long."""
    listing = README.read_text(encoding="utf-8").split("<!-- modules -->")[1]
    rows = [line for line in listing.splitlines() if line.startswith("| `")]
    named = [re.match(r"\| `greedy_opt\.(\w+)` \|", row).group(1)
             for row in rows]
    assert sorted(named) == MODULES
    assert [row for row in rows if len(row) > 240] == []
