"""The benchmark's tracer wraps library functions by name; they must resolve.

``perfbench/tracer.py`` looks up each name in its ``FUNCTIONS`` and
``METHODS`` tables when it installs its spans, and pairs
``verification.criterion_names()`` with ``verification.CRITERIA``.  Renaming
or deleting one of them breaks the benchmark, so it fails here first.  The
tables are read from the source without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

from greedy_opt import verification

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _table(name):
    """The literal value assigned to ``name`` at the top of tracer.py."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


@pytest.mark.parametrize("key,module,attr", _table("FUNCTIONS"))
def test_traced_function_resolves(key, module, attr):
    assert callable(getattr(importlib.import_module(f"greedy_opt.{module}"),
                            attr, None))


@pytest.mark.parametrize("key,module,cls,attr", _table("METHODS"))
def test_traced_method_is_defined_on_its_class(key, module, cls, attr):
    owner = getattr(importlib.import_module(f"greedy_opt.{module}"), cls)
    assert attr in vars(owner)  # the tracer replaces the class's own entry


def test_criterion_names_pair_with_criteria():
    names = verification.criterion_names()
    assert len(names) == len(verification.CRITERIA) == len(set(names))
    for name, fn in zip(names, verification.CRITERIA):
        assert fn.__name__.endswith(name.replace("-", "_"))
