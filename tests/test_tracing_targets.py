"""The benchmark's tracer wraps nvmsig functions by name; each must exist."""

import ast
import importlib
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    """(module, function) pairs of the TARGETS list, read without
    importing the benchmark."""
    tree = ast.parse(_TRACING.read_text(encoding="utf-8"))
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in n.targets))
    return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]


@pytest.mark.parametrize("module,func", _targets(),
                         ids=lambda v: v.removeprefix("nvmsig."))
def test_every_traced_function_exists(module, func):
    assert callable(getattr(importlib.import_module(module), func, None)), \
        f"{module}.{func}"
