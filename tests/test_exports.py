"""Every name that `nvmsig` exports has a caller outside the tests: code in
`src/` other than its own definition, a demo, or the acceptance gate,
whose imports are fixed."""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "nvmsig"


def _imported(path):
    """The names that `from ... import` statements of the module bind."""
    return {alias.asname or alias.name
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _used(path):
    """The names and attributes that the module at `path` reads, leaving
    out each top-level definition's reads of its own name."""
    used = set()

    def visit(node, owner):
        if isinstance(node, ast.Name) and node.id != owner:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != owner:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        visit(top, owner)
    return used


def test_every_exported_name_has_a_caller_outside_the_tests():
    callers = set().union(
        *(_used(p) for p in _SRC.rglob("*.py") if p.name != "__init__.py"),
        *(_used(p) for p in (_ROOT / "demos").glob("*.py")),
        _imported(_ROOT / "tests" / "test_acceptance.py"))
    exported = _imported(_SRC / "__init__.py")
    assert sorted(exported - callers) == []
