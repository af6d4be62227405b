"""Every numeric block is read by `_atomic.read_block`: one np.loadtxt pass
per block, one record per line, no column selection."""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "nvmsig"


def _sources():
    return sorted(_SRC.rglob("*.py"))


def _loadtxt_uses(path):
    """(file, enclosing function) of each `.loadtxt` attribute or
    `loadtxt` import in the module at `path`."""
    uses = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr == "loadtxt" or \
                isinstance(node, ast.ImportFrom) and any(
                    a.name == "loadtxt" for a in node.names):
            uses.append((path.relative_to(_SRC).as_posix(), func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return uses


def test_np_loadtxt_is_called_only_by_read_block():
    uses = [use for path in _sources() for use in _loadtxt_uses(path)]
    assert uses == [("_atomic.py", "read_block")]


def test_no_loader_selects_columns():
    assert [p.name for p in _sources()
            if "usecols" in p.read_text(encoding="utf-8")] == []
