"""Every numeric block is read by `_atomic.read_block`: one np.loadtxt pass
per block, one record per line, no column selection.  Features are
selected by name in `features.select` only."""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "nvmsig"


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


def _line_splits(path):
    """(file, enclosing function) of each call in the module at `path`
    that splits text into lines: `.splitlines()`, `.readlines()`, or a
    `.split` or `.rsplit` at a string constant that holds a line break."""
    splits = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name, args = node.func.attr, node.args
            at = args[0].value if args and isinstance(args[0], ast.Constant) else None
            if name in ("splitlines", "readlines") or name in ("split", "rsplit") \
                    and isinstance(at, str) and ("\n" in at or "\r" in at):
                splits.append((path.relative_to(_SRC).as_posix(), func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return splits


def test_only_read_lines_splits_text_into_lines():
    """One line rule for every reader: `\\n`, `\\r\\n` and `\\r`, where
    `str.splitlines` also breaks at form feeds and other separators."""
    uses = [use for path in _sources() for use in _line_splits(path)]
    assert uses == [("_atomic.py", "read_lines")]


def test_no_loader_selects_columns():
    assert [p.name for p in _sources()
            if "usecols" in p.read_text(encoding="utf-8")] == []


def _calls(path, name):
    """(file from the repository root, enclosing function) of each call of
    `name`, bare or as an attribute, in the module at `path`."""
    calls = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            calls.append((path.relative_to(_ROOT).as_posix(), func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return calls


def test_only_features_select_calls_nca_select():
    """One place picks a selector by name and z-scores the rows that NCA
    ranks; every other caller in the program and the demos goes through it."""
    paths = _sources() + sorted((_ROOT / "demos").glob("*.py"))
    uses = [use for path in paths for use in _calls(path, "nca_select")]
    assert uses == [("src/nvmsig/features.py", "select")]
