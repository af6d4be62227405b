"""Text-file access shared by every artifact writer and every loader."""

import contextlib
import math
import os
from itertools import repeat

import numpy as np

from .errors import ParseError, ValidationError


@contextlib.contextmanager
def atomic_open(path):
    """Text handle on a `path.tmp.<pid>` sibling that replaces `path` on a
    clean exit, so a reader sees the old file or the new one, never a part.
    On an exception the sibling is removed and `path` is left untouched."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, split at `\\n`, `\\r\\n` or `\\r`.
    A byte sequence that is not UTF-8 is a ParseError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}",
                         line=data.count(b"\n", 0, exc.start) + 1) from None
    return text.splitlines()


def parse_int64(text: str) -> int:
    """int(text), rejected with ValueError when it does not fit in int64."""
    value = int(text)
    if not -(1 << 63) <= value < 1 << 63:
        raise ValueError(f"{text.strip()!r} does not fit in int64")
    return value


def number(text: str, integer: bool = False):
    """`parse_int64(text)` when `integer`, else a finite `float(text)`, in
    np.loadtxt's grammar for ASCII text: a decimal token, whitespace around
    it at most.  Other than ASCII text, `_` separators, NaN and infinities
    are a ValueError."""
    token = text.strip()
    if not text.isascii() or "_" in token:
        raise ValueError(f"{token!r} is not an ASCII decimal number")
    value = parse_int64(token) if integer else float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is not a finite number")
    return value


def read_block(lines, linenos, parts, *, delimiter=None, width=None) -> list:
    """One array per `(dtype, cols)` of `parts`: the cells at the columns
    `cols` (all, when None) of each of `lines`, lines `linenos` of a file,
    as one row (or record, when `dtype` has fields) per line, read by
    np.loadtxt in one C pass.  A line of other than `width` cells, a cell
    that `number` refuses or a NaN or infinite real is a ParseError at its
    line, and so is a line that is not ASCII text, which never reaches
    numpy: its int64 reader takes any character for a digit ('⥰' reads as
    10560) and can crash on such text.  Only on a fault are the lines read
    one at a time, since numpy's row count is not the file's line number."""
    kinds = {}  # column -> "i" or "f", or another dtype kind for text
    for dtype, cols in parts:
        dtype = np.dtype(dtype)
        flat = ("".join(dtype[n].base.kind * math.prod(dtype[n].shape)
                        for n in dtype.names) if dtype.names
                else dtype.kind * len(cols))
        kinds.update(zip(cols or range(len(flat)), flat))
    width = width or len(kinds)
    # np.loadtxt skips the columns outside `cols`, so count them first
    if all(map(str.isascii, lines)) and (not delimiter or sum(
            map(str.count, lines, repeat(delimiter))) == (width - 1) * len(lines)):
        with contextlib.suppress(ValueError):
            arrays = [np.loadtxt(lines, dtype, comments=None, delimiter=delimiter,
                                 usecols=cols, ndmin=1 if cols is None else 2)
                      for dtype, cols in parts]
            # the real fields of each array, or all of it ([...]) if it has none
            if all(len(a) == len(lines) and all(
                    np.isfinite(a[n]).all() for n in a.dtype.names or [...]
                    if a[n].dtype.kind == "f") for a in arrays):
                return arrays
    for line, lineno in zip(lines, linenos):
        cells = line.split(delimiter)
        try:
            if not line.isascii():
                raise ValueError("a row of numbers must be ASCII text")
            if len(cells) != width:
                raise ValueError(f"expected {width} columns, got {len(cells)}")
            for col, kind in kinds.items():
                if kind in "if":
                    number(cells[col], kind == "i")
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    raise ParseError("np.loadtxt refused a line of this block that number() reads",
                     line=linenos[0])


def has_line_break(name: str) -> bool:
    """True if `name` would end a line early in a line-based text file."""
    return "".join(name.splitlines()) != name


def read_table(lines, header_fault, *, first=1, split=lambda line: line.split(",")):
    """(header cells, rows, their line numbers): the header `split(lines[0])`,
    which is line `first` of its file and which `header_fault` explains or
    passes (None), and the lines below it that are not blank.  A missing or
    faulty header, or no rows, is a ParseError at line `first`."""
    fault = header_fault(header := split(lines[0])) if lines \
        else "missing header row"
    if fault is not None:
        raise ParseError(fault, line=first)
    rows, linenos = lines[1:], range(first + 1, first + len(lines))
    if not all(rows) or any(map(str.isspace, rows)):
        keep = [i for i, row in enumerate(rows) if row and not row.isspace()]
        rows, linenos = [rows[i] for i in keep], [linenos[i] for i in keep]
    if not rows:
        raise ParseError("no data rows", line=first)
    return header, rows, linenos


def read_columns(lines, header_fault, parts, *, first=1):
    """(arrays, row line numbers) of the comma-separated table in `lines`
    (see `read_table`): `read_block`'s arrays for `parts`, whose columns are
    slices of the header's."""
    header, rows, linenos = read_table(lines, header_fault, first=first)
    cols = range(len(header))
    return read_block(rows, linenos, [(dtype, cols[s]) for dtype, s in parts],
                      delimiter=",", width=len(header)), linenos
