"""Text-file access shared by every artifact writer and every loader."""

import contextlib
import csv
import os

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


def has_line_break(name: str) -> bool:
    """True if `name` would end a line early in a line-based text file."""
    return "".join(name.splitlines()) != name


def read_table(lines, header_fault, parse_row, *, first=1, quoted=False) -> list:
    """`parse_row(cells)` of each row below the header `lines[0]`, which is
    line `first` of its file and which `header_fault(cells)` explains or
    passes (None).  Blank lines are skipped; a missing header, a wrong cell
    count, a ValueError or ValidationError from `parse_row`, or no rows at
    all is a ParseError at its line.  Cells split at each comma, or as
    quoted CSV when `quoted`."""
    if not lines:
        raise ParseError("missing header row", line=first)
    header = next(csv.reader([lines[0]])) if quoted else lines[0].split(",")
    fault = header_fault(header)
    if fault is not None:
        raise ParseError(fault, line=first)
    width, rows = len(header), []
    for lineno, line in enumerate(lines[1:], start=first + 1):
        if not line.strip():
            continue
        cells = next(csv.reader([line])) if quoted else line.split(",")
        if len(cells) != width:
            raise ParseError(f"expected {width} columns, got {len(cells)}",
                             line=lineno)
        try:
            rows.append(parse_row(cells))
        except (ValueError, ValidationError) as exc:
            raise ParseError(str(exc), line=lineno) from None
    if not rows:
        raise ParseError("no data rows", line=first)
    return rows
