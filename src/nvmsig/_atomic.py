"""Text-file access shared by every artifact writer and every loader."""

import contextlib
import math
import os

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


_U8 = np.uint64
# a cell is built in little-endian 8-byte words, so that its first digit
# sits at the lowest address whatever the machine's byte order
_WORD = np.dtype("<u8")
_BYTES = _U8(0x0101010101010101)  # a mask word that keeps all 8 bytes


def format_rows(ints, reals) -> str:
    """The text `"%d,...,%d,%.6f,...,%.6f\\n" % row` of each row of the
    int64 columns `ints` (n, >= 1) followed by the float64 columns `reals`
    (n, >= 1).

    Built in numpy as one byte matrix per call when every real is on the
    micro grid: finite, |x| < 2**31 and rint(x * 1e6) / 1e6 == x.  Then
    `%.6f` is exactly the integer m = rint(|x| * 1e6) with a point before
    its last six digits, and `-` when signbit(x): the division is
    correctly rounded, so the check is exact, and below 2**31 x lies
    within half an ulp (under 1.2e-7) of m / 10**6, so six decimals round
    it to m / 10**6.  Every latency the simulator makes and every value
    read back from such a file is on the grid.  Any other call (NaN,
    ±inf, 1e300, off-grid values) formats row by row with the `%`
    template."""
    ints = np.asarray(ints, np.int64)
    reals = np.asarray(reals, np.float64)
    if not len(ints):
        return ""
    cells = _grid_cells(ints, reals)
    if cells is None:
        return _template_rows(ints, reals)
    text, keep = cells
    return str(text[keep], "ascii")


def _grid_cells(ints, reals):
    """(bytes, mask): the rows of format_rows as a byte matrix with each
    cell right-aligned in whole words, and the mask of the bytes that are
    text; None if a real is off the micro grid."""
    # 1e300 overflows and a signalling NaN (any bit pattern may come in)
    # is invalid in these steps; both are off the grid
    with np.errstate(over="ignore", invalid="ignore"):
        micros = reals * 1e6
        np.rint(micros, out=micros)
        on_grid = micros / 1e6 == reals
        on_grid &= np.abs(reals) < 2.0 ** 31
    if not on_grid.all():
        return None
    micros = np.abs(micros).astype(_U8)
    whole = micros // _U8(10**6)
    micros -= whole * _U8(10**6)
    # each real's tail word ".dddddd," from its last six digits "00dddddd":
    # drop one zero, make the other a point
    _ascii8(micros)
    micros >>= _U8(8)
    micros += _U8((ord(",") << 56) - (ord("0") - ord(".")))
    mag = ints.astype(_U8)  # wraps a negative to 2**64 - |v| ...
    np.negative(mag, out=mag, where=ints < 0)  # ... and back to |v|
    # a cell is k words of sign and digits, then one word that ends in its
    # separator; its mask words hold 1 in each byte that is text
    ki, kr = (-(-(len(str(int(m.max()))) + 1) // 8) for m in (mag, whole))
    n, split = len(ints), ints.shape[1] * (ki + 1)
    words = np.empty((n, split + reals.shape[1] * (kr + 1)), _WORD)
    keep = np.empty_like(words)
    words[:, ki:split:ki + 1] = ord(",")
    keep[:, ki:split:ki + 1] = _U8(1)
    words[:, split + kr::kr + 1] = micros
    keep[:, split + kr::kr + 1] = _BYTES
    del micros  # before the digits, which set a block's peak memory
    for cols, k, m, neg in ((slice(None, split), ki, mag, ints < 0),
                            (slice(split, None), kr, whole, np.signbit(reals))):
        _digit_words(words[:, cols].reshape(n, -1, k + 1)[..., :k],
                     keep[:, cols].reshape(n, -1, k + 1)[..., :k], m, neg)
    text = words.view(np.uint8)
    text[:, -1] = ord("\n")  # the last real's separator
    return text, keep.view(np.uint8).view(bool)


def _template_rows(ints, reals) -> str:
    """format_rows' text, one `%` template per row: the fallback for reals
    off the micro grid."""
    template = ",".join(["%d"] * ints.shape[1] + ["%.6f"] * reals.shape[1]) + "\n"
    return "".join([template % (*i, *r) for i, r in zip(ints.tolist(), reals.tolist())])


def _ascii8(x):
    """The 8 zero-padded ASCII digits of each x < 10**8 as one word, in
    place.  x is split into two lanes of 4 digits, then four of 2, then
    eight of 1: each lane's high part `hi` comes from a multiply-shift
    that divides exactly below the lane's bound, and the lane becomes
    (x << lane) + hi * (1 - (div << lane)), which is
    hi | (x - div * hi) << lane modulo 2**64."""
    hi = np.empty_like(x)
    for mul, shift, mask, div, lane in (
            (109951163, 40, 0x3FFF, 10000, 32),
            (10486, 20, 0x0000007F0000007F, 100, 16),
            (103, 10, 0x000F000F000F000F, 10, 8)):
        np.multiply(x, _U8(mul), out=hi)
        hi >>= _U8(shift)
        hi &= _U8(mask)
        hi *= _U8((1 - (div << lane)) % 2**64)
        x <<= _U8(lane)
        x += hi
    x += _U8(0x3030303030303030)
    return x


def _digit_words(cells, kept, mag, neg) -> None:
    """Write the decimal digits of `mag` (which it may overwrite),
    right-aligned, into the k words of each cell of `cells` (..., k), with
    `-` before them where `neg`, and the mask words of the bytes from the
    sign or first digit on into `kept` (..., k)."""
    k = cells.shape[-1]
    first = 8 * k - 1 - neg.astype(np.uint8)  # the byte of the sign or first digit
    top, power = int(mag.max()), 10
    while power <= top:
        first -= mag >= _U8(power)
        power *= 10
    for w in range(k - 1, 0, -1):
        rest = mag // _U8(10**8)
        cells[..., w] = _ascii8(mag - rest * _U8(10**8))
        mag = rest
    cells[..., 0] = _ascii8(mag)
    for w in range(k):
        shift = np.clip(first, 8 * w, 8 * w + 8)
        shift -= 8 * w
        shift <<= 3
        np.left_shift(_BYTES, shift, out=kept[..., w])
    if neg.any():
        at = np.nonzero(neg)
        cells.view(np.uint8)[at + (first[at],)] = ord("-")


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


def read_block(lines, linenos, dtype, *, delimiter=None) -> np.ndarray:
    """One record of the structured `dtype` from each of `lines`, lines
    `linenos` of a file, read by np.loadtxt in one C pass, which refuses a
    line of other than the record's cell count.  Such a line, a cell that
    `number` refuses or a NaN or infinite real is a ParseError at its line,
    and so is a line that is not ASCII text, which never reaches numpy: its
    int64 reader takes any character for a digit ('⥰' reads as 10560) and
    can crash on such text.  Only on a fault are the lines read one at a
    time, since numpy's row count is not the file's line number."""
    dtype = np.dtype(dtype)
    if all(map(str.isascii, lines)):
        with contextlib.suppress(ValueError):
            rec = np.loadtxt(lines, dtype, comments=None, delimiter=delimiter, ndmin=1)
            if len(rec) == len(lines) and all(np.isfinite(rec[n]).all()
                                              for n in dtype.names
                                              if dtype[n].base.kind == "f"):
                return rec
    # the kind of each cell: "i" or "f", or another dtype kind for text
    kinds = "".join(dtype[n].base.kind * math.prod(dtype[n].shape)
                    for n in dtype.names)
    for line, lineno in zip(lines, linenos):
        cells = line.split(delimiter)
        try:
            if not line.isascii():
                raise ValueError("a row of numbers must be ASCII text")
            if len(cells) != len(kinds):
                raise ValueError(f"expected {len(kinds)} columns, got {len(cells)}")
            for cell, kind in zip(cells, kinds):
                if kind in "if":
                    number(cell, kind == "i")
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

