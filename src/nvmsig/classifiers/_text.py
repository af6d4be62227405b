"""Model-file text encoding shared by the model header and the core blocks."""

from itertools import repeat

import numpy as np

from .._atomic import read_block, read_lines
from ..errors import ParseError


def fmt(x: float) -> str:
    return f"{float(x):.9g}"


def fmt_vec(v) -> str:
    """`fmt` of each value, space-separated, from one `%` template."""
    v = np.asarray(v, dtype=np.float64).tolist()
    return ("%.9g " * len(v))[:-1] % tuple(v)


class Reader:
    def __init__(self, path):
        self.lines = read_lines(path)
        self.pos = 0

    def next(self, expect: str | None = None):
        if self.pos >= len(self.lines):
            raise ParseError("unexpected end of model file",
                             line=len(self.lines))
        line = self.lines[self.pos]
        self.pos += 1
        if expect is not None and not line.startswith(expect + " ") \
                and line != expect:
            raise ParseError(f"expected '{expect} ...'", line=self.pos)
        return line

    def fail(self, msg):
        raise ParseError(msg, line=self.pos)

    def rows(self, n) -> range:
        """The 0-based indices of the next `n` lines, which the reader passes;
        the count is checked before it sizes an array."""
        if not 0 <= n <= len(self.lines) - self.pos:
            self.fail(f"count {n} does not fit the {len(self.lines) - self.pos} "
                      "lines left")
        self.pos += n
        return range(self.pos - n, self.pos)

    def block(self, prefix, rows, dtype):
        """One record of `dtype` from each line at the 0-based indices `rows`:
        `prefix`, then the record's values separated by whitespace (see
        `read_block`)."""
        lines = [self.lines[i] for i in rows]
        if not all(map(str.startswith, lines, repeat(prefix + " "))):
            self.pos = 1 + next(i for i, line in zip(rows, lines)
                                if not line.startswith(prefix + " "))
            self.fail(f"expected '{prefix} ...'")
        if not lines:
            return np.empty(0, dtype)
        # a bytes field takes the prefix, so no line is copied to cut it;
        # 8 bytes keep the number fields aligned
        dtype = [("prefix", "S8"), *np.dtype(dtype).descr]
        return read_block(lines, [i + 1 for i in rows], [(dtype, None)])[0]

    def vector(self, prefix, n, dtype=np.float64):
        """The `n` values after `prefix` on the next line (see `block`)."""
        rows = self.rows(1)
        # checked before `n` sizes the record: a line holds fewer values
        # than characters
        if not 0 <= n <= len(self.lines[rows[0]]):
            self.fail(f"{prefix}: expected {n} values")
        return self.block(prefix, rows, [("v", dtype, n)])["v"][0]

    def tags(self, n_tags):
        tags = self.vector("tags", n_tags, np.int64)
        if (np.diff(tags) <= 0).any():  # score columns are found by bisection
            self.fail("tags must be distinct and ascending")
        return tags
