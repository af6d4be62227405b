"""Model-file text encoding shared by the model header and the core blocks."""

import numpy as np

from .._atomic import read_lines
from ..errors import ParseError


def fmt(x: float) -> str:
    return f"{float(x):.9g}"


def fmt_vec(v) -> str:
    return " ".join(fmt(x) for x in v)


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

    def count(self, text) -> int:
        """A count of lines still to come, checked before it sizes an array."""
        n = int(text)
        if not 0 <= n <= len(self.lines) - self.pos:
            self.fail(f"count {n} does not fit the {len(self.lines) - self.pos} "
                      "lines left")
        return n

    def floats(self, parts, n, what):
        if len(parts) != n:
            self.fail(f"{what}: expected {n} values, got {len(parts)}")
        return np.array([float(p) for p in parts])

    def tags(self, n_tags):
        tags = np.array([int(t) for t in self.next("tags").split()[1:]],
                        dtype=np.int64)
        if len(tags) != n_tags:
            self.fail(f"expected {n_tags} tags")
        return tags
