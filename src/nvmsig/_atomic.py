"""Text-file access shared by every artifact writer and every loader."""

import contextlib
import os

from .errors import ParseError


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

