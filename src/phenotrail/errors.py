"""Exception types shared across the package, and the one way input text
files are opened."""

from __future__ import annotations

import codecs
from contextlib import contextmanager
from typing import IO, Iterator


class InputError(ValueError):
    """Invalid or malformed user-supplied input (files, counts, config).

    The CLI maps this to exit code 2; everything else is an internal
    error (exit code 1).
    """


@contextmanager
def open_text(path: str, what: str, newline: str | None = None) -> Iterator[IO[str]]:
    """``path`` opened for reading as UTF-8.

    Bytes that are not UTF-8 raise InputError naming ``what`` (the kind
    of file), the first line that holds such bytes, and the path.
    """
    with open(path, "r", encoding="utf-8", newline=newline) as handle:
        try:
            yield handle
        except UnicodeDecodeError:
            line = _first_non_utf8_line(path)
            where = f"{what} line {line}" if line is not None else what
            raise InputError(f"{where}: not valid UTF-8 in {path!r}") from None


def _first_non_utf8_line(path: str) -> int | None:
    """The 1-based line of the first byte that does not decode as UTF-8."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    line = 1
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            pending = len(decoder.getstate()[0])  # a split sequence holds no newline
            try:
                decoder.decode(block)
            except UnicodeDecodeError as exc:
                return line + block.count(b"\n", 0, max(exc.start - pending, 0))
            line += block.count(b"\n")
    try:
        decoder.decode(b"", final=True)
    except UnicodeDecodeError:
        return line  # a sequence cut off by the end of the file
    return None
