"""Exception types shared across the package, and the one way each of
these is done: input text files are opened, CSV inputs are read, inputs
are read in runs of whole lines and a JSON input's text is decoded."""

from __future__ import annotations

import codecs
import csv
import json
from contextlib import contextmanager
from typing import IO, Iterator, Sequence


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


def line_blocks(handle: IO, size: int) -> Iterator:
    """The rest of ``handle``, text or binary, in runs of whole lines: each
    read of ``size`` characters or bytes is cut after its last newline, and
    a read without one is held until one comes.  The last run holds what
    follows the last newline.  No run is empty."""
    pending: list = []
    while block := handle.read(size):
        cut = block.rfind("\n" if isinstance(block, str) else b"\n") + 1
        if not cut:
            pending.append(block)
            continue
        pending.append(block[:cut])
        yield block[:0].join(pending)
        pending = [block[cut:]]
    tail = block.join(pending)  # ``block`` is the last read: "" or b""
    if tail:
        yield tail


def json_value(text: str, where: str):
    """``json.loads(text)``, or InputError "``where``: invalid JSON (...)".

    Besides malformed text, that covers what ``json.loads`` raises as
    ValueError or RecursionError: an integer of more digits than int
    conversion allows, or nesting deeper than the recursion limit.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason = exc.msg
    except (ValueError, RecursionError) as exc:
        reason = str(exc)
    raise InputError(f"{where}: invalid JSON ({reason})")


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


def csv_rows(
    source: IO[str] | str, what: str, header: Sequence[str] | None = None
) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) for each row of a CSV file or text stream.

    The first row is the header.  Given ``header``, its names, stripped,
    must be exactly those, and only the rows after it are yielded;
    without, it is yielded first, as line 1.  Empty and whitespace-only
    lines are skipped, and every other row must have as many fields as
    the header.  A row's number is the line it starts on.  A file that
    breaks one of these rules, or that the csv module cannot parse,
    raises InputError naming ``what`` (the kind of file) and the line.
    """
    if isinstance(source, str):
        with open_text(source, what, newline="") as handle:
            yield from csv_rows(handle, what, header)
        return
    reader = csv.reader(source)
    try:
        first = next(reader, None)
        if first is None:
            raise InputError(f"{what} file is empty")
        if header is None:
            yield 1, first
        elif tuple(name.strip() for name in first) != tuple(header):
            raise InputError(f"{what} header must be {','.join(header)!r}, got {','.join(first)!r}")
        start = reader.line_num + 1  # a quoted field may hold line breaks
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if len(row) < 2 and not "".join(row).strip():
                continue  # an empty or whitespace-only line
            if len(row) != len(first):
                raise InputError(
                    f"{what} line {lineno}: expected {len(first)} fields, got {len(row)}"
                )
            yield lineno, row
    except csv.Error as exc:
        raise InputError(f"{what} line {reader.line_num}: {exc}") from None
