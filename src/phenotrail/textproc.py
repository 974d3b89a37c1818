"""Clinical note model, patient roster, sentence segmentation and
calendar alignment.

Notes arrive as JSON-lines (patient_id, note_id, date, text) and patients
as a CSV roster keyed by PCR test date, read into one ``Roster``.
Segmentation is rule based: sentence terminators and blank lines split,
a short guard list of clinical abbreviations suppresses false splits.
"""

from __future__ import annotations

import json
import re
from array import array
from contextlib import suppress
from datetime import date
from itertools import repeat
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import InputError, csv_rows

# Tokens whose trailing period is an abbreviation, not a sentence end.
ABBREVIATION_GUARDS = frozenset({"dr", "pt", "hx", "mr", "mrs", "vs"})

NOTE_KEYS = ("patient_id", "note_id", "date", "text")
PATIENT_HEADER = ("patient_id", "pcr_date", "pcr_result")

POSITIVE = "positive"
NEGATIVE = "negative"

_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_TERMINATOR_RE = re.compile(r"[.!?]+")
# Where segment_sentences can split a text that holds no line break.
_SPLIT_POINT_RE = re.compile(r"[.!?]\s")
_BLANK_LINE_RE = re.compile(r"\n[ \t]*\n+")


class ClinicalNote(NamedTuple):
    patient_id: str
    note_id: str
    date: date
    text: str


class PatientRecord(NamedTuple):
    """One roster row, as ``synth`` generates it."""

    patient_id: str
    pcr_date: date
    pcr_result: str  # POSITIVE | NEGATIVE


def relative_day(note_date: date, pcr_date: date) -> int:
    """Signed whole-day difference; the PCR test date is day 0."""
    return (note_date - pcr_date).days


def _parse_date(text: str) -> date:
    """``text`` as a date; ValueError unless it is exactly YYYY-MM-DD."""
    if _DATE_RE.fullmatch(text) is None:
        raise ValueError(f"not YYYY-MM-DD: {text!r}")
    return date.fromisoformat(text)


class Roster:
    """The patient roster, held once.

    Patient i is the i-th distinct id of the rows the roster is built
    from.  A patient with several rows keeps the earliest PCR date; when
    two results share that date the positive one wins.  Each patient is
    in one PCR arm: bit i of ``positive`` is set when patient i tested
    positive.
    """

    def __init__(self, rows: Iterable[tuple[str, int, bool]]):
        """``rows``: (patient id, PCR date ordinal, positive result)."""
        index: dict[str, int] = {}
        days = array("i")
        arms = bytearray()  # b"1" at each positive patient, b"0" at the others
        for patient_id, day, positive in rows:
            i = index.setdefault(patient_id, len(days))
            if i == len(days):
                days.append(day)
                arms.append(0x31 if positive else 0x30)
            elif day < days[i] or (day == days[i] and positive):
                days[i], arms[i] = day, 0x31 if positive else 0x30
        self.ids = tuple(index)  # in roster order
        self.index = index  # patient id -> i
        self.pcr_days = days  # i -> the PCR date's ordinal
        self.positive = int(arms[::-1] or b"0", 2)

    def arms(self) -> list[str]:
        """Each patient's PCR arm, in roster order."""
        flags = format(self.positive, "b").zfill(len(self.ids))[::-1]
        return [POSITIVE if flag == "1" else NEGATIVE for flag in flags[:len(self.ids)]]


def fingerprint(text: str) -> str:
    """Lowercased, whitespace-collapsed sentence identity."""
    return " ".join(text.lower().split())


def segment_sentences(text: str) -> list[str]:
    """Split a note text into its ordered sentences, each stripped and
    non-empty.

    Boundaries occur after runs of ``.!?`` followed by whitespace or end
    of text, and at blank lines.  A period directly after a guard
    abbreviation does not split.  Text without any terminator yields a
    single sentence; empty text yields none.
    """
    sentences: list[str] = []
    for block in _BLANK_LINE_RE.split(text):
        start = 0
        for match in _TERMINATOR_RE.finditer(block):
            end = match.end()
            if end < len(block) and not block[end].isspace():
                continue
            if match.group() == "." and _is_guarded(block, match.start()):
                continue
            sentences.append(block[start:end].strip())
            start = end
        sentences.append(block[start:].strip())
    return [sentence for sentence in sentences if sentence]


def sentence_texts(text: str) -> list[str]:
    """The same sentences as ``segment_sentences(text)``.

    A text without a line break or a terminator followed by whitespace
    is at most one sentence, its stripped text, and skips the segmenter.
    """
    if "\n" not in text and _SPLIT_POINT_RE.search(text) is None:
        text = text.strip()
        return [text] if text else []
    return segment_sentences(text)


def _is_guarded(block: str, term_start: int) -> bool:
    i = term_start
    while i > 0 and block[i - 1].isalpha():
        i -= 1
    word = block[i:term_start].lower()
    if not word or word not in ABBREVIATION_GUARDS:
        return False
    return i == 0 or not block[i - 1].isalnum()


# ---------------------------------------------------------------------------
# File ingestion


def parse_note_line(line: str, lineno: int, dates: dict[str, date]) -> ClinicalNote:
    """Parse one JSON-lines record; ``dates`` caches parsed date strings."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InputError(f"notes line {lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise InputError(f"notes line {lineno}: expected an object")
    try:
        fields = (obj["patient_id"], obj["note_id"], obj["date"], obj["text"])
    except KeyError:
        missing = [k for k in NOTE_KEYS if k not in obj]
        raise InputError(f"notes line {lineno}: missing keys {missing}") from None
    for key, value in zip(NOTE_KEYS, fields):
        if not isinstance(value, str):
            raise InputError(
                f"notes line {lineno}: {key} must be a string, got {value!r}"
            )
        if not value.isascii() and not encodable(value):  # isascii is O(1)
            raise InputError(f"notes line {lineno}: {key} holds a lone surrogate escape")
    patient_id, note_id, raw_date, text = fields
    note_date = dates.get(raw_date)
    if note_date is None:
        try:
            note_date = dates[raw_date] = _parse_date(raw_date)
        except ValueError:
            raise InputError(
                f"notes line {lineno}: date {raw_date!r} is not YYYY-MM-DD"
            ) from None
    return ClinicalNote(patient_id, note_id, note_date, text)


def encodable(text: str) -> bool:
    """Whether ``text`` holds no lone surrogate, so that it encodes as UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def parse_notes(
    lines: Iterable[str], lineno: int = 1, seen: dict[str, int] | None = None
) -> Iterator[ClinicalNote]:
    """Parse JSON-lines records, the first numbered ``lineno``, enforcing
    unique note ids; ``seen`` maps each note id read so far to its line."""
    seen = {} if seen is None else seen
    dates: dict[str, date] = {}
    for lineno, line in enumerate(lines, start=lineno):
        if not line.strip():
            continue
        note = parse_note_line(line, lineno, dates)
        if seen.setdefault(note.note_id, lineno) != lineno:
            raise duplicate_note_error(note.note_id, lineno)
        yield note


def decode_note_chunk(lines: list[str]) -> list:
    """Each line's ``json.loads``, by one decode of ``[line 1,line 2,...]``
    where the n lines pass a guard, else None for every line.

    The guard: every line ends in ``}`` and LF (the last is given its LF),
    the lines hold n ``{`` and no ``[``, and the array decodes to n dicts.
    Proof that dict k is then line k's own: strict JSON has no raw LF in a
    string, so the ``}`` ending each line closes an object.  The n dicts
    open at n of the n ``{``, so they are the only objects (with no ``[``,
    the only containers) and no string holds a ``{``.  So dict k closes
    where line k ends, and all else is the array's whitespace and the
    join's commas.  So line k is dict k between whitespace, which
    ``json.loads`` reads as dict k.
    """
    if lines[-1:] and not lines[-1].endswith("\n"):
        lines = [*lines[:-1], lines[-1] + "\n"]
    body, records = ",".join(lines), []
    if all(map(str.endswith, lines, repeat("}\n"))) and body.count("{") == len(lines) \
            and "[" not in body:
        with suppress(ValueError, RecursionError):  # json.loads of some line raises it too
            records = json.loads(f"[{body}]")
    if len(records) == len(lines) and set(map(type, records)) <= {dict}:
        return records
    return [None] * len(lines)


def duplicate_note_error(note_id: str, lineno: int) -> InputError:
    return InputError(f"notes line {lineno}: duplicate note_id {note_id!r}")


_RESULT_ALIASES = {"pos": True, "neg": False}  # -> in the positive arm


def load_patients(source: IO[str] | str) -> Roster:
    """Read the patient roster CSV."""
    return Roster(_roster_rows(csv_rows(source, "patients", PATIENT_HEADER)))


def _roster_rows(rows: Iterable[tuple[int, list[str]]]) -> Iterator[tuple[str, int, bool]]:
    """(patient id, PCR date ordinal, positive result) per roster row."""
    # Parsed values by their raw field, spaces included.
    days: dict[str, int] = {}
    results: dict[str, bool] = {}
    for lineno, (raw_id, raw_date, raw_result) in rows:
        patient_id = raw_id.strip()
        if not patient_id:
            raise InputError(f"patients line {lineno}: empty patient_id")
        day = days.get(raw_date)
        if day is None:
            try:
                day = days[raw_date] = _parse_date(raw_date.strip()).toordinal()
            except ValueError:
                raise InputError(
                    f"patients line {lineno}: pcr_date {raw_date.strip()!r} is not YYYY-MM-DD"
                ) from None
        positive = results.get(raw_result)
        if positive is None:
            positive = _RESULT_ALIASES.get(raw_result.strip().lower())
            if positive is None:
                raise InputError(
                    f"patients line {lineno}: pcr_result must be pos or neg, "
                    f"got {raw_result.strip()!r}"
                )
            results[raw_result] = positive
        yield patient_id, day, positive
