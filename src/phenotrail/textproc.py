"""Clinical note model, sentence segmentation and calendar alignment.

Notes arrive as JSON-lines (patient_id, note_id, date, text) and patients
as a CSV roster keyed by PCR test date.  Segmentation is rule based:
sentence terminators and blank lines split, a short guard list of
clinical abbreviations suppresses false splits.
"""

from __future__ import annotations

import csv
import io
import json
import re
from datetime import date
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import InputError, open_text

# Tokens whose trailing period is an abbreviation, not a sentence end.
ABBREVIATION_GUARDS = frozenset({"dr", "pt", "hx", "mr", "mrs", "vs"})

NOTE_KEYS = ("patient_id", "note_id", "date", "text")
PATIENT_HEADER = ("patient_id", "pcr_date", "pcr_result")

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
    patient_id: str
    pcr_date: date
    pcr_result: str  # "positive" | "negative"


def relative_day(note_date: date, pcr_date: date) -> int:
    """Signed whole-day difference; the PCR test date is day 0."""
    return (note_date - pcr_date).days


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
        if not value.isascii() and not _encodable(value):  # isascii is O(1)
            raise InputError(f"notes line {lineno}: {key} holds a lone surrogate escape")
    patient_id, note_id, raw_date, text = fields
    note_date = dates.get(raw_date)
    if note_date is None:
        try:
            note_date = dates[raw_date] = date.fromisoformat(raw_date)
        except ValueError:
            raise InputError(
                f"notes line {lineno}: date {raw_date!r} is not YYYY-MM-DD"
            ) from None
    return ClinicalNote(patient_id, note_id, note_date, text)


def _encodable(text: str) -> bool:
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


def duplicate_note_error(note_id: str, lineno: int) -> InputError:
    return InputError(f"notes line {lineno}: duplicate note_id {note_id!r}")


_RESULT_ALIASES = {"pos": "positive", "neg": "negative"}


def load_patients(source: IO[str] | str) -> dict[str, PatientRecord]:
    """Read the patient roster CSV; one record per patient.

    Duplicate rows for one patient keep the earliest pcr_date; when two
    results share that date the positive one wins.  A file without
    double quotes, CR or NUL characters is split into fields directly;
    any other file goes through the csv module, with the same results
    and errors.
    """
    if isinstance(source, str):
        with open_text(source, "patients", newline="") as handle:
            return load_patients(handle)
    text = source.read()
    if '"' in text or "\r" in text or "\0" in text:
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            return _roster_records(reader)
        except csv.Error as exc:
            raise InputError(f"patients line {reader.line_num}: {exc}") from None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the text after the last line end
    return _roster_records(line.split(",") if line else [] for line in lines)


def _roster_records(rows: Iterable[list[str]]) -> dict[str, PatientRecord]:
    rows = iter(rows)
    header = next(rows, None)
    if header is None:
        raise InputError("patients file is empty")
    if tuple(h.strip() for h in header) != PATIENT_HEADER:
        raise InputError(
            f"patients header must be {','.join(PATIENT_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )
    records: dict[str, PatientRecord] = {}
    # Parsed values by their raw field, spaces included.
    dates: dict[str, date] = {}
    results: dict[str, str] = {}
    make = tuple.__new__  # skips the NamedTuple's Python-level __new__
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 3:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            raise InputError(f"patients line {lineno}: expected 3 fields, got {len(row)}")
        raw_id, raw_date, raw_result = row
        patient_id = raw_id.strip()
        if not patient_id:
            raise InputError(f"patients line {lineno}: empty patient_id")
        pcr_date = dates.get(raw_date)
        if pcr_date is None:
            try:
                pcr_date = dates[raw_date] = date.fromisoformat(raw_date.strip())
            except ValueError:
                raise InputError(
                    f"patients line {lineno}: pcr_date {raw_date.strip()!r} is not YYYY-MM-DD"
                ) from None
        result = results.get(raw_result)
        if result is None:
            result = _RESULT_ALIASES.get(raw_result.strip().lower())
            if result is None:
                raise InputError(
                    f"patients line {lineno}: pcr_result must be pos or neg, "
                    f"got {raw_result.strip()!r}"
                )
            results[raw_result] = result
        existing = records.get(patient_id)
        if existing is None or pcr_date < existing.pcr_date or (
            pcr_date == existing.pcr_date and result == "positive"
        ):
            records[patient_id] = make(PatientRecord, (patient_id, pcr_date, result))
    return records
