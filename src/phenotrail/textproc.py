"""Clinical note model, sentence segmentation and calendar alignment.

Notes arrive as JSON-lines (patient_id, note_id, date, text) and patients
as a CSV roster keyed by PCR test date.  Segmentation is rule based:
sentence terminators and blank lines split, a short guard list of
clinical abbreviations suppresses false splits.  Template sentences are
detected corpus-wide as verbatim text duplicated across many distinct
patients.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from datetime import date
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import InputError

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


@dataclass
class Sentence:
    note_id: str
    index: int
    start: int  # character offsets into the note text
    end: int
    text: str
    is_template: bool = False


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


def segment_sentences(note: ClinicalNote) -> list[Sentence]:
    """Split note text into ordered, non-overlapping sentences.

    Boundaries occur after runs of ``.!?`` followed by whitespace or end
    of text, and at blank lines.  A period directly after a guard
    abbreviation does not split.  Text without any terminator yields a
    single sentence; empty text yields none.
    """
    sentences: list[Sentence] = []
    text = note.text
    for block_start, block_end in _blocks(text):
        block = text[block_start:block_end]
        piece_start = 0
        for match in _TERMINATOR_RE.finditer(block):
            end = match.end()
            if end < len(block) and not block[end].isspace():
                continue
            if match.group() == "." and _is_guarded(block, match.start()):
                continue
            _append_sentence(sentences, note, block, block_start, piece_start, end)
            piece_start = end
        _append_sentence(sentences, note, block, block_start, piece_start, len(block))
    return sentences


def sentence_texts(note: ClinicalNote) -> list[str]:
    """The texts of ``segment_sentences(note)``.

    A note without a line break or a terminator followed by whitespace
    is at most one sentence, its stripped text; no Sentence objects are
    built for it.
    """
    text = note.text
    if "\n" not in text and _SPLIT_POINT_RE.search(text) is None:
        text = text.strip()
        return [text] if text else []
    return [sentence.text for sentence in segment_sentences(note)]


def _blocks(text: str) -> Iterator[tuple[int, int]]:
    pos = 0
    for match in _BLANK_LINE_RE.finditer(text):
        yield pos, match.start()
        pos = match.end()
    yield pos, len(text)


def _is_guarded(block: str, term_start: int) -> bool:
    i = term_start
    while i > 0 and block[i - 1].isalpha():
        i -= 1
    word = block[i:term_start].lower()
    if not word or word not in ABBREVIATION_GUARDS:
        return False
    return i == 0 or not block[i - 1].isalnum()


def _append_sentence(
    sentences: list[Sentence],
    note: ClinicalNote,
    block: str,
    block_start: int,
    start: int,
    end: int,
) -> None:
    piece = block[start:end]
    stripped = piece.strip()
    if not stripped:
        return
    lead = len(piece) - len(piece.lstrip())
    abs_start = block_start + start + lead
    abs_end = abs_start + len(stripped)
    sentences.append(
        Sentence(
            note_id=note.note_id,
            index=len(sentences),
            start=abs_start,
            end=abs_end,
            text=stripped,
        )
    )


def collect_fingerprint_patients(
    pairs: Iterable[tuple[str, str]],
) -> dict[str, set[str]]:
    """Aggregate (sentence_text, patient_id) pairs into fingerprint->patients."""
    table: dict[str, set[str]] = {}
    for text, patient_id in pairs:
        table.setdefault(fingerprint(text), set()).add(patient_id)
    return table


def detect_templates(
    pairs: Iterable[tuple[str, str]],
    threshold: int = 20,
) -> set[str]:
    """Fingerprints occurring in notes of at least ``threshold`` patients.

    ``pairs`` are (sentence_text, patient_id) tuples for the whole corpus.
    Repetition within one patient's notes does not count.
    """
    if threshold < 2:
        raise InputError(f"template threshold must be >= 2, got {threshold}")
    table = collect_fingerprint_patients(pairs)
    return {fp for fp, patients in table.items() if len(patients) >= threshold}


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


def load_notes(source: IO[str] | str) -> list[ClinicalNote]:
    """Read a JSON-lines note corpus, enforcing unique note ids."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return load_notes(handle)
    notes: list[ClinicalNote] = []
    seen: set[str] = set()
    dates: dict[str, date] = {}
    for lineno, line in enumerate(source, start=1):
        if not line.strip():
            continue
        note = parse_note_line(line, lineno, dates)
        if note.note_id in seen:
            raise InputError(f"notes line {lineno}: duplicate note_id {note.note_id!r}")
        seen.add(note.note_id)
        notes.append(note)
    return notes


_RESULT_ALIASES = {"pos": "positive", "neg": "negative"}


def load_patients(source: IO[str] | str) -> dict[str, PatientRecord]:
    """Read the patient roster CSV; one record per patient.

    Duplicate rows for one patient keep the earliest pcr_date; when two
    results share that date the positive one wins.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return load_patients(handle)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("patients file is empty") from None
    if tuple(h.strip() for h in header) != PATIENT_HEADER:
        raise InputError(
            f"patients header must be {','.join(PATIENT_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )
    records: dict[str, PatientRecord] = {}
    dates: dict[str, date] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise InputError(f"patients line {lineno}: expected 3 fields, got {len(row)}")
        patient_id, raw_date, raw_result = map(str.strip, row)
        if not patient_id:
            raise InputError(f"patients line {lineno}: empty patient_id")
        pcr_date = dates.get(raw_date)
        if pcr_date is None:
            try:
                pcr_date = dates[raw_date] = date.fromisoformat(raw_date)
            except ValueError:
                raise InputError(
                    f"patients line {lineno}: pcr_date {raw_date!r} is not YYYY-MM-DD"
                ) from None
        result = _RESULT_ALIASES.get(raw_result.lower())
        if result is None:
            raise InputError(
                f"patients line {lineno}: pcr_result must be pos or neg, got {raw_result!r}"
            )
        record = PatientRecord(patient_id, pcr_date, result)
        existing = records.get(patient_id)
        if existing is None:
            records[patient_id] = record
        elif record.pcr_date < existing.pcr_date:
            records[patient_id] = record
        elif record.pcr_date == existing.pcr_date and result == "positive":
            records[patient_id] = record
    return records
