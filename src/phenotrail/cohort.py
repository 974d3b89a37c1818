"""Presence map: which patients showed which phenotype on which day.

The pipeline joins notes, the patient roster, the term matcher and an
assertion classifier.  Only mentions labeled YES count (optionally MAYBE
as a sensitivity mode); template sentences are dropped first.  The map
is keyed by (group_id, relative day).  Each cell is a set of patients
held as the set bits of a Python int, where bit i stands for the i-th
patient of the roster, so repeated mentions of one phenotype by one
patient on one day collapse.  A window is the OR of its days, and the
window, day and pair counts are bit counts of ANDs with the roster's
positive-arm bits.

Per-note work is embarrassingly parallel; partial tables from workers
merge by OR, so the result is identical for any worker count.  The notes
path never imports numpy; the export loader imports it to parse and
index the export in one vectorised pass per chunk.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .assertion import AssertionLabel, Classifier
from .errors import InputError, open_text
from .lexicon import TermMatcher
from .textproc import (
    ClinicalNote,
    PatientRecord,
    fingerprint,
    relative_day,
    sentence_texts,
)

POSITIVE = "positive"
NEGATIVE = "negative"

DEFAULT_DAY_RANGE = (-14, 14)
DEFAULT_WINDOW = (-7, -1)

PRESENCE_HEADER = ("group_id", "relative_day", "cohort", "patient_count")
PRESENCE_LONG_HEADER = ("group_id", "relative_day", "cohort", "patient_id")
REJECTS_HEADER = ("note_id", "reason")

# Notes per pool task; smaller corpora are scanned in-process.
_CHUNK = 2000

# Per note, in note order: its sentences as (text, fingerprint) pairs.
Segmented = Sequence[Sequence[tuple[str, str]]]


class PatientBits(int):
    """A set of roster indexes held as the set bits of an int.

    ``len`` counts the members, as it does for a set.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return self.bit_count()


# Per byte value: the positions of its set bits.
_BYTE_BITS = tuple(tuple(b for b in range(8) if value >> b & 1) for value in range(256))
_NONZERO_RUN = re.compile(rb"[^\x00]+")


def _indexes(bits: int) -> Iterator[int]:
    """The positions of the set bits of ``bits``, ascending."""
    data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    for run in _NONZERO_RUN.finditer(data):
        base = run.start() * 8
        for value in run.group():
            for b in _BYTE_BITS[value]:
                yield base + b
            base += 8


def _bits(indexes: Iterable[int], size: int) -> int:
    """The int whose set bits are ``indexes``, each below ``size``."""
    cell = bytearray((size + 7) >> 3)
    for i in indexes:
        cell[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(cell, "little")


@dataclass
class SymptomPresenceTable:
    presence: dict[tuple[str, int], PatientBits]  # bit i: patient_ids[i]
    day_range: tuple[int, int]
    group_ids: tuple[str, ...]
    patient_ids: tuple[str, ...]  # every rostered patient, in roster order
    positive: int  # the bits of the PCR-positive patients

    def members(self, bits: int) -> set[str]:
        """The patient ids of the set bits of ``bits``."""
        ids = self.patient_ids
        return {ids[i] for i in _indexes(bits)}

    def patients(self, group_id: str, day: int) -> set[str]:
        return self.members(self.presence.get((group_id, day), 0))

    def arm_counts(self, bits: int) -> tuple[int, int]:
        """(k_pos, k_neg): how many of the patients in ``bits`` are in each PCR arm."""
        k_pos = (bits & self.positive).bit_count()
        return k_pos, bits.bit_count() - k_pos

    @property
    def cohort_sizes(self) -> dict[str, int]:
        """Rostered patients per PCR arm."""
        n_pos = self.positive.bit_count()
        return {POSITIVE: n_pos, NEGATIVE: len(self.patient_ids) - n_pos}

    @classmethod
    def from_roster(
        cls,
        presence: Mapping[tuple[str, int], int],
        patients: Mapping[str, PatientRecord],
        day_range: tuple[int, int],
        group_ids: Sequence[str] | None = None,
    ) -> SymptomPresenceTable:
        """The table over every rostered patient; bit i of a cell stands
        for the i-th patient of ``patients``.

        ``group_ids`` defaults to the groups that occur in ``presence``.
        """
        positive = _bits(
            (i for i, record in enumerate(patients.values()) if record.pcr_result == POSITIVE),
            len(patients),
        )
        if group_ids is None:
            group_ids = sorted({gid for gid, _day in presence})
        cells = {key: PatientBits(bits) for key, bits in presence.items()}
        return cls(cells, day_range, tuple(group_ids), tuple(patients), positive)


@dataclass(frozen=True)
class RejectedNote:
    note_id: str
    reason: str


def check_window(window: tuple[int, int], day_range: tuple[int, int]) -> None:
    """A window must be non-empty and lie inside the curated day range."""
    if window[0] > window[1]:
        raise InputError(f"empty window {window}")
    if window[0] < day_range[0] or window[1] > day_range[1]:
        raise InputError(f"window {window} outside day range {day_range}")


def segment_notes(notes: Sequence[ClinicalNote]) -> list[list[tuple[str, str]]]:
    """Each note's sentences as (text, fingerprint) pairs, in note order.

    This is the corpus's only segmentation pass; the template pass, the
    presence scan and the classification task walk all read its result.
    """
    return [[(text, fingerprint(text)) for text in sentence_texts(note)]
            for note in notes]


def _aligned(
    notes: Sequence[ClinicalNote],
    segmented: Segmented | None,
) -> Segmented:
    if segmented is None:
        return segment_notes(notes)
    if len(segmented) != len(notes):
        raise ValueError(f"{len(segmented)} segmented notes for {len(notes)} notes")
    return segmented


def corpus_fingerprints(
    notes: Sequence[ClinicalNote],
    segmented: Segmented | None = None,
) -> dict[str, set[str]]:
    """Fingerprint -> distinct patients over the whole corpus.

    ``segmented`` is ``segment_notes(notes)`` when the caller already has it.
    """
    table: dict[str, set[str]] = {}
    for note, pairs in zip(notes, _aligned(notes, segmented)):
        for _text, fp in pairs:
            table.setdefault(fp, set()).add(note.patient_id)
    return table


def template_fingerprints(
    notes: Sequence[ClinicalNote],
    threshold: int = 20,
    segmented: Segmented | None = None,
) -> set[str]:
    """Fingerprints of sentences written for at least ``threshold``
    distinct patients: boilerplate.  Repetition within one patient's
    notes does not count."""
    if threshold < 2:
        raise InputError(f"template threshold must be >= 2, got {threshold}")
    fingerprints = corpus_fingerprints(notes, segmented)
    return {fp for fp, patients in fingerprints.items() if len(patients) >= threshold}


def _kept_sentences(
    notes: Sequence[ClinicalNote],
    segmented: Segmented,
    patients: Mapping[str, PatientRecord],
    templates: frozenset[str],
    day_range: tuple[int, int],
) -> Iterator[tuple[str, int, str]]:
    """(patient_id, day, sentence) for each non-template sentence of an
    in-range note by a known patient, in corpus order."""
    lo, hi = day_range
    for note, pairs in zip(notes, segmented):
        record = patients.get(note.patient_id)
        if record is None:
            continue
        day = relative_day(note.date, record.pcr_date)
        if day < lo or day > hi:
            continue
        for text, fp in pairs:
            if fp not in templates:
                yield note.patient_id, day, text


def classification_tasks(
    notes: Sequence[ClinicalNote],
    patients: Mapping[str, PatientRecord],
    matcher: TermMatcher,
    templates: Iterable[str] = (),
    day_range: tuple[int, int] = DEFAULT_DAY_RANGE,
    segmented: Segmented | None = None,
) -> list[tuple[str, int, int]]:
    """(sentence, span_start, span_end) per mention, in the order in which a
    serial ``build_presence`` classifies them."""
    sentences = _kept_sentences(
        notes, _aligned(notes, segmented), patients, frozenset(templates), day_range
    )
    return [
        (text, mention.start, mention.end)
        for _pid, _day, text in sentences
        for mention in matcher.find_mentions(text)
    ]


def _scan(
    notes: Sequence[ClinicalNote],
    segmented: Segmented,
    patients: Mapping[str, PatientRecord],
    matcher: TermMatcher,
    classifier: Classifier,
    templates: frozenset[str],
    day_range: tuple[int, int],
    include_maybe: bool,
    index: Mapping[str, int],
) -> dict[tuple[str, int], int]:
    """(group, day) -> the bits of the patients with an accepted mention.

    ``index`` maps each rostered patient to its bit.
    """
    width = (len(index) + 7) >> 3
    cells: dict[tuple[str, int], bytearray] = {}
    accepted = {AssertionLabel.YES}
    if include_maybe:
        accepted.add(AssertionLabel.MAYBE)
    sentences = _kept_sentences(notes, segmented, patients, templates, day_range)
    for patient_id, day, text in sentences:
        for mention in matcher.find_mentions(text):
            label, _confidence = classifier.classify(text, (mention.start, mention.end))
            if label not in accepted:
                continue
            i = index[patient_id]
            for group_id in mention.group_ids:
                cell = cells.get((group_id, day))
                if cell is None:
                    cell = cells[(group_id, day)] = bytearray(width)
                cell[i >> 3] |= 1 << (i & 7)
    return {key: int.from_bytes(cell, "little") for key, cell in cells.items()}


_WORKER_STATE: dict = {}


def _worker_init(*args):
    _WORKER_STATE["args"] = args


def _worker_scan(bounds: tuple[int, int]) -> dict[tuple[str, int], int]:
    lo, hi = bounds
    notes, segmented, *rest = _WORKER_STATE["args"]
    return _scan(notes[lo:hi], segmented[lo:hi], *rest)


def build_presence(
    notes: Sequence[ClinicalNote],
    patients: Mapping[str, PatientRecord],
    matcher: TermMatcher,
    classifier: Classifier,
    templates: Iterable[str] = (),
    day_range: tuple[int, int] = DEFAULT_DAY_RANGE,
    include_maybe: bool = False,
    workers: int = 1,
    group_ids: Sequence[str] | None = None,
    segmented: Segmented | None = None,
) -> tuple[SymptomPresenceTable, list[RejectedNote]]:
    """Invert the corpus into (phenotype, day) -> patients with a YES mention.

    Notes for unknown patients are reported in the rejects list, never
    fatal.  Notes dated outside ``day_range`` are skipped.  The output is
    independent of note order and worker count.  ``segmented`` is
    ``segment_notes(notes)`` when the caller already has it; forked
    workers read it from the parent rather than segmenting again.
    """
    if day_range[0] > day_range[1]:
        raise InputError(f"empty day range {day_range}")
    index = {patient_id: i for i, patient_id in enumerate(patients)}
    args = (notes, _aligned(notes, segmented), patients, matcher, classifier, frozenset(templates),
            day_range, include_maybe, index)

    if workers <= 1 or len(notes) < _CHUNK:
        presence = _scan(*args)
    else:
        import multiprocessing  # only the pool needs it; keeps CLI start-up lean

        ctx = multiprocessing.get_context("fork")
        presence = {}
        with ctx.Pool(workers, initializer=_worker_init, initargs=args) as pool:
            bounds = [(i, i + _CHUNK) for i in range(0, len(notes), _CHUNK)]
            for partial in pool.imap(_worker_scan, bounds):
                for key, bits in partial.items():
                    presence[key] = presence.get(key, 0) | bits

    rejects = sorted(
        (RejectedNote(note.note_id, f"unknown patient_id {note.patient_id!r}")
         for note in notes if note.patient_id not in patients),
        key=lambda r: r.note_id,
    )

    return SymptomPresenceTable.from_roster(presence, patients, day_range, group_ids), rejects


def _window_bits(table: SymptomPresenceTable, window: tuple[int, int]) -> dict[str, int]:
    """Group id -> the OR of its cells over the window's days."""
    check_window(window, table.day_range)
    presence = table.presence
    days = range(window[0], window[1] + 1)
    result: dict[str, int] = {}
    for group_id in table.group_ids:
        bits = 0
        for day in days:
            bits |= presence.get((group_id, day), 0)
        result[group_id] = bits
    return result


def window_presence(
    table: SymptomPresenceTable, from_day: int, to_day: int
) -> dict[str, tuple[set[str], set[str]]]:
    """Union daily sets over [from_day, to_day], split by PCR arm."""
    positive = table.positive
    return {
        group_id: (table.members(bits & positive), table.members(bits & ~positive))
        for group_id, bits in _window_bits(table, (from_day, to_day)).items()
    }


# ---------------------------------------------------------------------------
# The counts behind each statistics table


def window_counts(
    table: SymptomPresenceTable, window: tuple[int, int]
) -> list[tuple[str, int, int]]:
    """(group_id, k_pos, k_neg) per group over the window, by group id."""
    windowed = _window_bits(table, window)
    return [(gid, *table.arm_counts(bits)) for gid, bits in sorted(windowed.items())]


def daily_counts(
    table: SymptomPresenceTable, window: tuple[int, int]
) -> list[tuple[str, int, int, int]]:
    """(group_id, day, k_pos, k_neg) rows over the window."""
    check_window(window, table.day_range)
    presence = table.presence
    return [
        (group_id, day, *table.arm_counts(presence.get((group_id, day), 0)))
        for group_id in table.group_ids
        for day in range(window[0], window[1] + 1)
    ]


def pair_counts(
    table: SymptomPresenceTable, window: tuple[int, int]
) -> list[tuple[str, str, int, int]]:
    """Patients with both phenotypes at least once inside the window."""
    if len(table.group_ids) < 2:
        raise InputError("pairwise analysis needs at least 2 phenotype groups")
    windowed = _window_bits(table, window)
    ordered = sorted(windowed)
    rows: list[tuple[str, str, int, int]] = []
    for i, group_a in enumerate(ordered):
        bits_a = windowed[group_a]
        for group_b in ordered[i + 1:]:
            rows.append((group_a, group_b, *table.arm_counts(bits_a & windowed[group_b])))
    return rows


# ---------------------------------------------------------------------------
# Exports


def write_presence_csv(table: SymptomPresenceTable, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(PRESENCE_HEADER)
    for (group_id, day), bits in sorted(table.presence.items()):
        for cohort, count in zip((POSITIVE, NEGATIVE), table.arm_counts(bits)):
            if count:
                writer.writerow([group_id, day, cohort, count])


def write_presence_long_csv(table: SymptomPresenceTable, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(PRESENCE_LONG_HEADER)
    ids = table.patient_ids
    arms = [NEGATIVE] * len(ids)
    for i in _indexes(table.positive):
        arms[i] = POSITIVE
    for (group_id, day), bits in sorted(table.presence.items()):
        for patient_id, i in sorted((ids[i], i) for i in _indexes(bits)):
            writer.writerow([group_id, day, arms[i], patient_id])


def write_rejects_csv(rejects: Sequence[RejectedNote], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(REJECTS_HEADER)
    for reject in rejects:
        writer.writerow([reject.note_id, reject.reason])


def load_presence_long_csv(
    source: IO[str] | str,
    patients: Mapping[str, PatientRecord],
    day_range: tuple[int, int] = DEFAULT_DAY_RANGE,
    group_ids: Sequence[str] | None = None,
) -> SymptomPresenceTable:
    """Rebuild a presence table from the per-patient long export.

    With ``group_ids`` given (a lexicon's groups), the table covers exactly
    those groups and a row naming any other group is an error.

    The export is parsed by ``_index_export`` in one vectorised pass per
    chunk.  A file that pass does not accept (quoted fields, spaces,
    non-ASCII bytes, CR line ends, a wrong field count or any invalid
    row) is read by ``_walk_export``, the row-by-row reference, which
    raises the error of the first bad row.
    """
    known = None if group_ids is None else frozenset(group_ids)
    if isinstance(source, str):
        with open(source, "rb") as raw:
            presence = _index_export(raw, patients, known)
        if presence is None:
            with open_text(source, "presence", newline="") as handle:
                presence = _walk_export(handle, patients, known)
    else:
        text = source.read()
        presence = _index_export(io.BytesIO(text.encode()), patients, known) \
            if text.isascii() else None
        if presence is None:
            presence = _walk_export(io.StringIO(text), patients, known)
    return SymptomPresenceTable.from_roster(presence, patients, day_range, group_ids)


def _walk_export(
    source: IO[str],
    patients: Mapping[str, PatientRecord],
    known: frozenset[str] | None,
) -> dict[tuple[str, int], int]:
    """The export's cells as roster bits, read one csv row at a time."""
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("presence file is empty") from None
    if tuple(h.strip() for h in header) != PRESENCE_LONG_HEADER:
        raise InputError(
            f"presence header must be {','.join(PRESENCE_LONG_HEADER)!r}"
        )
    index = {patient_id: i for i, patient_id in enumerate(patients)}
    cells: dict[tuple[str, int], set[int]] = {}
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise InputError(f"presence line {lineno}: expected 4 fields")
            group_id, raw_day, cohort, patient_id = (f.strip() for f in row)
            try:
                day = int(raw_day)
            except ValueError:
                raise InputError(f"presence line {lineno}: bad relative_day {raw_day!r}") from None
            record = patients.get(patient_id)
            if record is None:
                raise InputError(f"presence line {lineno}: unknown patient {patient_id!r}")
            if record.pcr_result != cohort:
                raise InputError(
                    f"presence line {lineno}: cohort {cohort!r} does not match patient "
                    f"{patient_id!r} ({record.pcr_result})"
                )
            members = cells.get((group_id, day))
            if members is None:  # the first row of a group makes one of its keys
                if known is not None and group_id not in known:
                    raise InputError(f"presence line {lineno}: unknown group {group_id!r}")
                members = cells[(group_id, day)] = set()
            members.add(index[patient_id])
    except csv.Error as exc:
        raise InputError(f"presence line {reader.line_num}: {exc}") from None
    return {key: _bits(members, len(index)) for key, members in cells.items()}


# ---------------------------------------------------------------------------
# The vectorised export pass

_EXPORT_HEADER_LINE = (",".join(PRESENCE_LONG_HEADER) + "\n").encode()
_EXPORT_BLOCK = 1 << 21  # bytes read per chunk
_HASH_STEP = 0x9E3779B97F4A7C15


def _index_export(
    raw: IO[bytes],
    patients: Mapping[str, PatientRecord],
    known: frozenset[str] | None,
) -> dict[tuple[str, int], int] | None:
    """The export's cells as roster bits, or None when a row needs the
    row walker.

    Accepted rows are printable ASCII without spaces or double quotes,
    ended by LF, with exactly four fields; the header is exactly
    ``PRESENCE_LONG_HEADER``.  Every row must then be valid: a known
    patient, its own cohort, an int day and, with ``known``, a known
    group.  Each chunk resolves its rows to (cell, roster index) with
    array operations; Python parses one ``group,day,cohort`` prefix per
    run of rows that share it.  Patient ids are looked up by a hash of
    their bytes and then compared in whole, as 8-byte words, so a hash
    collision can only send the file to the walker.
    """
    import numpy as np

    if raw.readline(len(_EXPORT_HEADER_LINE)) != _EXPORT_HEADER_LINE:
        return None
    roster = _RosterKeys(np, patients)
    if roster.ids is None:
        return None
    cells: dict[tuple[str, int], int] = {}  # -> cell number
    prefixes: dict[bytes, tuple[int, bool]] = {}  # -> (cell number, positive cohort)
    row_cells, row_patients = [], []
    for body in _line_runs(raw):
        rows = _export_rows(np, body, roster, cells, prefixes, known)
        if rows is None:
            return None
        row_cells.append(rows[0])
        row_patients.append(rows[1])

    presence: dict[tuple[str, int], int] = {}
    if not cells:
        return presence
    cell_of_row = np.concatenate(row_cells)
    patient_of_row = np.concatenate(row_patients)
    order = np.argsort(cell_of_row, kind="stable")
    cell_of_row, patient_of_row = cell_of_row[order], patient_of_row[order]
    bounds = np.flatnonzero(np.diff(cell_of_row)) + 1
    member = np.zeros(len(roster.ids), dtype=bool)
    keys = list(cells)
    for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), len(cell_of_row)]):
        member[:] = False
        member[patient_of_row[lo:hi]] = True
        packed = np.packbits(member, bitorder="little").tobytes()
        presence[keys[cell_of_row[lo]]] = int.from_bytes(packed, "little")
    return presence


def _line_runs(raw: IO[bytes]) -> Iterator[bytes]:
    """The rest of ``raw`` as runs of whole lines, each ended by LF."""
    tail = b""
    for block in iter(lambda: raw.read(_EXPORT_BLOCK), b""):
        data = tail + block
        cut = data.rfind(b"\n") + 1
        if cut:
            yield data[:cut]
        tail = data[cut:]
    if tail:
        yield tail + b"\n"


def _words(np, buf, starts, lengths, n_words: int) -> list:
    """Each field ``buf[start:start + length]`` as ``n_words`` little-endian
    uint64 words, zero past the field's end.  ``buf`` ends in 8 spare bytes."""
    windows = np.lib.stride_tricks.as_strided(buf, shape=(len(buf) - 7, 8), strides=(1, 1))
    masks = np.array([(1 << 8 * v) - 1 for v in range(9)], dtype=np.uint64)
    last = len(buf) - 8
    words = []
    for k in range(n_words):
        word = windows[np.minimum(starts + 8 * k, last)].view("<u8").ravel()
        words.append(word & masks[np.clip(lengths - 8 * k, 0, 8)])
    return words


def _hash(np, lengths, words):
    h = lengths.astype(np.uint64)
    for word in words:
        h = (h ^ word) * np.uint64(_HASH_STEP)
    return h


class _RosterKeys:
    """The roster's ids as hashed words, for matching export fields."""

    def __init__(self, np, patients: Mapping[str, PatientRecord]):
        self.ids = None  # stays None when the roster cannot be matched vectorised
        records = list(patients.values())
        if any(r.pcr_result not in (POSITIVE, NEGATIVE) for r in records):
            return
        encoded = [patient_id.encode() for patient_id in patients]
        self.lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
        self.max_length = int(self.lengths.max()) if encoded else 0
        self.n_words = max(1, -(-self.max_length // 8))
        starts = np.cumsum(self.lengths) - self.lengths
        buf = np.frombuffer(b"".join(encoded) + bytes(8), dtype=np.uint8)
        self.words = _words(np, buf, starts, self.lengths, self.n_words)
        hashes = _hash(np, self.lengths, self.words)
        self.order = np.argsort(hashes, kind="stable")
        self.sorted_hashes = hashes[self.order]
        if np.any(self.sorted_hashes[1:] == self.sorted_hashes[:-1]):
            return  # two ids share a hash
        self.positive = np.fromiter((r.pcr_result == POSITIVE for r in records),
                                    dtype=bool, count=len(records))
        self.ids = tuple(patients)

    def lookup(self, np, lengths, words):
        """Roster index per field, or None when a field is not a rostered id."""
        if not len(self.ids) or int(lengths.max()) > self.max_length:
            return None
        at = np.searchsorted(self.sorted_hashes, _hash(np, lengths, words))
        at = np.minimum(at, len(self.ids) - 1)
        index = self.order[at]
        same = self.lengths[index] == lengths
        for word, roster_word in zip(words, self.words):
            same &= roster_word[index] == word
        return index if same.all() else None


# Bytes a row of the vectorised pass may hold: "!".."~" except '"', and LF.
_ROW_BYTES = frozenset(range(0x21, 0x7F)) - {0x22} | {0x0A}


def _export_rows(np, body: bytes, roster: _RosterKeys, cells, prefixes, known):
    """(cell number, roster index) per row of ``body``, whole LF-ended
    lines, or None when a row needs the row walker.  New cells and
    prefixes are added to ``cells`` and ``prefixes``."""
    buf = np.frombuffer(body + bytes(8), dtype=np.uint8)
    text = buf[:-8]
    allowed = np.zeros(256, dtype=bool)
    allowed[list(_ROW_BYTES)] = True
    if not allowed[text].all():
        return None
    ends = np.flatnonzero(text == 0x0A)
    starts = np.concatenate(([0], ends[:-1] + 1))
    filled = ends > starts  # blank lines are skipped
    starts, ends = starts[filled], ends[filled]
    commas = np.flatnonzero(text == 0x2C)
    if len(commas) != 3 * len(starts):
        return None
    empty = np.zeros(0, dtype=np.int64)
    if not len(starts):
        return empty, empty
    commas = commas.reshape(-1, 3)
    # With three commas per line in all, each line holds exactly its own three.
    if np.any(commas[:, 0] < starts) or np.any(commas[:, 2] >= ends):
        return None

    # The "group,day,cohort" prefix of each row, resolved once per run of
    # rows that share it (the export is written sorted by it).
    lengths = commas[:, 2] - starts
    words = _words(np, buf, starts, lengths, -(-int(lengths.max()) // 8))
    changed = np.ones(len(starts), dtype=bool)
    changed[1:] = lengths[1:] != lengths[:-1]
    for word in words:
        changed[1:] |= word[1:] != word[:-1]
    heads = np.flatnonzero(changed)
    run_cell = np.empty(len(heads), dtype=np.int64)
    run_positive = np.empty(len(heads), dtype=bool)
    for j, (lo, hi) in enumerate(zip(starts[heads].tolist(), commas[heads, 2].tolist())):
        key = body[lo:hi]
        entry = prefixes.get(key)
        if entry is None:
            group_id, raw_day, cohort = key.decode("ascii").split(",")
            if (known is not None and group_id not in known) or cohort not in (POSITIVE, NEGATIVE):
                return None
            try:
                day = int(raw_day)
            except ValueError:
                return None
            cell = cells.setdefault((group_id, day), len(cells))
            entry = prefixes[key] = (cell, cohort == POSITIVE)
        run_cell[j], run_positive[j] = entry
    run_of_row = np.cumsum(changed) - 1

    starts = commas[:, 2] + 1
    lengths = ends - starts
    index = roster.lookup(np, lengths, _words(np, buf, starts, lengths, roster.n_words))
    if index is None or np.any(roster.positive[index] != run_positive[run_of_row]):
        return None
    return run_cell[run_of_row], index
