"""Presence map: which patients showed which phenotype on which day.

The pipeline joins notes, the patient roster, the term matcher and an
assertion classifier.  Only mentions labeled YES count (optionally MAYBE
as a sensitivity mode); template sentences are dropped first.  The map
is keyed by (group_id, relative day) and holds sets of patient ids, so
repeated mentions of one phenotype by one patient on one day collapse.

Per-note work is embarrassingly parallel; partial tables from workers
merge by set union, so the result is identical for any worker count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Collection, Iterable, Iterator, Mapping, Sequence

from .assertion import AssertionLabel, Classifier
from .errors import InputError
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


@dataclass
class SymptomPresenceTable:
    presence: dict[tuple[str, int], set[str]]
    day_range: tuple[int, int]
    group_ids: tuple[str, ...]
    patient_arms: dict[str, str]  # every rostered patient -> PCR arm

    def patients(self, group_id: str, day: int) -> set[str]:
        return self.presence.get((group_id, day), set())

    def arm_counts(self, patients: Collection[str]) -> tuple[int, int]:
        """(k_pos, k_neg): how many of ``patients`` are in each PCR arm."""
        k_pos = sum(1 for p in patients if self.patient_arms.get(p) == POSITIVE)
        return k_pos, len(patients) - k_pos

    @property
    def cohort_sizes(self) -> dict[str, int]:
        """Rostered patients per PCR arm."""
        return dict(zip((POSITIVE, NEGATIVE), self.arm_counts(self.patient_arms)))

    @classmethod
    def from_roster(
        cls,
        presence: dict[tuple[str, int], set[str]],
        patients: Mapping[str, PatientRecord],
        day_range: tuple[int, int],
        group_ids: Sequence[str] | None = None,
    ) -> SymptomPresenceTable:
        """The table over every rostered patient.

        ``group_ids`` defaults to the groups that occur in ``presence``.
        """
        arms = {patient_id: record.pcr_result for patient_id, record in patients.items()}
        if group_ids is None:
            group_ids = sorted({gid for gid, _day in presence})
        return cls(presence, day_range, tuple(group_ids), arms)


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
) -> dict[tuple[str, int], set[str]]:
    presence: dict[tuple[str, int], set[str]] = {}
    accepted = {AssertionLabel.YES}
    if include_maybe:
        accepted.add(AssertionLabel.MAYBE)
    sentences = _kept_sentences(notes, segmented, patients, templates, day_range)
    for patient_id, day, text in sentences:
        for mention in matcher.find_mentions(text):
            label, _confidence = classifier.classify(text, (mention.start, mention.end))
            if label not in accepted:
                continue
            for group_id in mention.group_ids:
                presence.setdefault((group_id, day), set()).add(patient_id)
    return presence


_WORKER_STATE: dict = {}


def _worker_init(notes, segmented, patients, matcher, classifier, templates,
                 day_range, include_maybe):
    _WORKER_STATE["args"] = (notes, segmented, patients, matcher, classifier,
                             templates, day_range, include_maybe)


def _worker_scan(bounds: tuple[int, int]) -> dict[tuple[str, int], set[str]]:
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
    args = (notes, _aligned(notes, segmented), patients, matcher, classifier, frozenset(templates),
            day_range, include_maybe)

    if workers <= 1 or len(notes) < _CHUNK:
        presence = _scan(*args)
    else:
        import multiprocessing  # only the pool needs it; keeps CLI start-up lean

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers, initializer=_worker_init, initargs=args) as pool:
            partials = pool.map(
                _worker_scan,
                [(i, i + _CHUNK) for i in range(0, len(notes), _CHUNK)],
            )
        presence = {}
        for partial in partials:
            for key, pids in partial.items():
                presence.setdefault(key, set()).update(pids)

    rejects = sorted(
        (RejectedNote(note.note_id, f"unknown patient_id {note.patient_id!r}")
         for note in notes if note.patient_id not in patients),
        key=lambda r: r.note_id,
    )

    return SymptomPresenceTable.from_roster(presence, patients, day_range, group_ids), rejects


def window_presence(
    table: SymptomPresenceTable, from_day: int, to_day: int
) -> dict[str, tuple[set[str], set[str]]]:
    """Union daily sets over [from_day, to_day], split by PCR arm."""
    check_window((from_day, to_day), table.day_range)
    arms = table.patient_arms
    result: dict[str, tuple[set[str], set[str]]] = {}
    for group_id in table.group_ids:
        pos: set[str] = set()
        neg: set[str] = set()
        for day in range(from_day, to_day + 1):
            for patient_id in table.presence.get((group_id, day), ()):
                if arms.get(patient_id) == POSITIVE:
                    pos.add(patient_id)
                else:
                    neg.add(patient_id)
        result[group_id] = (pos, neg)
    return result


# ---------------------------------------------------------------------------
# The counts behind each statistics table


def window_counts(
    table: SymptomPresenceTable, window: tuple[int, int]
) -> list[tuple[str, int, int]]:
    """(group_id, k_pos, k_neg) per group over the window, by group id."""
    windowed = window_presence(table, window[0], window[1])
    return [(gid, len(pos), len(neg)) for gid, (pos, neg) in sorted(windowed.items())]


def daily_counts(
    table: SymptomPresenceTable, window: tuple[int, int]
) -> list[tuple[str, int, int, int]]:
    """(group_id, day, k_pos, k_neg) rows over the window."""
    check_window(window, table.day_range)
    return [
        (group_id, day, *table.arm_counts(table.patients(group_id, day)))
        for group_id in table.group_ids
        for day in range(window[0], window[1] + 1)
    ]


def pair_counts(
    table: SymptomPresenceTable, window: tuple[int, int]
) -> list[tuple[str, str, int, int]]:
    """Patients with both phenotypes at least once inside the window."""
    if len(table.group_ids) < 2:
        raise InputError("pairwise analysis needs at least 2 phenotype groups")
    windowed = window_presence(table, window[0], window[1])
    ordered = sorted(windowed)
    rows: list[tuple[str, str, int, int]] = []
    for i, group_a in enumerate(ordered):
        pos_a, neg_a = windowed[group_a]
        for group_b in ordered[i + 1:]:
            pos_b, neg_b = windowed[group_b]
            rows.append(
                (group_a, group_b, len(pos_a & pos_b), len(neg_a & neg_b))
            )
    return rows


# ---------------------------------------------------------------------------
# Exports


def write_presence_csv(table: SymptomPresenceTable, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(PRESENCE_HEADER)
    for (group_id, day), patients in sorted(table.presence.items()):
        for cohort, count in zip((POSITIVE, NEGATIVE), table.arm_counts(patients)):
            if count:
                writer.writerow([group_id, day, cohort, count])


def write_presence_long_csv(table: SymptomPresenceTable, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(PRESENCE_LONG_HEADER)
    arms = table.patient_arms
    for (group_id, day), patients in sorted(table.presence.items()):
        for patient_id in sorted(patients):
            writer.writerow([group_id, day, arms.get(patient_id, "?"), patient_id])


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
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return load_presence_long_csv(handle, patients, day_range, group_ids)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("presence file is empty") from None
    if tuple(h.strip() for h in header) != PRESENCE_LONG_HEADER:
        raise InputError(
            f"presence header must be {','.join(PRESENCE_LONG_HEADER)!r}"
        )
    known = None if group_ids is None else frozenset(group_ids)
    presence: dict[tuple[str, int], set[str]] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise InputError(f"presence line {lineno}: expected 4 fields")
        group_id, raw_day, _cohort, patient_id = (f.strip() for f in row)
        try:
            day = int(raw_day)
        except ValueError:
            raise InputError(f"presence line {lineno}: bad relative_day {raw_day!r}") from None
        if patient_id not in patients:
            raise InputError(f"presence line {lineno}: unknown patient {patient_id!r}")
        members = presence.get((group_id, day))
        if members is None:  # the first row of a group makes one of its keys
            if known is not None and group_id not in known:
                raise InputError(f"presence line {lineno}: unknown group {group_id!r}")
            members = presence[(group_id, day)] = set()
        members.add(patient_id)
    return SymptomPresenceTable.from_roster(presence, patients, day_range, group_ids)
