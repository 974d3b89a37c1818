"""Presence map: which patients showed which phenotype on which day.

The pipeline joins notes, the patient roster, the term matcher and an
assertion classifier.  Only mentions labeled YES count (optionally MAYBE
as a sensitivity mode); template sentences are dropped first.  The map
is keyed by (group_id, relative day).  Each cell is a set of patients
held as the set bits of a Python int, where bit i stands for patient i
of the ``Roster``, so repeated mentions of one phenotype by one patient
on one day collapse.  A window is the OR of its days, and the window,
day and pair counts are bit counts of ANDs with the roster's
positive-arm bits.  Curation and the export loader set each cell's bits
in roster-wide bytes, which ``SymptomPresenceTable.from_cells`` converts once.

Curation has one entry, ``curate_notes``, and reads a JSON-lines
corpus once, by chunks of lines that one ``json.loads`` decodes where
``decode_note_chunk`` proves it gives each line's own record.  One loop
checks, segments, fingerprints, matches and classifies each record and
keeps no notes: only each note id's UTF-8 for the duplicate check, a
capped count of patients per 16-byte fingerprint digest and a 32-bit
event per accepted mention.  Once the pass ends the template
fingerprints are known, and the events of the other sentences fold into
the table.  Notes repeat sentence frames with other numbers,
so a verdict memo, cleared at ``_MEMO_CAP`` keys, matches and classifies
each frame once: it keys a sentence by its text with the ASCII digits
made 0, unless a term or rule holds a digit or the classifier is no
``RuleClassifier`` (see ``_sentence_mask``).  A corpus that never
repeats costs one lookup per sentence.  Chunks are passed in-process or
in a worker pool; partial passes merge in line order, so the result and
the first reported input error are the same for any worker count.
Neither curation nor the export loader imports numpy.
"""

from __future__ import annotations

import csv
import re
import threading
from array import array
from dataclasses import dataclass
from itertools import chain, islice
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .assertion import AssertionLabel, Classifier, RuleClassifier
from .errors import InputError, csv_rows, line_blocks
from .lexicon import TermMatcher
from .textproc import (
    NEGATIVE,
    POSITIVE,
    Roster,
    decode_note_chunk,
    duplicate_note_error,
    encodable,
    fingerprint,
    parse_note_line,
    sentence_texts,
)

DEFAULT_DAY_RANGE = (-14, 14)
DEFAULT_TEMPLATE_THRESHOLD = 20
DEFAULT_WINDOW = (-7, -1)

PRESENCE_HEADER = ("group_id", "relative_day", "cohort", "patient_count")
PRESENCE_LONG_HEADER = ("group_id", "relative_day", "cohort", "patient_id")
REJECTS_HEADER = ("note_id", "reason")

# Lines per pool task, and per chunk in-process, where its lines and records add to peak RSS.
_CHUNK, _SERIAL_CHUNK = 2000, 100


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


@dataclass
class SymptomPresenceTable:
    presence: dict[tuple[str, int], PatientBits]  # bit i: patient i of the roster
    day_range: tuple[int, int]
    group_ids: tuple[str, ...]
    roster: Roster  # every rostered patient

    def members(self, bits: int) -> set[str]:
        """The patient ids of the set bits of ``bits``."""
        ids = self.roster.ids
        return {ids[i] for i in _indexes(bits)}

    def arm_counts(self, bits: int) -> tuple[int, int]:
        """(k_pos, k_neg): how many of the patients in ``bits`` are in each PCR arm."""
        k_pos = (bits & self.roster.positive).bit_count()
        return k_pos, bits.bit_count() - k_pos

    @property
    def cohort_sizes(self) -> dict[str, int]:
        """Rostered patients per PCR arm."""
        n_pos = self.roster.positive.bit_count()
        return {POSITIVE: n_pos, NEGATIVE: len(self.roster.ids) - n_pos}

    @classmethod
    def from_cells(cls, cells: dict[tuple[str, int], bytearray], roster: Roster,
                   day_range: tuple[int, int], group_ids: Sequence[str] | None = None):
        """The table over every rostered patient, from each cell's roster
        bytes (little-endian: bit i is patient i), the one conversion of
        every input path.  Each cell is popped as it converts, so that its
        bytes can be freed before the next.  ``group_ids`` defaults to the
        groups that occur in ``cells``."""
        if group_ids is None:
            group_ids = sorted({gid for gid, _day in cells})
        presence = {key: PatientBits.from_bytes(cells.pop(key), "little") for key in list(cells)}
        return cls(presence, day_range, tuple(group_ids), roster)


def check_window(window: tuple[int, int], day_range: tuple[int, int]) -> None:
    """A window must be non-empty and lie inside the curated day range."""
    if window[0] > window[1]:
        raise InputError(f"empty window {window}")
    if window[0] < day_range[0] or window[1] > day_range[1]:
        raise InputError(f"window {window} outside day range {day_range}")


# ---------------------------------------------------------------------------
# Curation: one pass over the notes


class TemplateCounter:
    """Distinct patients per sentence fingerprint, counted only up to the
    template threshold: the one home of the template rule.

    A fingerprint is a template once ``threshold`` distinct patients wrote
    it.  Fingerprints are numbered in first-seen order, each by its key:
    curation keys it by the 16-byte BLAKE2s digest of its UTF-8, not its
    text (the collision bound is in the README).  A number holds the one
    patient id that wrote it, a tuple of a few ids, a set of more, or None
    once it is a template.
    """

    def __init__(self, threshold: int):
        if threshold < 2:
            raise InputError(f"template threshold must be >= 2, got {threshold}")
        self.threshold = threshold
        self.numbers: dict[bytes, int] = {}  # fingerprint key -> number
        self.holders: list = []

    def count(self, key: bytes, patient_id: str) -> int | None:
        """Count one sentence of ``patient_id``: its fingerprint's number,
        or None once the fingerprint is a template."""
        number = self.numbers.setdefault(key, len(self.holders))
        if number == len(self.holders):
            self.holders.append(patient_id)
            return number
        held = self.holders[number]
        if held is None:
            return None
        if held.__class__ is str:
            if held == patient_id:
                return number
            held = (held, patient_id)
        elif patient_id in held:
            return number
        elif held.__class__ is set:
            held.add(patient_id)
        else:  # a tuple is a quarter of the size of a set
            held = held + (patient_id,) if len(held) < 8 else {*held, patient_id}
        template = len(held) >= self.threshold
        self.holders[number] = None if template else held
        return None if template else number

    def merge(self, other: TemplateCounter, roster: Roster) -> list[int]:
        """Count here the patients ``other`` holds, a rostered one by the
        roster's copy of its id (so ids unpickled from a pool worker are not
        held twice); the number here of each of its fingerprints."""
        index, ids = roster.index, roster.ids

        def copy(patient_id: str) -> str:  # the roster's copy of a rostered id
            i = index.get(patient_id)
            return patient_id if i is None else ids[i]
        renumbered = []
        for key, held in zip(other.numbers, other.holders):
            number = self.numbers.setdefault(key, len(self.holders))
            if number == len(self.holders):  # new here: counting would rebuild ``held``
                self.holders.append(held if held is None else copy(held)
                                    if held.__class__ is str else held.__class__(map(copy, held)))
            elif held is None:  # a template in part of the corpus is one in all of it
                self.holders[number] = None
            else:
                for patient_id in (held,) if held.__class__ is str else held:
                    self.count(key, copy(patient_id))
            renumbered.append(number)
        return renumbered


_ACCEPTED = {False: frozenset({AssertionLabel.YES}),
             True: frozenset({AssertionLabel.YES, AssertionLabel.MAYBE})}

_MEMO_CAP = 4096  # verdicts a memo holds before it is cleared (see README)
# Applied to UTF-8, which codes only ASCII in bytes below 0x80: faster than str.translate.
_DIGIT_MASK = bytes.maketrans(b"123456789", b"000000000")


def _sentence_mask(matcher: TermMatcher, classifier: Classifier | None) -> bytes | None:
    """The table that masks a sentence's UTF-8 into its memo key; None keys it by its text.

    ASCII digits 1-9 made 0 keep each character's position, word-character
    class and lowercase form, the whitespace and ASCII-ness.  So while no
    term, cue token or scope breaker holds an ASCII digit, the matcher and
    the ``RuleClassifier`` give a masked sentence the same mentions and
    labels.  Other classifiers' rules are unknown, and need only be pure.
    """
    if type(classifier) is not RuleClassifier:
        return None
    rules = classifier.config
    words = chain(matcher.terms, rules.scope_breakers, *rules.negation_cues,
                  *rules.uncertainty_cues, *rules.attribution_cues)
    return None if any(re.search("[0-9]", word) for word in words) else _DIGIT_MASK


class _Config(NamedTuple):
    """What a pass needs besides its lines; pool workers inherit it, each its own memo and dates."""

    roster: Roster
    matcher: TermMatcher
    classifier: Classifier | None  # None: keep each mention as a task
    threshold: int | None  # None: no template counting
    day_range: tuple[int, int]
    accepted: frozenset[AssertionLabel]
    mask: bytes | None  # see _sentence_mask
    memo: dict[str | bytes, list[str]]  # sentence key -> group ids of accepted mentions
    dates: dict  # note date string -> its datetime.date, as parse_note_line reads it

    @classmethod
    def of(cls, roster, matcher, classifier, threshold, day_range, include_maybe):
        if day_range[0] > day_range[1]:
            raise InputError(f"empty day range {day_range}")
        return cls(roster, matcher, classifier, threshold, day_range, _ACCEPTED[include_maybe],
                   _sentence_mask(matcher, classifier), {}, {})


class Curation:
    """What one pass over notes leaves: compact events, no notes.

    ``events`` holds a (fingerprint number, cell number, roster index)
    triple per group of each accepted mention, fingerprint number -1
    where no counter runs.  Without a classifier each mention is kept in
    ``tasks`` as (fingerprint number, roster index, day, group ids,
    sentence, start, end) instead, to be labeled by its task index.

    The duplicate check holds each note id's UTF-8 in ``note_ids``, with
    no line: only the later copy's line is reported.  A pass returns its
    chunk's ids with their lines, which ``keep_ids`` checks against the
    earlier chunks', so a copy is reported at its line at any worker count.
    """

    def __init__(self, threshold: int | None):
        self.counter = None if threshold is None else TemplateCounter(threshold)
        self.template_flags = b""  # after settle: 1 at each template's number
        self.note_ids: set[bytes] = set()  # the ids of the chunks kept so far
        self.unknown: list[tuple[str, str]] = []  # (note id, patient id)
        self.cells: dict[tuple[str, int], int] = {}  # (group id, day) -> cell number
        # 32 bits hold each field: fingerprint numbers, cells and roster indexes
        # count objects this process holds (a 2**31st would take over 100 GB),
        # and an array raises OverflowError rather than wrap.
        self.events = array("i")
        self.tasks: list[tuple] = []

    def keep_ids(self, chunk_ids: dict[bytes, int], error: InputError | None) -> None:
        """Add a chunk's note ids (-> line) to the earlier chunks'; raises the
        first one an earlier chunk holds, then ``error``, what ended its pass."""
        if not self.note_ids.isdisjoint(chunk_ids):
            for key, lineno in chunk_ids.items():
                if key in self.note_ids:
                    raise duplicate_note_error(key.decode(), lineno)
        if error is not None:
            raise error
        self.note_ids.update(chunk_ids)

    def absorb(self, other: Curation, roster: Roster) -> None:
        """Append ``other``, the pass over the lines that follow."""
        self.unknown += other.unknown
        number = None if self.counter is None else self.counter.merge(other.counter, roster)
        cell = [self.cells.setdefault(key, len(self.cells)) for key in other.cells]
        start, events = len(self.events), other.events  # renumbered a field at a time
        self.events += events
        if number is not None:
            self.events[start::3] = array("i", map(number.__getitem__, events[0::3]))
        self.events[start + 1::3] = array("i", map(cell.__getitem__, events[1::3]))
        self.tasks += [(t[0] if number is None else number[t[0]], *t[1:]) for t in other.tasks]

    def settle(self) -> None:
        """After the last note the templates are known: their tasks go,
        and the counter and the note ids are freed."""
        self.note_ids = set()  # the duplicate check is done
        if self.counter is not None:
            self.template_flags = flags = bytes(held is None for held in self.counter.holders)
            self.counter = None
            self.tasks = [task for task in self.tasks if not flags[task[0]]]

    def requests(self) -> list[tuple[str, int, int]]:
        """(sentence, span start, span end) per task, in task-index order."""
        return [task[4:] for task in self.tasks]

    def replay(self, responses: Sequence[tuple], include_maybe: bool = False) -> None:
        """Label each task by the (label, confidence) response at its index;
        the accepted ones become events."""
        for (_fp, i, day, group_ids, *_request), (label, _confidence) in zip(
                self.tasks, responses, strict=True):
            if label in _ACCEPTED[include_maybe]:
                for group_id in group_ids:
                    cell = self.cells.setdefault((group_id, day), len(self.cells))
                    self.events.extend((-1, cell, i))
        self.tasks = []

    def table(self, roster: Roster, day_range: tuple[int, int],
              group_ids: Sequence[str] | None = None) -> SymptomPresenceTable:
        """Fold the events of non-template sentences into roster bits."""
        bits: list[bytearray | None] = [None] * len(self.cells)
        flags, triples = self.template_flags, iter(self.events)
        for f, c, i in zip(triples, triples, triples):
            if f < 0 or not flags[f]:
                if bits[c] is None:
                    bits[c] = bytearray((len(roster.ids) + 7) >> 3)
                bits[c][i >> 3] |= 1 << (i & 7)
        cells = {key: cell for key, cell in zip(self.cells, bits) if cell is not None}
        del bits  # so that each cell's bytes are freed as it converts
        return SymptomPresenceTable.from_cells(cells, roster, day_range, group_ids)

    def rejects(self) -> list[tuple[str, str]]:
        """(note id, reason) per note of an unknown patient, by note id."""
        return sorted((note_id, f"unknown patient_id {patient_id!r}")
                      for note_id, patient_id in self.unknown)


def _scan(cfg: _Config, part: Curation, chunk_ids: dict[bytes, int], first_lineno: int,
          lines: list[str]) -> None:
    """Check, segment, fingerprint, match and classify each note once, and
    hold each note id's UTF-8 in ``chunk_ids`` with its line.

    A record with the four keys, strings without a lone surrogate and a
    date read before is used as decoded; any other goes to ``parse_note_line``.
    Every sentence is counted, also those of unknown patients and of notes
    outside the day range; only the sentences of in-range notes by rostered
    patients whose fingerprint is no template yet are matched, once per memo key.
    """
    from _blake2 import blake2s  # CPython's own, loaded to curate: hashlib loads OpenSSL (3 MB)
    index, ids, pcr_days = cfg.roster.index, cfg.roster.ids, cfg.roster.pcr_days
    find = cfg.matcher.find_mentions
    classify = None if cfg.classifier is None else cfg.classifier.classify
    count = None if part.counter is None else part.counter.count
    mask, memo, accepted, dates = cfg.mask, cfg.memo, cfg.accepted, cfg.dates
    lo, hi = cfg.day_range
    for lineno, (line, record) in enumerate(zip(lines, decode_note_chunk(lines)), first_lineno):
        if record is None and not line.strip():
            continue
        try:
            patient_id, note_id, text = record["patient_id"], record["note_id"], record["text"]
            note_date = dates[record["date"]]
            values = "".join((patient_id, note_id, text))  # a TypeError unless all are strings
        except (KeyError, TypeError):
            values = None
        if values is None or not values.isascii() and not encodable(values):
            patient_id, note_id, note_date, text = parse_note_line(line, lineno, dates)
        if chunk_ids.setdefault(note_id.encode(), lineno) != lineno:
            raise duplicate_note_error(note_id, lineno)
        i = index.get(patient_id)
        if i is None:
            part.unknown.append((note_id, patient_id))
            day = None
        else:
            patient_id, day = ids[i], note_date.toordinal() - pcr_days[i]  # the roster's copy
            if day < lo or day > hi:
                day = None
        if day is None and count is None:
            continue
        for text in sentence_texts(text):
            number = -1 if count is None else count(
                blake2s(fingerprint(text).encode(), digest_size=16).digest(), patient_id)
            if number is None or day is None:
                continue
            if classify is None:
                for mention in find(text):
                    span = (mention.start, mention.end)
                    part.tasks.append((number, i, day, mention.group_ids, text, *span))
                continue
            key = text if mask is None else text.encode().translate(mask)
            groups = memo.get(key)
            if groups is None:
                if len(memo) >= _MEMO_CAP:
                    memo.clear()
                groups = memo[key] = []
                for mention in find(text):
                    if classify(text, (mention.start, mention.end))[0] in accepted:
                        groups += mention.group_ids
            for group_id in groups:
                cell = part.cells.setdefault((group_id, day), len(part.cells))
                part.events.extend((number, cell, i))


def _pass(cfg: _Config, part: Curation, first_lineno: int, lines: list[str]) -> tuple:
    """The pass into ``part`` over a chunk of JSON lines, the first numbered
    ``first_lineno``: (its note ids -> line, the InputError that ended it or None)."""
    chunk_ids: dict[bytes, int] = {}
    try:
        _scan(cfg, part, chunk_ids, first_lineno, lines)
    except InputError as exc:
        return chunk_ids, exc
    return chunk_ids, None


_pool_config: _Config | None = None  # set in each pool worker, never in the parent


def _pool_init(cfg: _Config) -> None:
    global _pool_config
    _pool_config = cfg


def _pool_pass(chunk: tuple[int, list[str]]) -> tuple:
    part = Curation(_pool_config.threshold)
    return (part, *_pass(_pool_config, part, *chunk))


def _chunks(lines: Iterable[str], size: int, halt) -> Iterator[tuple[int, list[str]]]:
    """``lines`` in lists of ``size``, each with the number of its first
    line, until the ``halt`` event is set.  A chunk that a read error cuts
    short is yielded before the error is raised."""
    lines, start = iter(lines), 1
    while not halt.is_set():
        chunk: list[str] = []
        try:
            chunk.extend(islice(lines, size))
        except UnicodeDecodeError:
            yield start, chunk
            raise
        if not chunk:
            return
        yield start, chunk
        start += len(chunk)


def _pool_pass_all(cfg: _Config, total: Curation, chunks: Iterator, workers: int, halt) -> None:
    """Absorb, in order, the passes of a pool of ``workers`` over
    ``chunks``, which the pool reads as workers free up."""
    import multiprocessing  # only the pool needs it; keeps CLI start-up lean

    ctx = multiprocessing.get_context("fork")
    pool = ctx.Pool(workers, initializer=_pool_init, initargs=(cfg,))
    try:
        for part, chunk_ids, error in pool.imap(_pool_pass, chunks):
            total.keep_ids(chunk_ids, error)
            total.absorb(part, cfg.roster)
    finally:
        # After an early end no further chunk is read.  Closing, unlike
        # terminating, lets the passes already started finish, so no worker
        # is stopped while it writes a result and leaves the queue locked.
        halt.set()
        pool.close()
        pool.join()


def curate_notes(
    lines: Iterable[str],
    roster: Roster,
    matcher: TermMatcher,
    classifier: Classifier | None,
    template_threshold: int | None = DEFAULT_TEMPLATE_THRESHOLD,
    day_range: tuple[int, int] = DEFAULT_DAY_RANGE,
    include_maybe: bool = False,
    workers: int = 1,
) -> Curation:
    """Curate a JSON-lines note corpus in one pass over its lines.

    Sentences written for ``template_threshold`` distinct patients are
    dropped (None keeps them); with no classifier, each mention stays a
    task for an external one.  With ``workers`` above 1, a corpus longer
    than one chunk is passed in a pool.  The first input error in line
    order is raised, whatever the worker count.
    """
    cfg = _Config.of(roster, matcher, classifier, template_threshold, day_range, include_maybe)
    total = Curation(cfg.threshold)  # its counter checks the threshold before a line is read
    halt = threading.Event()
    chunks = _chunks(lines, _CHUNK if workers > 1 else _SERIAL_CHUNK, halt)
    head = next(chunks, (1, []))
    pooled = workers > 1 and len(head[1]) == _CHUNK  # not the whole corpus or up to a read error
    head = iter([head])  # an iterator lets go of the first chunk once it is read
    if pooled:
        _pool_pass_all(cfg, total, chain(head, chunks), workers, halt)
    else:  # a read error is raised after the chunk before it
        for start, chunk in chain(head, chunks):
            total.keep_ids(*_pass(cfg, total, start, chunk))
    total.settle()
    return total


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
    positive = table.roster.positive
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
    ids, arms = table.roster.ids, table.roster.arms()
    for (group_id, day), bits in sorted(table.presence.items()):
        for patient_id, i in sorted((ids[i], i) for i in _indexes(bits)):
            writer.writerow([group_id, day, arms[i], patient_id])


def write_rejects_csv(rejects: Sequence[tuple[str, str]], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(REJECTS_HEADER)
    writer.writerows(rejects)


def load_presence_long_csv(
    path: str,
    roster: Roster,
    day_range: tuple[int, int] = DEFAULT_DAY_RANGE,
    group_ids: Sequence[str] | None = None,
) -> SymptomPresenceTable:
    """Rebuild a presence table from the per-patient long export file at ``path``.

    With ``group_ids`` given (a lexicon's groups), the table covers exactly
    those groups and a row naming any other group is an error.

    ``_index_export`` parses the file in one pass into roster bytes per
    cell, each row checked against its patient's arm.  A file it does
    not accept (quoted fields, spaces, non-ASCII bytes, CR line ends, a
    wrong field count or any invalid row) is read again by
    ``_walk_export``, the row-by-row reference, which raises the error
    of the first bad row.  ``from_cells`` converts either's cells.
    """
    known = None if group_ids is None else frozenset(group_ids)
    with open(path, "rb") as raw:
        cells = _index_export(raw, roster, known)
    if cells is None:
        cells = _walk_export(path, roster, known)
    return SymptomPresenceTable.from_cells(cells, roster, day_range, group_ids)


def _walk_export(path: str, roster: Roster,
                 known: frozenset[str] | None) -> dict[tuple[str, int], bytearray]:
    """The export's cells as roster bytes, read one csv row at a time."""
    index, arms = roster.index, roster.arms()
    width = (len(index) + 7) >> 3
    cells: dict[tuple[str, int], bytearray] = {}  # -> the cell's roster bits
    for lineno, row in csv_rows(path, "presence", PRESENCE_LONG_HEADER):
        group_id, raw_day, cohort, patient_id = (f.strip() for f in row)
        try:
            day = int(raw_day)
        except ValueError:
            raise InputError(f"presence line {lineno}: bad relative_day {raw_day!r}") from None
        i = index.get(patient_id)
        if i is None:
            raise InputError(f"presence line {lineno}: unknown patient {patient_id!r}")
        if arms[i] != cohort:
            raise InputError(
                f"presence line {lineno}: cohort {cohort!r} does not match patient "
                f"{patient_id!r} ({arms[i]})"
            )
        members = cells.get((group_id, day))
        if members is None:  # the first row of a group makes one of its keys
            if known is not None and group_id not in known:
                raise InputError(f"presence line {lineno}: unknown group {group_id!r}")
            members = cells[(group_id, day)] = bytearray(width)
        members[i >> 3] |= 1 << (i & 7)
    return cells


# ---------------------------------------------------------------------------
# The fast export pass

_EXPORT_HEADER_LINE = (",".join(PRESENCE_LONG_HEADER) + "\n").encode()
_EXPORT_BLOCK = 1 << 16  # bytes read per chunk; its decoded lines and split list are live at once
# Bytes a row of the fast pass may hold: "!".."~" except '"', and LF.
_ROW_BYTES = bytes(b for b in range(0x21, 0x7F) if b != 0x22) + b"\n"


def _index_export(raw: IO[bytes], roster: Roster,
                  known: frozenset[str] | None) -> dict[tuple[str, int], bytearray] | None:
    """The export's cells as roster bytes, or None when a row needs the
    row walker.

    Accepted rows are printable ASCII without spaces or double quotes,
    ended by LF, with exactly four fields; blank lines are skipped and
    the header is exactly ``PRESENCE_LONG_HEADER``.  Every row must then
    be valid: a known patient, its own cohort, an int day and, with
    ``known``, a known group.  Each ``group,day,cohort`` prefix is
    parsed when first seen into its ``(group_id, day)`` cell's roster
    bytes, which both arms of the cell share, and its arm's flag.  Each
    row checks its patient's flag against its prefix's arm and sets the
    patient's bit in its cell, whatever the row order, so memory is
    bounded by one roster's bytes per cell and a block, not by the rows.
    """
    if raw.readline(len(_EXPORT_HEADER_LINE)) != _EXPORT_HEADER_LINE:
        return None
    index, flags, width = roster.index, roster.flags, (len(roster.ids) + 7) >> 3
    cells: dict[tuple[str, int], bytearray] = {}  # (group id, day) -> its patients' roster bits
    prefixes: dict[str, tuple[bytearray, int]] = {}  # "group,day,cohort" -> (its cell, arm flag)
    try:
        for body in line_blocks(raw, _EXPORT_BLOCK):
            if body.translate(None, _ROW_BYTES):
                return None
            for line in body.decode("ascii").split():  # LF is the only whitespace left
                prefix, _, patient_id = line.rpartition(",")
                entry = prefixes.get(prefix)
                if entry is None:
                    group_id, day, cohort = prefix.split(",")
                    if cohort not in (POSITIVE, NEGATIVE) or known is not None \
                            and group_id not in known:
                        return None
                    key = (group_id, int(day))
                    entry = prefixes[prefix] = (cells.setdefault(key, bytearray(width)),
                                                0x31 if cohort == POSITIVE else 0x30)
                bits, arm = entry
                i = index[patient_id]
                if flags[i] != arm:
                    return None
                bits[i >> 3] |= 1 << (i & 7)
    except (KeyError, ValueError):  # an unknown patient, a field too many or few, a bad day
        return None
    prefixes.clear()  # so that each cell's bytes are freed as it converts
    return cells
