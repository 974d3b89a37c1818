"""Deterministic synthetic cohort generator for end-to-end testing.

Every patient gets an independent random substream, the stream of
``numpy.random.default_rng((seed, patient index))``, so the corpus is
reproducible for a fixed seed and could be generated patient-parallel
without changing the output.  That stream is built without numpy's
per-patient objects: ``_pcg64_states`` restates numpy's SeedSequence
hashing and PCG64 seeding as integer arithmetic over a block of
indexes, and one reused PCG64 is set to each patient's state in turn.
A PCG64's whole state is its 128-bit state and increment plus a
buffered 32-bit half, which is cleared, and the Generator over it holds
none, so equal states give equal draws; the tests compare the restated
states with numpy's own for seeds of one to seven 32-bit words.

Presence of a phenotype on a relative day is an independent Bernoulli
draw per (group, cohort, day) cell; present cells emit an affirmative
sentence, absent cells occasionally emit negated / uncertain /
family-history phrasings that must NOT count as presence, plus
boilerplate sentences repeated across patients to exercise template
removal.

Sentence frames are a fixed, versioned bank.  Affirmative frames embed a
synonym that belongs to exactly one group whenever the group has such a
term, so cross-listed synonyms cannot leak presence into other groups
and daily proportions stay calibrated.

``generate`` writes each block of patients' note and gold lines as soon
as the block is drawn, so memory holds one block, not the corpus.  It
formats the lines itself: only a note's text can hold a character that
JSON escapes, while the ids, dates and gold rows are synth's own ASCII
formats and need no escaping or quoting.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import asdict, dataclass
from datetime import date, timedelta
from json.encoder import encode_basestring
from typing import IO, Iterable

from .assertion import GOLD_HEADER, AssertionLabel
from .errors import InputError, json_value, open_text
from .lexicon import Lexicon
from .textproc import PATIENT_HEADER, PatientRecord

FRAME_BANK_VERSION = 2

# Every frame embeds the synonym ({0}) and a varying number ({1}) so that
# genuine symptom sentences almost never repeat verbatim across 20+
# patients; only the fixed boilerplate below is meant to trip the
# cross-patient template detector.
_NUMBER_SPAN = 480

AFFIRM_FRAMES = (
    "Patient reports {0} today; duration {1} hours.",
    "Reports {0} over the past {1} hours.",
    "Patient presents with {0} for {1} days.",
    "Exam notable for {0}; recheck in {1} hours.",
    "Ongoing {0} since yesterday; severity {1} of 480.",
)
NEGATED_FRAMES = (
    "Patient denies {0} at visit {1}.",
    "No {0} reported in the last {1} hours.",
    "Denies any {0} for {1} days.",
    "Patient without {0} at check {1}.",
)
UNCERTAIN_FRAMES = (
    "Possible {0} noted at visit {1}.",
    "Concern for {0} today; recheck in {1} hours.",
    "Cannot rule out {0} after {1} checks.",
    "Suspected {0} this morning; review item {1}.",
)
OTHER_FRAMES = (
    "Family history of {0} noted at visit {1}.",
    "Mother had {0} about {1} weeks ago.",
    "Patient education handout {1} on {0} provided.",
)
TEMPLATE_SENTENCES = (
    "Please contact the clinic with any new or worsening symptoms.",
    "Patient education documentation provided and reviewed with patient.",
    "Return precautions discussed in detail with the patient.",
    "Call the nurse line if you develop fever, cough, or diarrhea at home.",
    "This handout explains cough and fever care at home.",
)

_BASE_DATE = date(2020, 3, 15)
_DATE_CYCLE = 28  # PCR dates staggered so alignment is actually exercised

_FRAME_BANKS = {
    AssertionLabel.YES: AFFIRM_FRAMES,
    AssertionLabel.NO: NEGATED_FRAMES,
    AssertionLabel.MAYBE: UNCERTAIN_FRAMES,
    AssertionLabel.OTHER: OTHER_FRAMES,
}


@dataclass(frozen=True)
class SynthConfig:
    n_pos: int
    n_neg: int
    day_probs: dict[tuple[str, str, int], float]  # (group_id, cohort, day) -> p
    negation_rate: float = 0.0
    uncertainty_rate: float = 0.0
    other_rate: float = 0.0
    template_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_pos <= 0 or self.n_neg <= 0:
            raise InputError("cohort sizes must be positive")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        for key, p in self.day_probs.items():
            if not 0.0 <= p <= 1.0:
                raise InputError(f"presence probability {p!r} for {key} outside [0,1]")
            if key[1] not in ("positive", "negative"):
                raise InputError(f"cohort in {key} must be positive or negative")
        for rate in (self.negation_rate, self.uncertainty_rate, self.other_rate,
                     self.template_rate):
            if not 0.0 <= rate <= 1.0:
                raise InputError(f"rate {rate!r} outside [0,1]")
        if self.negation_rate + self.uncertainty_rate + self.other_rate > 1.0:
            raise InputError("phrasing rates sum above 1")

    @property
    def days(self) -> tuple[int, ...]:
        return tuple(sorted({day for _g, _c, day in self.day_probs}))

    @property
    def group_ids(self) -> tuple[str, ...]:
        return tuple(sorted({g for g, _c, _d in self.day_probs}))

    def groups(self, lexicon: Lexicon) -> list[str]:
        """The config's groups in the lexicon's order; refuses any it lacks."""
        known, wanted = set(lexicon.group_ids), set(self.group_ids)
        if wanted - known:
            raise InputError("config references groups missing from lexicon: "
                             f"{[g for g in self.group_ids if g not in known]}")
        return [g for g in lexicon.group_ids if g in wanted]

    def to_json(self, stream: IO[str]) -> None:
        payload = asdict(self)
        payload["day_probs"] = {
            f"{g}|{cohort}|{day}": p for (g, cohort, day), p in sorted(self.day_probs.items())
        }
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")

    @classmethod
    def from_json(cls, source: IO[str] | str) -> "SynthConfig":
        if isinstance(source, str):
            with open_text(source, "synth config") as handle:
                return cls.from_json(handle)
        raw = json_value(source.read(), "bad synth config")
        if not isinstance(raw, dict):
            raise InputError("bad synth config: expected a JSON object")
        try:
            day_probs = {}
            for key, p in raw["day_probs"].items():
                group_id, cohort, raw_day = key.rsplit("|", 2)
                day = int(raw_day)
                if str(day) != raw_day:
                    raise ValueError(f"day in {key!r} must be an integer")
                day_probs[(group_id, cohort, day)] = _number(f"day_probs[{key!r}]", p)
            return cls(
                n_pos=_exact_int("n_pos", raw["n_pos"]),
                n_neg=_exact_int("n_neg", raw["n_neg"]),
                day_probs=day_probs,
                negation_rate=_number("negation_rate", raw.get("negation_rate", 0.0)),
                uncertainty_rate=_number("uncertainty_rate", raw.get("uncertainty_rate", 0.0)),
                other_rate=_number("other_rate", raw.get("other_rate", 0.0)),
                template_rate=_number("template_rate", raw.get("template_rate", 0.0)),
                seed=_exact_int("seed", raw["seed"]),
            )
        except (KeyError, ValueError, TypeError, AttributeError, OverflowError) as exc:
            raise InputError(f"bad synth config: {exc}") from None


def _exact_int(name: str, value) -> int:
    """A JSON integer; floats, strings and booleans are refused, not cast."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _number(name: str, value) -> float:
    """A JSON number; strings and booleans are refused, not cast."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def calibrate_from_daily_table(
    rows: Iterable[tuple[str, int, float, float]], n_pos: int, n_neg: int, **settings
) -> SynthConfig:
    """Turn (group_id, day, pct_pos, pct_neg) percentage rows into a config
    with ``settings``, the rates and seed of ``SynthConfig``.

    Percentages become per-cell probabilities (pct / 100), so an expected
    count is recoverable as round(pct * N / 100).
    """
    day_probs = {}
    for group_id, day, pct_pos, pct_neg in rows:
        day_probs[(group_id, "positive", day)] = pct_pos / 100.0
        day_probs[(group_id, "negative", day)] = pct_neg / 100.0
    return SynthConfig(n_pos, n_neg, day_probs, **settings)


def _exclusive_terms(lexicon: Lexicon, group_id: str) -> tuple[str, ...]:
    """Embeddable surface forms owned by exactly one group.

    Cross-listed synonyms are skipped (unless the group has nothing else)
    so recovered daily proportions stay calibrated per group; terms under
    the uppercase-only matching rule are emitted in their surface form.
    """
    group = next(g for g in lexicon.groups if g.group_id == group_id)
    exclusive = tuple(
        t for t in group.terms if lexicon.term_index[t] == frozenset((group_id,))
    ) or group.terms
    return tuple(
        t.upper() if t in lexicon.caps_required else t for t in exclusive
    )


# Label of each cell code, in the order generate assigns the codes.
_CELL_LABELS = (AssertionLabel.YES, AssertionLabel.NO, AssertionLabel.MAYBE,
                AssertionLabel.OTHER)

# Patients are drawn in blocks whose uniforms fill about this many
# doubles, so a block's arrays stay a few MB whatever the config's shape.
_BLOCK_DRAWS = 1 << 20

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def _pcg64_states(seed: int, first: int, count: int) -> list[tuple[int, int]]:
    """(state, inc) of ``default_rng((seed, index)).bit_generator`` for
    each index in ``range(first, first + count)``; indexes stay below 2**32.

    This is numpy's own seeding, restated over uint32 arrays of the
    indexes.  ``SeedSequence((seed, index))`` takes as entropy the seed's
    little-endian 32-bit words (``[0]`` for 0) followed by the index's one
    word.  It hashes them into a pool of four words, mixes every pool word
    into every other, then mixes in any entropy words beyond the fourth.
    ``generate_state(4, uint64)`` hashes the pool, cycled, into eight
    words, read in pairs as little-endian uint64 ``w0..w3``.  The hash
    constants depend only on the step, never on the data, so one pass of
    array arithmetic modulo 2**32 gives every index's words.  ``PCG64``
    then sets ``inc = (w2 << 64 | w3) << 1 | 1`` and advances from the
    initial state ``w0 << 64 | w1`` as ``pcg_setseq_128_srandom_r`` does.
    """
    import numpy as np

    u32 = np.uint32
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(count, w, dtype=u32) for w in words]
    entropy.append(np.arange(first, first + count).astype(u32))
    entropy += [np.zeros(count, dtype=u32)] * (_POOL_SIZE - len(entropy))

    def hasher(hash_const, mult):
        def hash_word(value):
            nonlocal hash_const
            value = value ^ u32(hash_const)
            hash_const = hash_const * mult & _MASK32
            value = value * u32(hash_const)
            return value ^ (value >> u32(16))
        return hash_word

    def mix(x, y):
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ (result >> u32(16))

    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_state = hasher(_INIT_B, _MULT_B)
    halves = [hash_state(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    w0, w1, w2, w3 = (
        (halves[2 * j + 1] << np.uint64(32) | halves[2 * j]).tolist() for j in range(4)
    )
    states = []
    for s0, s1, i0, i1 in zip(w0, w1, w2, w3):
        inc = (i0 << 64 | i1) << 1 | 1
        states.append((((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128,
                       inc & _MASK128))
    return states


def _note_line(patient_id: str, note_id: str, iso_date: str, text: str) -> str:
    """``json.dumps(note, ensure_ascii=False)`` and LF, for ids and a date
    that hold no character JSON escapes; the text goes through the
    string encoder that call uses, with its key order and separators."""
    return (f'{{"patient_id": "{patient_id}", "note_id": "{note_id}", "date": "{iso_date}", '
            f'"text": {encode_basestring(text)}}}\n')


def generate(config: SynthConfig, lexicon: Lexicon, notes: IO[str], patients: IO[str],
             gold: IO[str]) -> None:
    """Write the roster, the notes as JSON lines and the gold labels as
    CSV to the three streams; identical bytes per seed.

    Patient ``index`` draws the stream of ``default_rng((seed, index))``:
    five uniforms per (day, group) cell, as one (5, days, groups) array,
    then two per day.  A cell is present when its first draw is below
    the cell's probability; otherwise a second draw below the summed
    phrasing rates makes it a NO, MAYBE or OTHER sentence.  The other
    three draws pick the term, the frame and the number.  A note holds
    one day's sentences in group order, ended by a boilerplate sentence
    when the day's first template draw is below ``template_rate``.

    That stream is not built per patient.  ``_pcg64_states`` computes
    the block's ``(state, inc)`` pairs exactly as ``SeedSequence`` and
    ``PCG64`` seeding would, and one ``PCG64`` is set to each pair before
    the patient's row is drawn.  A ``PCG64``'s draws depend on nothing
    but those two integers (its buffered 32-bit half is cleared too), so
    each row holds the same doubles as ``default_rng((seed, index))``
    would give.  The draws of a block of patients are evaluated as numpy
    arrays, so Python formats only the cells that emit a sentence.

    Each block's note and gold lines are written before the next block
    is drawn, so what this holds is one block, not the corpus.  A line is
    ``json.dumps(note, ensure_ascii=False)`` and a gold row is the csv
    module's row, built directly: only the note text goes through
    ``encode_basestring``, the encoder that call uses.  The ids
    (``SP{index:06d}``, ``SP{index:06d}-D{day:+03d}`` and
    ``{note_id}:{sentence}``), the ISO dates and the mention index hold
    ASCII letters, digits, ``+``, ``-`` and ``:`` only, and the labels are
    upper-case words: no character that JSON escapes or that CSV quotes.
    """
    import numpy as np  # here, so that every other command starts without numpy

    groups = config.groups(lexicon)
    days = config.days
    n_days, n_groups = len(days), len(groups)
    n_total = config.n_pos + config.n_neg
    pcr_dates = [_BASE_DATE + timedelta(days=k) for k in range(_DATE_CYCLE)]
    write_patients_csv((
        PatientRecord(f"SP{index:06d}", pcr_dates[index % _DATE_CYCLE],
                      "positive" if index < config.n_pos else "negative")
        for index in range(n_total)
    ), patients)
    gold.write(",".join(GOLD_HEADER) + "\n")
    if n_days == 0 or n_groups == 0:
        return

    terms = [_exclusive_terms(lexicon, g) for g in groups]
    n_terms = np.array([len(t) for t in terms])
    banks = [_FRAME_BANKS[label] for label in _CELL_LABELS]
    bank_sizes = np.array([len(bank) for bank in banks])
    probs = np.array([  # (arm, day, group); arm 0 is positive
        [[config.day_probs.get((g, cohort, d), 0.0) for g in groups] for d in days]
        for cohort in ("positive", "negative")
    ])
    noise_total = config.negation_rate + config.uncertainty_rate + config.other_rate
    noise_cut1 = config.negation_rate
    noise_cut2 = config.negation_rate + config.uncertainty_rate
    # Text of each (PCR date slot, day), note id suffix and gold row end.
    note_dates = [[(pcr + timedelta(days=d)).isoformat() for d in days] for pcr in pcr_dates]
    day_ids = [f"-D{d:+03d}" for d in days]
    row_ends = [f",0,{label.value}\n" for label in _CELL_LABELS]

    cell_draws = 5 * n_days * n_groups
    width = cell_draws + 2 * n_days
    block = max(1, _BLOCK_DRAWS // width)
    buffer = np.empty((min(block, n_total), width))
    # One generator serves every patient; its state is replaced before each
    # patient's draws, so seed 0 here never reaches the output.
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for first in range(0, n_total, block):
        rows = buffer[:min(block, n_total - first)]
        for (state, inc), row in zip(_pcg64_states(config.seed, first, len(rows)), rows):
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            rng.random(out=row)
        draws = rows[:, :cell_draws].reshape(-1, 5, n_days, n_groups)
        arm = (np.arange(first, first + len(rows)) >= config.n_pos).astype(np.intp)
        present = draws[:, 0] < probs[arm]
        # (patient, day, group) of every sentence, in note order
        cells = patient, day, group = np.nonzero(present | (draws[:, 1] < noise_total))
        noise = draws[patient, 1, day, group]
        code = np.where(present[cells], 0,
                        1 + (noise >= noise_cut1) + (noise >= noise_cut2))
        term = (draws[patient, 2, day, group] * n_terms[group]).astype(np.intp)
        frame = (draws[patient, 3, day, group] * bank_sizes[code]).astype(np.intp)
        number = (draws[patient, 4, day, group] * _NUMBER_SPAN).astype(np.intp) + 1
        codes = code.tolist()
        texts = [
            banks[c][f].format(terms[g][t], n)
            for c, f, g, t, n in zip(codes, frame.tolist(), group.tolist(),
                                     term.tolist(), number.tolist())
        ]

        template_draws = rows[:, cell_draws:].reshape(-1, 2, n_days)
        t_patient, t_day = np.nonzero(template_draws[:, 0] < config.template_rate)
        variants = (template_draws[t_patient, 1, t_day]
                    * len(TEMPLATE_SENTENCES)).astype(np.intp)

        # One note per (patient, day) key that has a sentence; its cells
        # are the sorted run cell_key[start:end].
        cell_key = patient * n_days + day
        template_key = t_patient * n_days + t_day
        note_key = np.union1d(cell_key, template_key)
        template = np.full(note_key.shape, -1, dtype=np.intp)
        template[np.searchsorted(note_key, template_key)] = variants
        note_lines, gold_lines = [], []
        for key, start, end, variant in zip(
            note_key.tolist(),
            np.searchsorted(cell_key, note_key).tolist(),
            np.searchsorted(cell_key, note_key, side="right").tolist(),
            template.tolist(),
        ):
            index, day_index = divmod(first * n_days + key, n_days)
            patient_id = f"SP{index:06d}"
            note_id = patient_id + day_ids[day_index]
            gold_lines += [f"{note_id}:{i}{row_ends[c]}"
                           for i, c in enumerate(codes[start:end])]
            sentences = texts[start:end]
            if variant >= 0:
                sentences.append(TEMPLATE_SENTENCES[variant])
            note_lines.append(_note_line(patient_id, note_id,
                                         note_dates[index % _DATE_CYCLE][day_index],
                                         " ".join(sentences)))
        notes.writelines(note_lines)
        gold.writelines(gold_lines)


# ---------------------------------------------------------------------------
# Roster writer (exactly the ingestion format the pipeline consumes)


def write_patients_csv(patients: Iterable[PatientRecord], stream: IO[str]) -> None:
    short = {"positive": "pos", "negative": "neg"}
    iso = functools.cache(date.isoformat)  # each distinct date formatted once
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(PATIENT_HEADER)
    writer.writerows(
        (record.patient_id, iso(record.pcr_date), short[record.pcr_result])
        for record in patients
    )
