"""Deterministic synthetic cohort generator for end-to-end testing.

Every patient gets an independent random substream derived from
(seed, patient index) via numpy's SeedSequence, so the corpus is
reproducible for a fixed seed and could be generated patient-parallel
without changing the output.  Presence of a phenotype on a relative day
is an independent Bernoulli draw per (group, cohort, day) cell; present
cells emit an affirmative sentence, absent cells occasionally emit
negated / uncertain / family-history phrasings that must NOT count as
presence, plus boilerplate sentences repeated across patients to
exercise template removal.

Sentence frames are a fixed, versioned bank.  Affirmative frames embed a
synonym that belongs to exactly one group whenever the group has such a
term, so cross-listed synonyms cannot leak presence into other groups
and daily proportions stay calibrated.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import date, timedelta
from json.encoder import encode_basestring
from typing import IO, Iterable, Sequence

from .assertion import AssertionLabel
from .errors import InputError
from .lexicon import Lexicon
from .textproc import PATIENT_HEADER, ClinicalNote, PatientRecord

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

    def to_json(self, stream: IO[str]) -> None:
        payload = {
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
            "negation_rate": self.negation_rate,
            "uncertainty_rate": self.uncertainty_rate,
            "other_rate": self.other_rate,
            "template_rate": self.template_rate,
            "seed": self.seed,
            "day_probs": {
                f"{g}|{cohort}|{day}": p
                for (g, cohort, day), p in sorted(self.day_probs.items())
            },
        }
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")

    @classmethod
    def from_json(cls, source: IO[str] | str) -> "SynthConfig":
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                return cls.from_json(handle)
        try:
            raw = json.load(source)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad synth config: invalid JSON ({exc.msg})") from None
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
    rows: Iterable[tuple[str, int, float, float]],
    n_pos: int,
    n_neg: int,
    negation_rate: float = 0.0,
    uncertainty_rate: float = 0.0,
    other_rate: float = 0.0,
    template_rate: float = 0.0,
    seed: int = 0,
) -> SynthConfig:
    """Turn (group_id, day, pct_pos, pct_neg) percentage rows into a config.

    Percentages become per-cell probabilities (pct / 100), so an expected
    count is recoverable as round(pct * N / 100).
    """
    day_probs: dict[tuple[str, str, int], float] = {}
    for group_id, day, pct_pos, pct_neg in rows:
        for cohort, pct in (("positive", pct_pos), ("negative", pct_neg)):
            if not 0.0 <= pct <= 100.0:
                raise InputError(
                    f"percentage {pct!r} for ({group_id}, {cohort}, {day}) "
                    "outside [0, 100]"
                )
            day_probs[(group_id, cohort, day)] = pct / 100.0
    return SynthConfig(
        n_pos=n_pos,
        n_neg=n_neg,
        day_probs=day_probs,
        negation_rate=negation_rate,
        uncertainty_rate=uncertainty_rate,
        other_rate=other_rate,
        template_rate=template_rate,
        seed=seed,
    )


@dataclass
class SynthCorpus:
    patients: list[PatientRecord]
    notes: list[ClinicalNote]
    gold: list[tuple[str, int, AssertionLabel]]  # (sentence_id, mention_index, label)


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


def generate(config: SynthConfig, lexicon: Lexicon) -> SynthCorpus:
    """Produce (roster, notes, gold labels); identical output per seed.

    Patient ``index`` draws from its own ``default_rng((seed, index))``:
    five uniforms per (day, group) cell, as one (5, days, groups) array,
    then two per day.  A cell is present when its first draw is below
    the cell's probability; otherwise a second draw below the summed
    phrasing rates makes it a NO, MAYBE or OTHER sentence.  The other
    three draws pick the term, the frame and the number.  A note holds
    one day's sentences in group order, ended by a boilerplate sentence
    when the day's first template draw is below ``template_rate``.

    The draws of a block of patients are evaluated as numpy arrays, so
    Python formats only the cells that emit a sentence.
    """
    import numpy as np  # here, so that every other command starts without numpy

    known = set(lexicon.group_ids)
    missing = [g for g in config.group_ids if g not in known]
    if missing:
        raise InputError(f"config references groups missing from lexicon: {missing}")

    groups = [g for g in lexicon.group_ids if g in set(config.group_ids)]
    days = config.days
    n_days, n_groups = len(days), len(groups)
    n_total = config.n_pos + config.n_neg
    pcr_dates = [_BASE_DATE + timedelta(days=k) for k in range(_DATE_CYCLE)]
    patients = [
        PatientRecord(f"SP{index:06d}", pcr_dates[index % _DATE_CYCLE],
                      "positive" if index < config.n_pos else "negative")
        for index in range(n_total)
    ]
    notes: list[ClinicalNote] = []
    gold: list[tuple[str, int, AssertionLabel]] = []
    if n_days == 0 or n_groups == 0:
        return SynthCorpus(patients=patients, notes=notes, gold=gold)

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

    cell_draws = 5 * n_days * n_groups
    width = cell_draws + 2 * n_days
    block = max(1, _BLOCK_DRAWS // width)
    buffer = np.empty((min(block, n_total), width))
    for first in range(0, n_total, block):
        rows = buffer[:min(block, n_total - first)]
        for offset, row in enumerate(rows):
            np.random.default_rng((config.seed, first + offset)).random(out=row)
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
        for key, start, end, variant in zip(
            note_key.tolist(),
            np.searchsorted(cell_key, note_key).tolist(),
            np.searchsorted(cell_key, note_key, side="right").tolist(),
            template.tolist(),
        ):
            record = patients[first + key // n_days]
            day_offset = days[key % n_days]
            note_id = f"{record.patient_id}-D{day_offset:+03d}"
            gold.extend((f"{note_id}:{i}", 0, _CELL_LABELS[c])
                        for i, c in enumerate(codes[start:end]))
            sentences = texts[start:end]
            if variant >= 0:
                sentences.append(TEMPLATE_SENTENCES[variant])
            notes.append(ClinicalNote(
                record.patient_id, note_id,
                record.pcr_date + timedelta(days=day_offset), " ".join(sentences),
            ))

    return SynthCorpus(patients=patients, notes=notes, gold=gold)


# ---------------------------------------------------------------------------
# Corpus writers (exactly the ingestion formats the pipeline consumes)


def write_notes_jsonl(notes: Sequence[ClinicalNote], stream: IO[str]) -> None:
    """One line per note, as ``json.dumps(note_dict, ensure_ascii=False)``.

    The line is assembled here with the string encoder that call uses,
    the same key order and the default ``", "`` and ``": "`` separators.
    """
    encode = encode_basestring
    stream.writelines(
        f'{{"patient_id": {encode(note.patient_id)}, "note_id": {encode(note.note_id)}, '
        f'"date": {encode(note.date.isoformat())}, "text": {encode(note.text)}}}\n'
        for note in notes
    )


def write_patients_csv(patients: Sequence[PatientRecord], stream: IO[str]) -> None:
    short = {"positive": "pos", "negative": "neg"}
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(PATIENT_HEADER)
    writer.writerows(
        (record.patient_id, record.pcr_date.isoformat(), short[record.pcr_result])
        for record in patients
    )
