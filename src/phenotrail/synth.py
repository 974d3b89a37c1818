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
from typing import IO, Iterable, Sequence

from .assertion import AssertionLabel
from .errors import InputError
from .lexicon import Lexicon
from .textproc import PatientRecord

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
        raw = json.load(source)
        try:
            day_probs = {}
            for key, p in raw["day_probs"].items():
                group_id, cohort, day = key.rsplit("|", 2)
                day_probs[(group_id, cohort, int(day))] = float(p)
            return cls(
                n_pos=int(raw["n_pos"]),
                n_neg=int(raw["n_neg"]),
                day_probs=day_probs,
                negation_rate=float(raw.get("negation_rate", 0.0)),
                uncertainty_rate=float(raw.get("uncertainty_rate", 0.0)),
                other_rate=float(raw.get("other_rate", 0.0)),
                template_rate=float(raw.get("template_rate", 0.0)),
                seed=int(raw["seed"]),
            )
        except (KeyError, ValueError, AttributeError) as exc:
            raise InputError(f"bad synth config: {exc}") from None


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
class SynthNote:
    patient_id: str
    note_id: str
    date: date
    text: str


@dataclass
class SynthCorpus:
    patients: list[PatientRecord]
    notes: list[SynthNote]
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


def generate(config: SynthConfig, lexicon: Lexicon) -> SynthCorpus:
    """Produce (roster, notes, gold labels); identical output per seed."""
    import numpy as np  # here, so that every other command starts without numpy

    known = set(lexicon.group_ids)
    missing = [g for g in config.group_ids if g not in known]
    if missing:
        raise InputError(f"config references groups missing from lexicon: {missing}")

    groups = [g for g in lexicon.group_ids if g in set(config.group_ids)]
    days = config.days
    n_days, n_groups = len(days), len(groups)
    terms_by_group = {g: _exclusive_terms(lexicon, g) for g in groups}

    prob_matrix = {
        cohort: np.array(
            [
                [config.day_probs.get((g, cohort, d), 0.0) for g in groups]
                for d in days
            ]
        )
        for cohort in ("positive", "negative")
    }
    noise_total = config.negation_rate + config.uncertainty_rate + config.other_rate
    noise_cut1 = config.negation_rate
    noise_cut2 = config.negation_rate + config.uncertainty_rate

    patients: list[PatientRecord] = []
    notes: list[SynthNote] = []
    gold: list[tuple[str, int, AssertionLabel]] = []

    n_total = config.n_pos + config.n_neg
    for index in range(n_total):
        cohort = "positive" if index < config.n_pos else "negative"
        patient_id = f"SP{index:06d}"
        pcr_date = _BASE_DATE + timedelta(days=index % _DATE_CYCLE)
        patients.append(PatientRecord(patient_id, pcr_date, cohort))
        if n_days == 0 or n_groups == 0:
            continue

        rng = np.random.default_rng((config.seed, index))
        draws = rng.random((5, n_days, n_groups))
        template_draws = rng.random((2, n_days))
        present = draws[0] < prob_matrix[cohort]
        noise = (~present) & (draws[1] < noise_total) if noise_total else None

        for day_idx, day in enumerate(days):
            sentences: list[tuple[str, AssertionLabel | None]] = []
            for group_idx, group_id in enumerate(groups):
                if present[day_idx, group_idx]:
                    label = AssertionLabel.YES
                elif noise is not None and noise[day_idx, group_idx]:
                    v = draws[1, day_idx, group_idx]
                    if v < noise_cut1:
                        label = AssertionLabel.NO
                    elif v < noise_cut2:
                        label = AssertionLabel.MAYBE
                    else:
                        label = AssertionLabel.OTHER
                else:
                    continue
                terms = terms_by_group[group_id]
                term = terms[int(draws[2, day_idx, group_idx] * len(terms))]
                bank = _FRAME_BANKS[label]
                frame = bank[int(draws[3, day_idx, group_idx] * len(bank))]
                number = int(draws[4, day_idx, group_idx] * _NUMBER_SPAN) + 1
                sentences.append((frame.format(term, number), label))

            if template_draws[0, day_idx] < config.template_rate:
                variant = int(template_draws[1, day_idx] * len(TEMPLATE_SENTENCES))
                sentences.append((TEMPLATE_SENTENCES[variant], None))

            if not sentences:
                continue
            note_id = f"{patient_id}-D{day:+03d}"
            notes.append(
                SynthNote(
                    patient_id=patient_id,
                    note_id=note_id,
                    date=pcr_date + timedelta(days=day),
                    text=" ".join(text for text, _ in sentences),
                )
            )
            for sentence_index, (_text, label) in enumerate(sentences):
                if label is not None:
                    gold.append((f"{note_id}:{sentence_index}", 0, label))

    return SynthCorpus(patients=patients, notes=notes, gold=gold)


# ---------------------------------------------------------------------------
# Corpus writers (exactly the ingestion formats the pipeline consumes)


def write_notes_jsonl(notes: Sequence[SynthNote], stream: IO[str]) -> None:
    for note in notes:
        stream.write(
            json.dumps(
                {
                    "patient_id": note.patient_id,
                    "note_id": note.note_id,
                    "date": note.date.isoformat(),
                    "text": note.text,
                },
                ensure_ascii=False,
            )
            + "\n"
        )


def write_patients_csv(patients: Sequence[PatientRecord], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["patient_id", "pcr_date", "pcr_result"])
    short = {"positive": "pos", "negative": "neg"}
    for record in patients:
        writer.writerow([record.patient_id, record.pcr_date.isoformat(),
                         short[record.pcr_result]])
