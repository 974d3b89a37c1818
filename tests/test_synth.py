import io
import json
import math

import pytest

from phenotrail.assertion import AssertionLabel, RuleClassifier
from phenotrail.cohort import build_presence, corpus_fingerprints, daily_counts
from phenotrail.errors import InputError
from phenotrail.lexicon import build_matcher, load_default_lexicon
from phenotrail.synth import (
    SynthConfig,
    TEMPLATE_SENTENCES,
    calibrate_from_daily_table,
    generate,
    write_notes_jsonl,
    write_patients_csv,
)
from phenotrail.textproc import ClinicalNote, fingerprint, load_notes, segment_sentences


@pytest.fixture(scope="module")
def lexicon():
    return load_default_lexicon()


@pytest.fixture(scope="module")
def matcher(lexicon):
    return build_matcher(lexicon)


def small_config(**overrides):
    params = dict(
        n_pos=40,
        n_neg=120,
        day_probs={
            ("fever_chills", "positive", -3): 0.5,
            ("fever_chills", "negative", -3): 0.1,
            ("cough", "positive", -2): 0.3,
            ("cough", "negative", -2): 0.05,
        },
        negation_rate=0.05,
        uncertainty_rate=0.03,
        other_rate=0.02,
        template_rate=0.2,
        seed=7,
    )
    params.update(overrides)
    return SynthConfig(**params)


def corpus_as_notes(corpus):
    return [
        ClinicalNote(n.patient_id, n.note_id, n.date, n.text) for n in corpus.notes
    ]


class TestConfig:
    def test_calibration_example(self):
        config = calibrate_from_daily_table(
            [("cough", -7, 2.83, 0.72)], n_pos=635, n_neg=29859
        )
        p = config.day_probs[("cough", "positive", -7)]
        assert p == pytest.approx(0.0283)
        assert round(p * 635) == 18
        assert config.day_probs[("cough", "negative", -7)] == pytest.approx(0.0072)

    def test_zero_percent_cell(self):
        config = calibrate_from_daily_table([("cough", -7, 0.0, 0.0)], 10, 10)
        assert config.day_probs[("cough", "positive", -7)] == 0.0

    def test_percentage_validation(self):
        with pytest.raises(InputError, match="outside"):
            calibrate_from_daily_table([("cough", -7, 120.0, 0.0)], 10, 10)
        with pytest.raises(InputError, match="outside"):
            calibrate_from_daily_table([("cough", -7, -1.0, 0.0)], 10, 10)

    def test_rate_validation(self):
        with pytest.raises(InputError, match="sum"):
            small_config(negation_rate=0.6, uncertainty_rate=0.5)
        with pytest.raises(InputError):
            small_config(n_pos=0)

    def test_json_roundtrip(self):
        config = small_config()
        buffer = io.StringIO()
        config.to_json(buffer)
        buffer.seek(0)
        assert SynthConfig.from_json(buffer) == config


class TestGenerate:
    def test_same_seed_identical_output(self, lexicon):
        config = small_config()
        first = generate(config, lexicon)
        second = generate(config, lexicon)
        buffers = []
        for corpus in (first, second):
            notes_buffer, patients_buffer = io.StringIO(), io.StringIO()
            write_notes_jsonl(corpus.notes, notes_buffer)
            write_patients_csv(corpus.patients, patients_buffer)
            buffers.append((notes_buffer.getvalue(), patients_buffer.getvalue()))
        assert buffers[0] == buffers[1]
        assert first.gold == second.gold

    def test_different_seed_differs(self, lexicon):
        a = generate(small_config(seed=1), lexicon)
        b = generate(small_config(seed=2), lexicon)
        assert [n.text for n in a.notes] != [n.text for n in b.notes]

    def test_roster_sizes_and_arms(self, lexicon):
        corpus = generate(small_config(), lexicon)
        assert len(corpus.patients) == 160
        assert sum(1 for p in corpus.patients if p.pcr_result == "positive") == 40

    def test_notes_parse_and_align(self, lexicon):
        corpus = generate(small_config(), lexicon)
        buffer = io.StringIO()
        write_notes_jsonl(corpus.notes, buffer)
        buffer.seek(0)
        parsed = load_notes(buffer)
        assert len(parsed) == len(corpus.notes)
        by_id = {p.patient_id: p for p in corpus.patients}
        for note in parsed:
            delta = (note.date - by_id[note.patient_id].pcr_date).days
            assert delta in (-3, -2)

    def test_probability_one_recovers_everyone(self, lexicon, matcher):
        config = SynthConfig(
            n_pos=30, n_neg=30,
            day_probs={("fever_chills", "positive", -4): 1.0,
                       ("fever_chills", "negative", -4): 1.0},
            seed=3,
        )
        corpus = generate(config, lexicon)
        patients = {p.patient_id: p for p in corpus.patients}
        table, rejects = build_presence(
            corpus_as_notes(corpus), patients, matcher, RuleClassifier()
        )
        assert rejects == []
        assert len(table.patients("fever_chills", -4)) == 60

    def test_gold_labels_cover_generated_sentences(self, lexicon, matcher):
        corpus = generate(small_config(), lexicon)
        gold = dict(((sid, idx), label) for sid, idx, label in corpus.gold)
        assert gold
        template_fps = {fingerprint(t) for t in TEMPLATE_SENTENCES}
        clf = RuleClassifier()
        for note in corpus_as_notes(corpus):
            for sentence in segment_sentences(note):
                key = (f"{note.note_id}:{sentence.index}", 0)
                if fingerprint(sentence.text) in template_fps:
                    assert key not in gold
                    continue
                assert key in gold
                mentions = matcher.find_mentions(sentence.text)
                assert len(mentions) == 1
                span = (mentions[0].start, mentions[0].end)
                label, _confidence = clf.classify(sentence.text, span)
                assert label == gold[key]

    def test_affirmed_terms_are_group_exclusive(self, lexicon, matcher):
        # presence recovery must not leak into other groups
        corpus = generate(small_config(seed=11), lexicon)
        gold = dict(((sid, idx), label) for sid, idx, label in corpus.gold)
        for note in corpus_as_notes(corpus):
            for sentence in segment_sentences(note):
                key = (f"{note.note_id}:{sentence.index}", 0)
                if gold.get(key) is AssertionLabel.YES:
                    (mention,) = matcher.find_mentions(sentence.text)
                    assert len(mention.group_ids) == 1

    def test_templates_flagged_at_default_threshold(self, lexicon):
        config = small_config(n_pos=200, n_neg=400, template_rate=0.6, seed=13)
        corpus = generate(config, lexicon)
        fingerprints = corpus_fingerprints(corpus_as_notes(corpus))
        flagged = {
            fp for fp, pats in fingerprints.items() if len(pats) >= 20
        }
        injected = {fingerprint(t) for t in TEMPLATE_SENTENCES}
        assert injected <= flagged

    def test_unknown_group_rejected(self, lexicon):
        config = SynthConfig(
            n_pos=5, n_neg=5, day_probs={("nope", "positive", -1): 0.5}, seed=1
        )
        with pytest.raises(InputError, match="missing from lexicon"):
            generate(config, lexicon)


class TestRoundTrip:
    def test_recovered_daily_proportions_within_3_sigma(self, lexicon, matcher):
        probs = {
            ("fever_chills", "positive", -3): 0.30,
            ("fever_chills", "negative", -3): 0.06,
            ("cough", "positive", -2): 0.20,
            ("cough", "negative", -2): 0.02,
            ("diarrhea", "positive", -1): 0.10,
            ("diarrhea", "negative", -1): 0.03,
        }
        config = SynthConfig(
            n_pos=300, n_neg=900, day_probs=probs,
            negation_rate=0.05, uncertainty_rate=0.02, other_rate=0.02,
            template_rate=0.1, seed=20200315,
        )
        corpus = generate(config, lexicon)
        patients = {p.patient_id: p for p in corpus.patients}
        notes = corpus_as_notes(corpus)
        fingerprints = corpus_fingerprints(notes)
        templates = {fp for fp, pats in fingerprints.items() if len(pats) >= 20}
        table, _ = build_presence(
            notes, patients, matcher, RuleClassifier(), templates=templates
        )
        counts = {
            (gid, day): (kp, kn) for gid, day, kp, kn in daily_counts(table, (-7, -1))
        }
        sizes = {"positive": config.n_pos, "negative": config.n_neg}
        for (gid, cohort, day), p in probs.items():
            n = sizes[cohort]
            k_pos, k_neg = counts[(gid, day)]
            k = k_pos if cohort == "positive" else k_neg
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(k / n - p) <= 3 * sigma, (gid, cohort, day, k / n, p)
