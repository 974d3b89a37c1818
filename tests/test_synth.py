import hashlib
import io
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenotrail import synth
from phenotrail.assertion import AssertionLabel, RuleClassifier, write_gold_labels
from phenotrail.cohort import curate_notes, daily_counts
from phenotrail.errors import InputError
from phenotrail.lexicon import Lexicon, PhenotypeGroup, build_matcher, load_default_lexicon
from phenotrail.synth import (
    SynthConfig,
    TEMPLATE_SENTENCES,
    calibrate_from_daily_table,
    generate,
    write_notes_jsonl,
    write_patients_csv,
)
from phenotrail.textproc import (
    ClinicalNote,
    fingerprint,
    load_patients,
    parse_notes,
    segment_sentences,
)

from oracles import curate_jsonl, generate_oracle, write_corpus_oracle
from rosters import roster_of
from views import cell_patients


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


def written_files(patients, notes, gold, writer=None):
    """The bytes of notes.jsonl, patients.csv and gold_labels.csv."""
    streams = io.StringIO(), io.StringIO(), io.StringIO()
    if writer is None:
        write_notes_jsonl(notes, streams[0])
        write_patients_csv(patients, streams[1])
        write_gold_labels(gold, streams[2])
    else:
        writer(patients, notes, gold, *streams)
    return tuple(stream.getvalue().encode("utf-8", "surrogatepass") for stream in streams)


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

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed"):
            small_config(seed=-1)

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '"config"',
        "{broken",
        '{"n_pos": null, "n_neg": 5, "seed": 1, "day_probs": {}}',
        '{"n_pos": 5, "n_neg": 5, "seed": 1, "day_probs": {"cough|positive|-1": null}}',
        '{"n_pos": 5, "n_neg": 5, "seed": 1, "negation_rate": null, "day_probs": {}}',
        '{"n_pos": 5, "n_neg": 5, "seed": -1, "day_probs": {}}',
    ])
    def test_malformed_json_config_rejected(self, text):
        with pytest.raises(InputError, match="bad synth config"):
            SynthConfig.from_json(io.StringIO(text))

    @pytest.mark.parametrize("field", ["n_pos", "n_neg", "seed"])
    @pytest.mark.parametrize("value", [2.9, 3.0, "3", True], ids=["float", "whole_float",
                                                                  "string", "bool"])
    def test_inexact_integer_rejected(self, field, value):
        raw = {"n_pos": 5, "n_neg": 5, "seed": 1, "day_probs": {"cough|positive|-1": 0.5},
               field: value}
        with pytest.raises(InputError, match=f"{field} must be an integer"):
            SynthConfig.from_json(io.StringIO(json.dumps(raw)))

    @pytest.mark.parametrize("field", ["negation_rate", "uncertainty_rate", "other_rate",
                                       "template_rate", "day_probs"])
    @pytest.mark.parametrize("value", ["0.5", True, False, None, [0.5]],
                             ids=["string", "true", "false", "null", "list"])
    def test_non_number_float_rejected(self, field, value):
        raw = {"n_pos": 5, "n_neg": 5, "seed": 1, "day_probs": {"cough|positive|-1": 0.5}}
        if field == "day_probs":
            raw["day_probs"]["cough|positive|-1"] = value
            name = "day_probs['cough|positive|-1']"
        else:
            raw[field] = value
            name = field
        with pytest.raises(InputError, match=re.escape(f"{name} must be a number")):
            SynthConfig.from_json(io.StringIO(json.dumps(raw)))

    @pytest.mark.parametrize("value", ["1", "0.25", "1e-3"])
    def test_number_forms_accepted(self, value):
        text = ('{"n_pos": 5, "n_neg": 5, "seed": 1, "negation_rate": %s, '
                '"day_probs": {"cough|positive|-1": %s}}' % (value, value))
        config = SynthConfig.from_json(io.StringIO(text))
        assert config.negation_rate == float(value)
        assert config.day_probs == {("cough", "positive", -1): float(value)}

    def test_integer_too_large_for_float_rejected(self):
        text = '{"n_pos": 5, "n_neg": 5, "seed": 1, "other_rate": 1%s, "day_probs": {}}' % (
            "0" * 400)
        with pytest.raises(InputError, match="bad synth config"):
            SynthConfig.from_json(io.StringIO(text))

    @pytest.mark.parametrize("day", ["-1.0", "2.9", " 3", "+3", "true"])
    def test_inexact_day_rejected(self, day):
        raw = {"n_pos": 5, "n_neg": 5, "seed": 1, "day_probs": {f"cough|positive|{day}": 0.5}}
        with pytest.raises(InputError, match="bad synth config"):
            SynthConfig.from_json(io.StringIO(json.dumps(raw)))


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

    def test_roster_round_trip(self, lexicon):
        patients = generate(small_config(n_pos=70, n_neg=90), lexicon).patients
        stream = io.StringIO()
        write_patients_csv(patients, stream)
        stream.seek(0)
        roster = load_patients(stream)
        assert roster.ids == tuple(p.patient_id for p in patients)
        assert roster.index == {p.patient_id: i for i, p in enumerate(patients)}
        assert list(roster.pcr_days) == [p.pcr_date.toordinal() for p in patients]
        assert len(set(roster.pcr_days)) > 1
        assert roster.positive == sum(
            1 << i for i, p in enumerate(patients) if p.pcr_result == "positive")
        assert roster.positive == (1 << 70) - 1

    def test_notes_parse_and_align(self, lexicon):
        corpus = generate(small_config(), lexicon)
        buffer = io.StringIO()
        write_notes_jsonl(corpus.notes, buffer)
        buffer.seek(0)
        parsed = list(parse_notes(buffer))
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
        patients = roster_of(corpus.patients)
        table, rejects = curate_jsonl(corpus.notes, patients, matcher, RuleClassifier())
        assert rejects == []
        assert len(cell_patients(table, "fever_chills", -4)) == 60

    def test_gold_labels_cover_generated_sentences(self, lexicon, matcher):
        corpus = generate(small_config(), lexicon)
        gold = dict(((sid, idx), label) for sid, idx, label in corpus.gold)
        assert gold
        template_fps = {fingerprint(t) for t in TEMPLATE_SENTENCES}
        clf = RuleClassifier()
        for note in corpus.notes:
            for index, sentence in enumerate(segment_sentences(note.text)):
                key = (f"{note.note_id}:{index}", 0)
                if fingerprint(sentence) in template_fps:
                    assert key not in gold
                    continue
                assert key in gold
                mentions = matcher.find_mentions(sentence)
                assert len(mentions) == 1
                span = (mentions[0].start, mentions[0].end)
                label, _confidence = clf.classify(sentence, span)
                assert label == gold[key]

    def test_affirmed_terms_are_group_exclusive(self, lexicon, matcher):
        # presence recovery must not leak into other groups
        corpus = generate(small_config(seed=11), lexicon)
        gold = dict(((sid, idx), label) for sid, idx, label in corpus.gold)
        for note in corpus.notes:
            for index, sentence in enumerate(segment_sentences(note.text)):
                key = (f"{note.note_id}:{index}", 0)
                if gold.get(key) is AssertionLabel.YES:
                    (mention,) = matcher.find_mentions(sentence)
                    assert len(mention.group_ids) == 1

    def test_templates_flagged_at_default_threshold(self, lexicon, matcher):
        # Two of the injected templates name phenotypes; at the default
        # threshold no mention of theirs is left for the classifier.
        config = small_config(n_pos=200, n_neg=400, template_rate=0.6, seed=13)
        corpus = generate(config, lexicon)
        buffer = io.StringIO()
        write_notes_jsonl(corpus.notes, buffer)
        lines = buffer.getvalue().splitlines(keepends=True)
        patients = roster_of(corpus.patients)
        injected = {fingerprint(t) for t in TEMPLATE_SENTENCES}

        def requested(threshold):
            curation = curate_notes(lines, patients, matcher, None, threshold)
            return {fingerprint(sentence) for sentence, _start, _end in curation.requests()}

        assert len(injected & requested(None)) == 2
        assert not injected & requested(20)

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
        patients = roster_of(corpus.patients)
        table, _ = curate_jsonl(corpus.notes, patients, matcher, RuleClassifier(), 20)
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


# A group whose only terms match in uppercase only.
CAPS_GROUP = PhenotypeGroup("caps_only", "Caps only", ("qzx", "qzx vw"))


@pytest.fixture(scope="module")
def caps_lexicon(lexicon):
    return Lexicon(lexicon.groups + (CAPS_GROUP,),
                   caps_required=lexicon.caps_required | set(CAPS_GROUP.terms))


PROBABILITY = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
PHRASING_RATES = st.sampled_from(
    [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
) | st.tuples(*[st.floats(0.0, 1 / 3)] * 3)


@st.composite
def generator_cases(draw, group_ids):
    """(config, draw budget) with patient counts around the block size."""
    groups = draw(st.lists(st.sampled_from(group_ids), min_size=1, max_size=4,
                           unique=True))
    days = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=4, unique=True))
    cells = [(g, arm, d) for g in groups for arm in ("positive", "negative")
             for d in days]
    probs = draw(st.sampled_from(["zero", "one", "mixed"]))
    if probs == "mixed":
        day_probs = {cell: p for cell in cells
                     if (p := draw(st.none() | PROBABILITY)) is not None}
        # every group and day keeps at least one cell
        day_probs[(groups[0], "positive", days[0])] = 0.5
        for g in groups:
            day_probs.setdefault((g, "negative", days[-1]), 0.25)
        for d in days:
            day_probs.setdefault((groups[-1], "positive", d), 1.0)
    else:
        day_probs = dict.fromkeys(cells, 0.0 if probs == "zero" else 1.0)
    negation, uncertainty, other = draw(PHRASING_RATES)

    width = 5 * len(days) * len(groups) + 2 * len(days)
    block = draw(st.integers(1, 8))
    budget = block * width + draw(st.integers(0, width - 1))
    n_total = max(2, draw(st.sampled_from([block - 1, block, block + 1, 2 * block + 1])))
    n_pos = draw(st.integers(1, n_total - 1))
    config = SynthConfig(
        n_pos=n_pos, n_neg=n_total - n_pos, day_probs=day_probs,
        negation_rate=negation, uncertainty_rate=uncertainty, other_rate=other,
        template_rate=draw(PROBABILITY), seed=draw(st.integers(0, 2**130)),
    )
    return config, budget


def assert_matches_oracle(config, lexicon):
    corpus = generate(config, lexicon)
    patients, notes, gold = generate_oracle(config, lexicon)
    assert [tuple(p) for p in corpus.patients] == patients
    assert [tuple(n) for n in corpus.notes] == notes
    assert corpus.gold == gold
    assert (written_files(corpus.patients, corpus.notes, corpus.gold)
            == written_files(patients, notes, gold, write_corpus_oracle))
    return corpus


class TestGeneratorOracle:
    @settings(max_examples=150)
    @given(data=st.data())
    def test_blocks_match_cell_walk(self, caps_lexicon, data):
        config, budget = data.draw(generator_cases(caps_lexicon.group_ids))
        with mock.patch.object(synth, "_BLOCK_DRAWS", budget):
            assert_matches_oracle(config, caps_lexicon)

    def test_caps_only_group_emits_uppercase_terms(self, caps_lexicon):
        config = SynthConfig(
            n_pos=20, n_neg=20, seed=5,
            day_probs={("caps_only", arm, -1): 1.0 for arm in ("positive", "negative")},
        )
        corpus = assert_matches_oracle(config, caps_lexicon)
        assert len(corpus.notes) == 40
        assert all("QZX" in note.text for note in corpus.notes)

    def test_three_blocks_at_the_module_budget(self, lexicon):
        # All 26 groups on 29 days, every rate non-zero: two full blocks
        # and a block of one patient.
        days = range(-14, 15)
        width = 5 * len(days) * len(lexicon.group_ids) + 2 * len(days)
        block = synth._BLOCK_DRAWS // width
        config = SynthConfig(
            n_pos=block, n_neg=block + 1, seed=31,
            day_probs={(g, arm, d): 0.02 + 0.01 * (d % 3)
                       for g in lexicon.group_ids for arm in ("positive", "negative")
                       for d in days},
            negation_rate=0.02, uncertainty_rate=0.01, other_rate=0.01,
            template_rate=0.05,
        )
        assert_matches_oracle(config, lexicon)

    @given(st.lists(st.tuples(*[st.text(st.characters(exclude_categories=()))] * 3)))
    def test_notes_writer_matches_json_dumps(self, fields):
        when = synth._BASE_DATE
        notes = [ClinicalNote(pid, nid, when, text) for pid, nid, text in fields]
        assert (written_files([], notes, [])[0]
                == written_files([], [tuple(n) for n in notes], [],
                                 write_corpus_oracle)[0])


class TestSeeding:
    # Seeds of one to seven 32-bit words: up to three leave part of
    # SeedSequence's four-word pool to be filled with zeros, more are
    # mixed in after the pool.
    SEEDS = st.integers(0, 200).flatmap(lambda bits: st.integers(0, 2**bits))

    @settings(max_examples=300)
    @given(seed=SEEDS, index=st.integers(0, 2**32 - 1), count=st.integers(1, 3))
    def test_states_match_default_rng(self, seed, index, count):
        first = min(index, 2**32 - count)
        states = synth._pcg64_states(seed, first, count)
        assert len(states) == count
        for offset, (state, inc) in enumerate(states):
            expected = np.random.default_rng((seed, first + offset)).bit_generator.state
            assert {"state": state, "inc": inc} == expected["state"]

    def test_generate_seeds_no_numpy_object_per_patient(self, lexicon):
        config = small_config(seed=2**70 + 9)
        patients, notes, gold = generate_oracle(config, lexicon)

        def refuse(*args, **kwargs):
            raise AssertionError("generate built a numpy seed sequence")

        with mock.patch.object(np.random, "default_rng", refuse), \
                mock.patch.object(np.random, "SeedSequence", refuse):
            corpus = generate(config, lexicon)
        assert [tuple(n) for n in corpus.notes] == notes
        assert [tuple(p) for p in corpus.patients] == patients
        assert corpus.gold == gold


class TestGoldenCorpus:
    # SHA-256 of the synth files for one small calibrated config, taken
    # from the cell-by-cell generator this one replaced; the config's from
    # the field-by-field ``to_json`` that ``dataclasses.fields`` replaced.
    DIGESTS = {
        "notes.jsonl": "a8c25226d0a316d3f95fd026920b966d20c2e7ccb8bf20912c99a58c74358183",
        "patients.csv": "9297ecc539fcdf6243536ccd4093bf160ecd13a3beb9f2051f20fd84b063be4d",
        "gold_labels.csv": "a7a10bcd038014ecd206509e37ac6dc5de96ed43b34148912cc2c9a30a2ea45c",
        "synth_config.json": "ce1239162f1b6259536b112d3614783619c6307995d0eb22298e11fd83998232",
    }

    def test_files_match_recorded_digests(self, tmp_path):
        from phenotrail import bundled
        from phenotrail.cli import main

        assert main([
            "synth", "--calibrate-daily", bundled.data_path(bundled.DAILY_REFERENCE),
            "--n-pos", "40", "--n-neg", "160", "--negation-rate", "0.05",
            "--uncertainty-rate", "0.03", "--other-rate", "0.02",
            "--template-rate", "0.1", "--seed", "2718", "--out", str(tmp_path),
        ]) == 0
        for name, digest in self.DIGESTS.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
