import ast
import csv
import filecmp
import gc
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tracemalloc
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phenotrail
from phenotrail import bundled
from phenotrail.cli import build_parser, main, rerun_from_manifest, run
from phenotrail.errors import InputError
from phenotrail.lexicon import load_default_lexicon

from oracles import fisher_log10_oracle, format_p_oracle, load_patients_oracle

DAILY = bundled.data_path(bundled.DAILY_REFERENCE)
PAIRS = bundled.data_path(bundled.PAIR_REFERENCE)
WEEK = bundled.data_path(bundled.WEEK_REFERENCE)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def synth_args(out, seed=42, n_pos=25, n_neg=75):
    return [
        "synth",
        "--calibrate-daily", DAILY,
        "--n-pos", str(n_pos),
        "--n-neg", str(n_neg),
        "--negation-rate", "0.01",
        "--uncertainty-rate", "0.005",
        "--other-rate", "0.005",
        "--template-rate", "0.05",
        "--seed", str(seed),
        "--out", str(out),
    ]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(synth_args(out, n_pos=60, n_neg=180)) == 0
    return out


@pytest.fixture(scope="module")
def curated_dir(tmp_path_factory, corpus_dir):
    """corpus_dir curated with the per-patient export."""
    out = tmp_path_factory.mktemp("curated")
    assert main(["curate", *corpus_args(corpus_dir), "--per-patient", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def duplicate_roster(tmp_path_factory, corpus_dir):
    """corpus_dir's roster with duplicate rows, and corpus_dir curated over
    it with the per-patient export.  Patient k gets, by k % 4: a later row
    of the other arm, a same-date row of the other arm, an earlier row of
    the other arm before its own, or no other row."""
    out = tmp_path_factory.mktemp("duplicates")
    header, *rows = read_csv(corpus_dir / "patients.csv")
    other = {"pos": "neg", "neg": "pos"}
    lines = [header]
    for k, (patient_id, pcr_date, result) in enumerate(rows):
        shift = {0: 2, 1: 0, 2: -2}.get(k % 4)
        if shift is None:
            lines.append([patient_id, pcr_date, result])
            continue
        moved = (date.fromisoformat(pcr_date) + timedelta(days=shift)).isoformat()
        pair = [[patient_id, pcr_date, result], [patient_id, moved, other[result]]]
        lines += pair[::-1] if shift < 0 else pair
    with open(out / "patients.csv", "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(lines)
    assert main(["curate", "--notes", str(corpus_dir / "notes.jsonl"),
                 "--patients", str(out / "patients.csv"), "--per-patient",
                 "--out", str(out)]) == 0
    return out


def corpus_args(corpus_dir):
    return ["--notes", str(corpus_dir / "notes.jsonl"),
            "--patients", str(corpus_dir / "patients.csv")]


def usage_error(message, command=None):
    """The stderr of an argparse refusal: the usage of the top-level parser,
    or of ``command``'s, then its error line."""
    parser = build_parser()
    if command:
        parser = parser._subparsers._group_actions[0].choices[command]
    return f"{parser.format_usage()}{parser.prog}: error: {message}\n"


def presence_args(corpus_dir, curated_dir):
    return ["--presence", str(curated_dir / "presence_long.csv"),
            "--patients", str(corpus_dir / "patients.csv")]


TABLE_FILES = {"enrich": "enrichment.csv", "timeline": "timeline.csv",
               "pairwise": "pairwise.csv"}
REFERENCES = {"enrich": WEEK, "timeline": DAILY, "pairwise": PAIRS}


class TestSynthCommand:
    def test_outputs_exist(self, corpus_dir):
        for name in ("notes.jsonl", "patients.csv", "gold_labels.csv",
                     "synth_config.json", "manifest.json"):
            assert (corpus_dir / name).exists()

    def test_identical_trees_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(synth_args(a)) == 0
        assert main(synth_args(b)) == 0
        for name in ("notes.jsonl", "patients.csv", "gold_labels.csv",
                     "synth_config.json"):
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_config_reuse_matches_calibration(self, tmp_path, corpus_dir):
        out = tmp_path / "fromconfig"
        assert main([
            "synth", "--config", str(corpus_dir / "synth_config.json"),
            "--out", str(out),
        ]) == 0
        for name in ("notes.jsonl", "patients.csv", "gold_labels.csv"):
            assert filecmp.cmp(out / name, corpus_dir / name, shallow=False), name

    def synth_config_error(self, corpus_dir, tmp_path, capsys, edit):
        """Run synth on an edited config; assert exit 2 and return stderr."""
        config = json.loads((corpus_dir / "synth_config.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(edit(config)))
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error: bad synth config" in err
        return err

    def test_config_top_level_array_exit_code(self, corpus_dir, tmp_path, capsys):
        err = self.synth_config_error(corpus_dir, tmp_path, capsys, lambda config: [config])
        assert "expected a JSON object" in err

    @pytest.mark.parametrize("field", ["n_pos", "seed", "template_rate", "day_probs"])
    def test_config_null_field_exit_code(self, corpus_dir, tmp_path, capsys, field):
        self.synth_config_error(
            corpus_dir, tmp_path, capsys, lambda config: {**config, field: None})

    def test_config_negative_seed_exit_code(self, corpus_dir, tmp_path, capsys):
        err = self.synth_config_error(
            corpus_dir, tmp_path, capsys, lambda config: {**config, "seed": -1})
        assert "seed must be non-negative" in err

    @pytest.mark.parametrize("field", ["n_pos", "n_neg", "seed"])
    @pytest.mark.parametrize("value", [2.9, "3", True], ids=["float", "string", "bool"])
    def test_config_inexact_integer_exit_code(self, corpus_dir, tmp_path, capsys,
                                              field, value):
        err = self.synth_config_error(
            corpus_dir, tmp_path, capsys, lambda config: {**config, field: value})
        assert f"{field} must be an integer" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["negation_rate", "uncertainty_rate", "other_rate",
                                       "template_rate", "day_probs"])
    @pytest.mark.parametrize("value", ["0.5", True], ids=["string", "bool"])
    def test_config_non_number_float_exit_code(self, corpus_dir, tmp_path, capsys,
                                               field, value):
        def edit(config):
            if field != "day_probs":
                return {**config, field: value}
            key = sorted(config["day_probs"])[0]
            return {**config, "day_probs": {**config["day_probs"], key: value}}

        err = self.synth_config_error(corpus_dir, tmp_path, capsys, edit)
        assert f"{field}" in err and "must be a number" in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_option_exit_code(self, tmp_path, capsys):
        assert main(synth_args(tmp_path / "out", seed=-1)) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCurateCommand:
    def test_curate_runs_and_is_deterministic(self, corpus_dir, tmp_path):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        base = [
            "curate",
            "--notes", str(corpus_dir / "notes.jsonl"),
            "--patients", str(corpus_dir / "patients.csv"),
            "--per-patient",
        ]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--workers", "2", "--out", str(out2)]) == 0
        assert filecmp.cmp(out1 / "presence.csv", out2 / "presence.csv", shallow=False)
        assert filecmp.cmp(out1 / "presence_long.csv", out2 / "presence_long.csv",
                           shallow=False)
        rows = read_csv(out1 / "presence.csv")
        assert rows[0] == ["group_id", "relative_day", "cohort", "patient_count"]
        assert len(rows) > 1

    def test_empty_notes_ok(self, corpus_dir, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "out"
        assert main([
            "curate", "--notes", str(empty),
            "--patients", str(corpus_dir / "patients.csv"),
            "--out", str(out),
        ]) == 0
        assert read_csv(out / "presence.csv") == [
            ["group_id", "relative_day", "cohort", "patient_count"]
        ]

    def test_unknown_patient_goes_to_rejects(self, corpus_dir, tmp_path):
        notes = tmp_path / "notes.jsonl"
        notes.write_text(
            '{"patient_id": "nobody", "note_id": "x1", "date": "2020-03-10", "text": "Fever."}\n'
        )
        out = tmp_path / "out"
        assert main([
            "curate", "--notes", str(notes),
            "--patients", str(corpus_dir / "patients.csv"),
            "--out", str(out),
        ]) == 0
        rows = read_csv(out / "rejects.csv")
        assert rows[1][0] == "x1"

    def test_validation_error_exit_code(self, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main([
            "curate", "--notes", str(bad),
            "--patients", str(corpus_dir / "patients.csv"),
            "--out", str(tmp_path / "out"),
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main([
            "curate", "--notes", str(tmp_path / "nope.jsonl"),
            "--patients", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "out"),
        ]) == 2

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_bad_worker_count_rejected(self, corpus_dir, tmp_path, workers):
        assert main([
            "curate", "--notes", str(corpus_dir / "notes.jsonl"),
            "--patients", str(corpus_dir / "patients.csv"),
            "--workers", workers,
            "--out", str(tmp_path / "out"),
        ]) == 2
        assert not (tmp_path / "out").exists()

    def test_degenerate_template_threshold_rejected(self, corpus_dir, tmp_path):
        assert main([
            "curate", "--notes", str(corpus_dir / "notes.jsonl"),
            "--patients", str(corpus_dir / "patients.csv"),
            "--template-threshold", "1",
            "--out", str(tmp_path / "out"),
        ]) == 2

    @pytest.mark.parametrize("dump", [False, True], ids=["curate", "dump_requests"])
    def test_bad_window_rejected_before_any_output(self, corpus_dir, tmp_path, capsys, dump):
        # curate writes no window's counts, so it takes no --window at all.
        requests = tmp_path / "requests.jsonl"
        extra = ["--dump-classification-requests", str(requests)] if dump else []
        assert main([
            "curate", *corpus_args(corpus_dir), "--window=-20..-1", *extra,
            "--out", str(tmp_path / "out"),
        ]) == 2
        assert capsys.readouterr().err == usage_error(
            "unrecognized arguments: --window=-20..-1")
        assert not (tmp_path / "out").exists()
        assert not requests.exists()

    def test_window_is_not_a_curate_option(self, corpus_dir, tmp_path, capsys):
        """A window inside the day range changed no curate output, so it
        was ignored; it is refused like any other unknown option."""
        assert main(["curate", *corpus_args(corpus_dir), "--window=-3..-1",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == usage_error("unrecognized arguments: --window=-3..-1")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, dump", [
        ("curate", False), ("curate", True), ("enrich", False), ("timeline", False),
        ("pairwise", False)], ids=["curate", "dump_requests", "enrich", "timeline",
                                   "pairwise"])
    def test_template_threshold_without_the_filter_exit_code(
            self, corpus_dir, tmp_path, capsys, command, dump):
        requests = tmp_path / "requests.jsonl"
        extra = ["--dump-classification-requests", str(requests)] if dump else []
        assert main([command, *corpus_args(corpus_dir), "--no-template-filter",
                     "--template-threshold", "1", *extra, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("error: --template-threshold applies only with the "
                                           "template filter, not with --no-template-filter\n")
        assert not (tmp_path / "out").exists()
        assert not requests.exists()

    @pytest.mark.parametrize("option", ["--include-maybe", "--per-patient"])
    def test_table_option_with_a_dump_exit_code(self, corpus_dir, tmp_path, capsys, option):
        requests = tmp_path / "requests.jsonl"
        assert main(["curate", *corpus_args(corpus_dir), "--dump-classification-requests",
                     str(requests), option, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {option} applies only when the presence tables are written, "
            "not with --dump-classification-requests\n")
        assert not (tmp_path / "out").exists()
        assert not requests.exists()

    def test_dump_with_responses_exit_code(self, corpus_dir, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        assert main(["curate", *corpus_args(corpus_dir), "--dump-classification-requests",
                     str(requests), "--classification-responses", "/nonexistent",
                     "--include-maybe", "--per-patient", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == usage_error(
            "argument --classification-responses: not allowed with argument "
            "--dump-classification-requests", "curate")
        assert not (tmp_path / "out").exists()
        assert not requests.exists()

    def test_external_classifier_batch_roundtrip(self, corpus_dir, tmp_path):
        requests = tmp_path / "requests.jsonl"
        base = [
            "curate",
            "--notes", str(corpus_dir / "notes.jsonl"),
            "--patients", str(corpus_dir / "patients.csv"),
        ]
        assert main(base + [
            "--dump-classification-requests", str(requests),
            "--out", str(tmp_path / "ignored"),
        ]) == 0
        tasks = [json.loads(line) for line in requests.read_text().splitlines()]
        assert tasks and all(
            set(t) == {"sentence", "span_start", "span_end"} for t in tasks
        )

        # all-NO external classifier: presence must be empty
        responses = tmp_path / "responses.jsonl"
        responses.write_text(
            "".join('{"label": "NO", "confidence": 1.0}\n' for _ in tasks)
        )
        out = tmp_path / "external"
        assert main(base + [
            "--classification-responses", str(responses),
            "--out", str(out),
        ]) == 0
        assert read_csv(out / "presence.csv") == [
            ["group_id", "relative_day", "cohort", "patient_count"]
        ]

        # wrong cardinality is a validation error
        responses.write_text('{"label": "NO", "confidence": 1.0}\n')
        assert main(base + [
            "--classification-responses", str(responses),
            "--out", str(tmp_path / "bad"),
        ]) == 2


NE_NOTE = '{"patient_id": "P1", "note_id": "né", "date": "2020-04-01", "text": "Fever."}'


class TestCurateStream:
    """curate reads the notes file once, line by line, at any worker count."""

    @staticmethod
    def _corpus(tmp_path, n=4400):
        return [json.dumps({"patient_id": f"P{k % 7}", "note_id": f"n{k}",
                            "date": "2020-04-01", "text": "Fever."}) for k in range(n)]

    @pytest.mark.parametrize("edit, message", [
        # a duplicate of line 1 just past the 2000-line chunk boundary,
        # then a bad line further on in the same chunk
        ({2002: "dup:0", 2500: "{bad"}, "notes line 2003: duplicate note_id 'n0'"),
        # the same duplicate, with the bad line in the third chunk
        ({2002: "dup:0", 4050: "[1]"}, "notes line 2003: duplicate note_id 'n0'"),
        # a bad line in the first chunk before a later duplicate
        ({1500: "{bad", 3000: "dup:2"}, "notes line 1501: invalid JSON"),
        # a duplicate across the boundary whose first copy is also in chunk 2
        ({3999: "dup:2001"}, "notes line 4000: duplicate note_id 'n2001'"),
        # not UTF-8 in the third chunk, after a bad line in the second
        ({2600: "{bad", 4090: "bytes"}, "notes line 2601: invalid JSON"),
        ({4090: "bytes"}, "notes line 4091: not valid UTF-8"),
        # a bad line in the chunk that the undecodable bytes cut short
        ({4050: "{bad", 4390: "bytes"}, "notes line 4051: invalid JSON"),
        # a non-ASCII id, held as its UTF-8, copied just past the boundary:
        # its first copy by a rostered patient, then by an unknown one
        ({10: NE_NOTE, 2002: "dup:10"}, "notes line 2003: duplicate note_id 'né'"),
        ({10: NE_NOTE.replace("P1", "P0"), 2002: "dup:10"},
         "notes line 2003: duplicate note_id 'né'"),
    ])
    def test_malformed_jsonl_same_error_at_any_worker_count(
            self, fuzz_roster, tmp_path, capsys, edit, message):
        lines = [line.encode() for line in self._corpus(tmp_path)]
        for index, change in edit.items():
            if change.startswith("dup:"):
                lines[index] = lines[int(change[4:])]
            elif change == "bytes":
                lines[index] = lines[index].replace(b"Fever", b"Fe\xffver")
            else:
                lines[index] = change.encode()
        notes = tmp_path / "notes.jsonl"
        notes.write_bytes(b"\n".join(lines) + b"\n")
        outcomes = []
        for workers in ("1", "2"):
            code = main(["curate", "--notes", str(notes),
                         "--patients", str(fuzz_roster / "patients.csv"),
                         "--workers", workers, "--out", str(tmp_path / f"out{workers}")])
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 2 and message in outcomes[0][1], outcomes[0]

    def test_read_error_in_a_corpus_shorter_than_a_chunk(self, fuzz_roster, tmp_path, capsys):
        lines = [line.encode() for line in self._corpus(tmp_path, n=30)]
        lines[20] = lines[20].replace(b"Fever", b"Fe\xffver")
        notes = tmp_path / "short.jsonl"
        notes.write_bytes(b"\n".join(lines) + b"\n")
        for workers in ("1", "2"):
            assert main(["curate", "--notes", str(notes),
                         "--patients", str(fuzz_roster / "patients.csv"),
                         "--workers", workers, "--out", str(tmp_path / "out")]) == 2
            assert "notes line 21: not valid UTF-8" in capsys.readouterr().err

    def test_replay_is_identical_at_any_worker_count(self, corpus_dir, tmp_path, monkeypatch):
        from phenotrail import cohort

        monkeypatch.setattr(cohort, "_CHUNK", 50)  # so that the pool runs on this corpus
        requests = tmp_path / "requests.jsonl"
        base = ["curate", *corpus_args(corpus_dir)]
        assert main([*base, "--dump-classification-requests", str(requests), "--workers", "1",
                     "--out", str(tmp_path / "ignored")]) == 0
        dumped = requests.read_bytes()
        assert main([*base, "--dump-classification-requests", str(requests), "--workers", "2",
                     "--out", str(tmp_path / "ignored")]) == 0
        assert requests.read_bytes() == dumped
        labels = ["YES", "YES", "NO", "MAYBE", "OTHER"]
        responses = tmp_path / "responses.jsonl"
        responses.write_text("".join(
            json.dumps({"label": labels[k % 5], "confidence": 1.0}) + "\n"
            for k in range(len(dumped.splitlines()))))
        for workers in ("1", "2"):
            assert main([*base, "--classification-responses", str(responses),
                         "--include-maybe", "--per-patient", "--workers", workers,
                         "--out", str(tmp_path / f"replay{workers}")]) == 0
        for name in ("presence.csv", "presence_long.csv", "rejects.csv"):
            assert filecmp.cmp(tmp_path / "replay1" / name, tmp_path / "replay2" / name,
                               shallow=False), name
        assert len(read_csv(tmp_path / "replay1" / "presence.csv")) > 1


class TestDefaultWorkers:
    """An omitted --workers is 1 on every host; only --workers N > 1 runs the pool."""

    def test_one_without_fork(self, corpus_dir, tmp_path, capsys, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert main(["curate", *corpus_args(corpus_dir), "--out", str(tmp_path / "one")]) == 0
        requests = tmp_path / "requests.jsonl"
        for extra in ([], ["--dump-classification-requests", str(requests)]):
            assert main(["curate", *corpus_args(corpus_dir), "--workers", "2", *extra,
                         "--out", str(tmp_path / "two")]) == 2
            assert capsys.readouterr().err == (
                "error: --workers 2 needs the fork start method, which this platform"
                " lacks; use --workers 1\n")
        assert main(["enrich", *corpus_args(corpus_dir), "--workers", "3",
                     "--out", str(tmp_path / "two")]) == 2
        assert "error: --workers 3 needs the fork start method" in capsys.readouterr().err
        assert not (tmp_path / "two").exists() and not requests.exists()

    def test_omitted_equals_one_worker(self, tmp_path, monkeypatch, curated_dir, corpus_dir):
        from phenotrail import cohort

        corpus = tmp_path / "corpus"
        assert main(synth_args(corpus, n_pos=500, n_neg=1700)) == 0
        assert len((corpus / "notes.jsonl").read_bytes().splitlines()) > cohort._CHUNK
        pooled, real_pool = [], cohort._pool_pass_all

        def pool_pass_all(cfg, total, chunks, workers, halt):
            pooled.append(workers)
            return real_pool(cfg, total, chunks, workers, halt)

        monkeypatch.setattr(cohort, "_pool_pass_all", pool_pass_all)
        for command, extra, outputs in (
            ("curate", ["--per-patient"], ("presence.csv", "presence_long.csv", "rejects.csv")),
            ("enrich", [], ("enrichment.csv",)),
        ):
            for name, workers, option in (("default", 1, []), ("two", 2, ["--workers", "2"])):
                pooled.clear()
                assert main([command, *corpus_args(corpus), *extra, *option,
                             "--out", str(tmp_path / command / name)]) == 0
                assert pooled == ([2] if option else [])  # the pool runs only when asked
                manifest = json.loads((tmp_path / command / name / "manifest.json").read_text())
                assert manifest["config"]["workers"] == workers
            for output in outputs:
                assert filecmp.cmp(tmp_path / command / "default" / output,
                                   tmp_path / command / "two" / output, shallow=False), output
        # Runs that curate nothing record no worker count.
        for source in (presence_args(corpus_dir, curated_dir), ["--from-counts", WEEK]):
            out = tmp_path / "uncurated"
            assert main(["enrich", *source, "--out", str(out)]) == 0
            assert json.loads((out / "manifest.json").read_text())["config"]["workers"] is None


class TestFromCounts:
    def test_enrich_from_counts(self, tmp_path):
        out = tmp_path / "enrich"
        assert main(["enrich", "--from-counts", WEEK, "--out", str(out)]) == 0
        rows = read_csv(out / "enrichment.csv")
        assert rows[0][0] == "Phenotype"
        assert rows[0][1] == "COVID+ count (N=635)"
        assert len(rows) == 27
        top = rows[1]
        assert top[0] == "Altered or diminished sense of taste or smell"
        assert top[5] == "37.44"
        assert top[6] == "2.95E-187"

    def test_timeline_from_counts(self, tmp_path):
        out = tmp_path / "timeline"
        assert main(["timeline", "--from-counts", DAILY, "--out", str(out)]) == 0
        rows = read_csv(out / "timeline.csv")
        assert len(rows) == 92
        cough7 = next(r for r in rows if r[0] == "Cough" and r[1] == "-7")
        assert cough7[4] == "3.94"
        anosmia6 = next(
            r for r in rows
            if r[0].startswith("Altered") and r[1] == "-6"
        )
        assert anosmia6[4] == "-"

    def test_pairwise_from_counts(self, tmp_path):
        out = tmp_path / "pairs"
        assert main([
            "pairwise", "--from-counts", PAIRS, "--m-tests", "277",
            "--out", str(out),
        ]) == 0
        rows = read_csv(out / "pairwise.csv")
        assert len(rows) == 20
        top = rows[1]
        assert {top[0], top[1]} == {
            "Altered or diminished sense of taste or smell", "Cough"
        }
        assert top[8] == "2.55E-43"

    @pytest.mark.parametrize("k_pos, n_pos, k_neg, n_neg, printed", [
        (380, 6_350, 310, 298_590, "1.32E-442"),
        (1_077, 18_000, 874, 842_000, "8.37E-1250"),
        (206, 635, 33, 29_859, "8.90E-323"),
    ])
    def test_pairwise_below_the_double_range(self, tmp_path, k_pos, n_pos, k_neg, n_neg,
                                             printed):
        counts = tmp_path / "pairs.csv"
        counts.write_text("phenotype_a,phenotype_b,pos_total,neg_total,pos_count,neg_count\n"
                          f"Cough,Fever,{n_pos},{n_neg},{k_pos},{k_neg}\n")
        out = tmp_path / "out"
        assert main(["pairwise", "--from-counts", str(counts), "--out", str(out)]) == 0
        exact = fisher_log10_oracle(k_pos, n_pos - k_pos, k_neg, n_neg - k_neg)
        (row,) = read_csv(out / "pairwise.csv")[1:]
        assert row[7] == row[8] == format_p_oracle(exact) == printed  # m = 1: BH keeps p

    def test_malformed_counts_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("phenotype,pos_total,neg_total,pos_count,neg_count\nx,10,10,eleven,1\n")
        assert main(["enrich", "--from-counts", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_window_outside_day_range(self, tmp_path, capsys):
        assert main([
            "enrich", "--from-counts", WEEK, "--window=-20..-1",
            "--out", str(tmp_path / "o"),
        ]) == 2
        assert "outside day range" in capsys.readouterr().err


class TestPipelineStats:
    def test_enrich_from_raw_notes(self, corpus_dir, tmp_path):
        out = tmp_path / "enrich"
        assert main([
            "enrich",
            "--notes", str(corpus_dir / "notes.jsonl"),
            "--patients", str(corpus_dir / "patients.csv"),
            "--out", str(out),
        ]) == 0
        rows = read_csv(out / "enrichment.csv")
        assert rows[0][1] == "COVID+ count (N=60)"
        assert len(rows) == 27  # header + every lexicon group
        names = load_default_lexicon().display_names
        assert {row[0] for row in rows[1:]} == set(names.values())

    def test_enrich_from_presence_export(self, corpus_dir, tmp_path):
        curated = tmp_path / "curated"
        assert main([
            "curate",
            "--notes", str(corpus_dir / "notes.jsonl"),
            "--patients", str(corpus_dir / "patients.csv"),
            "--per-patient", "--out", str(curated),
        ]) == 0
        direct = tmp_path / "direct"
        assert main([
            "enrich",
            "--notes", str(corpus_dir / "notes.jsonl"),
            "--patients", str(corpus_dir / "patients.csv"),
            "--out", str(direct),
        ]) == 0
        via_presence = tmp_path / "via"
        assert main([
            "enrich",
            "--presence", str(curated / "presence_long.csv"),
            "--patients", str(corpus_dir / "patients.csv"),
            "--lexicon", bundled.data_path(bundled.LEXICON),
            "--out", str(via_presence),
        ]) == 0
        assert filecmp.cmp(direct / "enrichment.csv",
                           via_presence / "enrichment.csv", shallow=False)

    def test_empty_presence_export_gives_zero_count_table(self, corpus_dir, tmp_path):
        empty = tmp_path / "presence_long.csv"
        empty.write_text("group_id,relative_day,cohort,patient_id\n")
        out = tmp_path / "out"
        assert main([
            "enrich", "--presence", str(empty),
            "--patients", str(corpus_dir / "patients.csv"),
            "--out", str(out),
        ]) == 0
        rows = read_csv(out / "enrichment.csv")
        assert len(rows) == 27  # header + every group of the bundled lexicon
        assert all(row[1:3] == ["0", "0"] for row in rows[1:])

    @pytest.mark.parametrize("command", sorted(TABLE_FILES))
    def test_notes_and_presence_export_give_identical_tables(
            self, corpus_dir, curated_dir, tmp_path, command):
        direct, via = tmp_path / "direct", tmp_path / "via"
        assert main([command, *corpus_args(corpus_dir), "--out", str(direct)]) == 0
        assert main([command, *presence_args(corpus_dir, curated_dir), "--out", str(via)]) == 0
        name = TABLE_FILES[command]
        assert filecmp.cmp(direct / name, via / name, shallow=False)

    @pytest.mark.parametrize("command", sorted(TABLE_FILES))
    def test_duplicate_roster_rows_give_identical_tables(self, corpus_dir, duplicate_roster,
                                                         tmp_path, command):
        patients = ["--patients", str(duplicate_roster / "patients.csv")]
        direct, via = tmp_path / "direct", tmp_path / "via"
        assert main([command, "--notes", str(corpus_dir / "notes.jsonl"), *patients,
                     "--out", str(direct)]) == 0
        assert main([command, "--presence", str(duplicate_roster / "presence_long.csv"),
                     *patients, "--out", str(via)]) == 0
        name = TABLE_FILES[command]
        assert filecmp.cmp(direct / name, via / name, shallow=False)

    def test_duplicate_roster_rows_keep_the_earliest_date(self, corpus_dir, duplicate_roster,
                                                          curated_dir):
        with open(duplicate_roster / "patients.csv", encoding="utf-8") as handle:
            records = load_patients_oracle(handle).values()
        n_pos = sum(record.pcr_result == "positive" for record in records)
        assert n_pos > 60  # same-date conflicts and earlier rows moved patients to the arm
        export = read_csv(duplicate_roster / "presence_long.csv")
        assert sum(row[2] == "positive" for row in export) > 0
        assert export != read_csv(curated_dir / "presence_long.csv")

    def test_presence_export_with_unknown_group_exit_code(self, corpus_dir, tmp_path, capsys):
        patient = read_csv(corpus_dir / "patients.csv")[1][0]
        export = tmp_path / "presence_long.csv"
        export.write_text("group_id,relative_day,cohort,patient_id\n"
                          f"cough,-3,positive,{patient}\nhiccups,-2,positive,{patient}\n")
        assert main([
            "enrich", "--presence", str(export),
            "--patients", str(corpus_dir / "patients.csv"),
            "--out", str(tmp_path / "out"),
        ]) == 2
        assert "presence line 3: unknown group 'hiccups'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cohort", ["negative", "banana", ""])
    def test_presence_export_with_wrong_cohort_exit_code(self, corpus_dir, tmp_path, capsys,
                                                         cohort):
        patient = next(row[0] for row in read_csv(corpus_dir / "patients.csv")[1:]
                       if row[2] == "pos")
        export = tmp_path / "presence_long.csv"
        export.write_text("group_id,relative_day,cohort,patient_id\n"
                          f"cough,-3,positive,{patient}\ncough,-2,{cohort},{patient}\n")
        assert main([
            "enrich", "--presence", str(export),
            "--patients", str(corpus_dir / "patients.csv"),
            "--out", str(tmp_path / "out"),
        ]) == 2
        assert (f"presence line 3: cohort {cohort!r} does not match patient {patient!r} "
                "(positive)") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["notes", "presence", "from_counts"])
    @pytest.mark.parametrize("command", sorted(TABLE_FILES))
    def test_window_outside_day_range_exit_code(
            self, corpus_dir, curated_dir, tmp_path, capsys, command, source):
        inputs = {
            "notes": corpus_args(corpus_dir),
            "presence": presence_args(corpus_dir, curated_dir),
            "from_counts": ["--from-counts", REFERENCES[command]],
        }[source]
        assert main([command, *inputs, "--window=-7..3", "--day-range=-14..2",
                     "--out", str(tmp_path / "out")]) == 2
        assert "outside day range" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sources", [("notes", "presence"), ("notes", "from_counts"),
                                         ("presence", "from_counts")], ids="+".join)
    @pytest.mark.parametrize("command", sorted(TABLE_FILES))
    def test_two_inputs_exit_code(self, corpus_dir, curated_dir, tmp_path, capsys, command,
                                  sources):
        inputs = {
            "notes": ["--notes", str(corpus_dir / "notes.jsonl")],
            "presence": ["--presence", str(curated_dir / "presence_long.csv")],
            "from_counts": ["--from-counts", REFERENCES[command]],
        }
        argv = [command, *inputs[sources[0]], *inputs[sources[1]],
                "--patients", str(corpus_dir / "patients.csv"), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", [["--include-maybe"], ["--no-template-filter"],
                                        ["--workers", "1"], ["--template-threshold", "5"]],
                             ids=lambda option: option[0])
    @pytest.mark.parametrize("source", ["presence", "from_counts"])
    def test_curation_option_without_notes_exit_code(
            self, corpus_dir, curated_dir, tmp_path, capsys, source, option):
        inputs = {
            "presence": presence_args(corpus_dir, curated_dir),
            "from_counts": ["--from-counts", WEEK],
        }[source]
        assert main(["enrich", *inputs, *option, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            f"error: {option[0]} applies only when curating --notes, not with {inputs[0]}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", [["--patients", "/nonexistent.csv"],
                                        ["--lexicon", "/nonexistent.csv"],
                                        ["--window=-5..-2"], ["--day-range=-10..10"]],
                             ids=lambda option: option[0].split("=")[0])
    def test_roster_or_lexicon_with_counts_exit_code(self, tmp_path, capsys, option):
        # A counts table is read without a roster or a lexicon, and its
        # counts are already tabulated by day: even a missing file is an
        # error, since it would be ignored.
        assert main(["enrich", "--from-counts", WEEK, *option,
                     "--out", str(tmp_path / "out")]) == 2
        name = option[0].split("=")[0]
        assert capsys.readouterr().err == (f"error: {name} applies only with --notes or "
                                           "--presence, not with --from-counts\n")
        assert not (tmp_path / "out").exists()

    def test_degenerate_template_threshold_rejected(self, corpus_dir, tmp_path, capsys):
        assert main(["enrich", *corpus_args(corpus_dir), "--template-threshold", "1",
                     "--out", str(tmp_path / "out")]) == 2
        assert "template threshold must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_timeline_and_pairwise_raw(self, corpus_dir, tmp_path):
        for cmd in ("timeline", "pairwise"):
            out = tmp_path / cmd
            assert main([
                cmd,
                "--notes", str(corpus_dir / "notes.jsonl"),
                "--patients", str(corpus_dir / "patients.csv"),
                "--out", str(out),
            ]) == 0
            assert (out / f"{cmd}.csv").exists()


class TestEvalCommand:
    def test_identical_files_accuracy_one(self, corpus_dir, tmp_path):
        out = tmp_path / "metrics"
        gold = str(corpus_dir / "gold_labels.csv")
        assert main(["eval", "--gold", gold, "--pred", gold, "--out", str(out)]) == 0
        rows = dict(read_csv(out / "metrics.csv")[1:])
        assert rows["accuracy"] == "1.000000"
        assert rows["fpr"] == "0.000000"

    def test_key_mismatch_rejected(self, corpus_dir, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text("sentence_id,mention_index,label\nzzz:0,0,YES\n")
        assert main([
            "eval", "--gold", str(corpus_dir / "gold_labels.csv"),
            "--pred", str(pred), "--out", str(tmp_path / "o"),
        ]) == 2

    def test_errors_name_the_predictions_file(self, corpus_dir, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("sentence_id,mention_index,label\nn1:0,first,YES\n")
        assert main([
            "eval", "--gold", str(corpus_dir / "gold_labels.csv"),
            "--pred", str(pred), "--out", str(tmp_path / "o"),
        ]) == 2
        assert "error: pred line 2: mention_index must be an integer" in capsys.readouterr().err

    GOLD = "sentence_id,mention_index,label\ns1,0,YES\ns1,1,NO\ns2,0,MAYBE\n"

    @pytest.mark.parametrize("pred, message", [
        ("s2,0,YES\ns1,0,NO\ns2,0,NO\ns1,1,NO\n", "pred line 4: duplicate key ('s2', 0)"),
        ("s1,0,YES\nzz,0,NO\ns1,1,NO\nzz,0,NO\n", "pred line 5: duplicate key ('zz', 0)"),
        ("s1,0,YES\nzz,0,NO\ns1,1,SURE\n",
         "pred line 4: label must be one of ['YES', 'NO', 'MAYBE', 'OTHER']"),
        ("s1,0,YES\nzz,0,NO\nzz,1,NO\nzz,2,NO\n", "gold/pred key mismatch: 2 missing, 3 extra"),
        ("s1,1,NO\n", "gold/pred key mismatch: 2 missing, 0 extra"),
        ("s2,0,NO\ns1,1,YES\ns1,0,NO\ns3,0,NO\n", "gold/pred key mismatch: 0 missing, 1 extra"),
    ])
    def test_pred_errors_keep_their_message(self, tmp_path, capsys, pred, message):
        """The pred file is read as a stream against gold: a row error wins
        over the key mismatch, which is reported once the stream ends."""
        gold_path, pred_path = tmp_path / "gold.csv", tmp_path / "pred.csv"
        gold_path.write_text(self.GOLD)
        pred_path.write_text("sentence_id,mention_index,label\n" + pred)
        assert main(["eval", "--gold", str(gold_path), "--pred", str(pred_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_peak_memory_is_one_label_map(self, tmp_path):
        """eval keeps gold's map and a label pair per pred row; maps of
        both files, or sets and sorted lists of their keys, would take
        twice the gold map or more."""
        from phenotrail import assertion

        labels = ["YES", "NO", "MAYBE", "OTHER"]
        rows = [(f"{k:08x}-8f1c-4a2e:{k % 7}", k % 3) for k in range(20_000)]
        gold, pred = tmp_path / "gold.csv", tmp_path / "pred.csv"
        for path, shift in ((gold, 0), (pred, 1)):
            path.write_text("sentence_id,mention_index,label\n" + "".join(
                f"{sid},{index},{labels[(k * shift + k // 5) % 4]}\n"
                for k, (sid, index) in enumerate(rows)))
        peaks = []
        for call in (lambda: assertion.load_gold_labels(str(gold)),
                     lambda: run(["eval", "--gold", str(gold), "--pred", str(pred),
                                  "--out", str(tmp_path / "o")])):
            call()  # warm: imports and first-use caches are not the pass
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert int(read_csv(tmp_path / "o" / "metrics.csv")[1][1]) == len(rows)
        assert peaks[1] < 1.4 * peaks[0]


class TestCoexprCommand:
    def test_toy_fixture(self, tmp_path):
        matrix = tmp_path / "matrix.txt"
        matrix.write_text(
            "4 3 10\n"
            "0 0 3\n0 1 2\n0 2 5\n"
            "1 0 1\n1 2 9\n"
            "2 1 4\n2 2 1\n"
            "3 0 2\n3 1 1\n3 2 2\n"
        )
        cells = tmp_path / "cells.csv"
        cells.write_text(
            "cell_id,tissue,cell_type\nc0,lung,t2\nc1,lung,t2\nc2,lung,t2\nc3,lung,t2\n"
        )
        genes = tmp_path / "genes.txt"
        genes.write_text("ACE2\nTMPRSS2\nOTHER\n")
        out = tmp_path / "out"
        assert main([
            "coexpr", "--matrix", str(matrix), "--cells", str(cells),
            "--genes", str(genes), "--gene-a", "ACE2", "--gene-b", "TMPRSS2",
            "--min-cells", "1", "--min-frac", "0.0", "--out", str(out),
        ]) == 0
        rows = read_csv(out / "coexpr.csv")
        assert rows[1][0] == "lung"
        assert float(rows[1][5]) == 0.5

    def test_unknown_gene_exit_code(self, tmp_path):
        matrix = tmp_path / "m.txt"
        matrix.write_text("1 1 1\n0 0 1\n")
        cells = tmp_path / "c.csv"
        cells.write_text("cell_id,tissue,cell_type\nc0,lung,t2\n")
        genes = tmp_path / "g.txt"
        genes.write_text("ACE2\n")
        assert main([
            "coexpr", "--matrix", str(matrix), "--cells", str(cells),
            "--genes", str(genes), "--gene-a", "ACE2", "--gene-b", "TMPRSS2",
            "--out", str(tmp_path / "o"),
        ]) == 2


    @pytest.mark.parametrize("text, message", [
        ("3 2 2\n\n\n0 0 x\n", "matrix line 4: fields must be integers"),
        ("3 2 2\n\n0 0 1\n\n\n0 0 x\n", "matrix line 6: fields must be integers"),
        ("\n3 2 2\n0 0 1\n\n0 1\n", "matrix line 5: expected 3 fields"),
    ])
    def test_malformed_line_reported_by_physical_number(self, tmp_path, capsys,
                                                        text, message):
        matrix = tmp_path / "m.txt"
        matrix.write_text(text)
        cells = tmp_path / "c.csv"
        cells.write_text("cell_id,tissue,cell_type\nc0,lung,t2\nc1,lung,t2\nc2,gut,e\n")
        genes = tmp_path / "g.txt"
        genes.write_text("ACE2\nTMPRSS2\n")
        assert main([
            "coexpr", "--matrix", str(matrix), "--cells", str(cells),
            "--genes", str(genes), "--gene-a", "ACE2", "--gene-b", "TMPRSS2",
            "--out", str(tmp_path / "o"),
        ]) == 2
        assert f"error: {message}\n" == capsys.readouterr().err


@pytest.fixture(scope="module")
def fuzz_roster(tmp_path_factory):
    directory = tmp_path_factory.mktemp("presence_fuzz")
    (directory / "patients.csv").write_text(
        "patient_id,pcr_date,pcr_result\nP1,2020-04-01,pos\nP2,2020-04-02,neg\n"
        "P3,2020-04-03,neg\n")
    return directory


PRESENCE_FIELDS = {
    "group_id": ["cough", "fever_chills", "hiccups", "", " cough"],
    "relative_day": ["-3", "0", "14", "-200", "x", "1.5", "", "+2", "\u0663"],
    "cohort": ["positive", "negative", "banana", ""],
    "patient_id": ["P1", "P2", "P3", "P9", ""],
}


class TestPresenceFuzz:
    """Malformed per-patient exports through ``cli.main`` exit 0 or 2, never 1."""

    @given(st.lists(st.one_of(
        *[st.tuples(*(st.sampled_from(values) for values in PRESENCE_FIELDS.values()))
          .map(",".join)] * 4,
        st.lists(st.sampled_from(["cough", "-3", "P1", '"', "a,b"]), max_size=6).map(",".join),
        st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=15),
    ), max_size=5), st.sampled_from(["group_id,relative_day,cohort,patient_id"] * 4
                                    + ["group_id", ""]))
    @settings(max_examples=150)
    def test_presence_long_csv(self, fuzz_roster, rows, header):
        export = fuzz_roster / "presence_long.csv"
        export.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        assert main([
            "enrich", "--presence", str(export),
            "--patients", str(fuzz_roster / "patients.csv"),
            "--out", str(fuzz_roster / "out"),
        ]) in (0, 2)

    # Raw bytes: quotes, CR, NBSP, NUL and bytes that are not UTF-8.
    @given(st.lists(st.one_of(
        st.tuples(*(st.sampled_from(values) for values in PRESENCE_FIELDS.values()))
        .map(",".join).map(str.encode),
        st.lists(st.sampled_from([b"cough", b"-3", b"positive", b"P1", b",", b'"', b"\r",
                                  b"\xc2\xa0", b"\xa0", b"\xff", b"\xe2\x82", b"\x00", b" "]),
                 max_size=9).map(b"".join),
    ), max_size=6), st.sampled_from([b"\n", b"\r\n", b"\r"]))
    @settings(max_examples=150, deadline=None)
    def test_presence_long_csv_bytes(self, fuzz_roster, rows, newline):
        export = fuzz_roster / "presence_bytes.csv"
        export.write_bytes(newline.join([b"group_id,relative_day,cohort,patient_id", *rows])
                           + newline)
        assert main([
            "enrich", "--presence", str(export),
            "--patients", str(fuzz_roster / "patients.csv"),
            "--out", str(fuzz_roster / "out"),
        ]) in (0, 2)


NOTE_VALUES = {
    "patient_id": ["P9", "", 7, None, "\ud800"],
    "note_id": ["\ud800", "", 3.5, ["n1"], "n0"],
    "date": ["2020-02-30", "04/01/2020", "", 20200401, "1900-01-01", "2020-04-01T00:00"],
    "text": ["", "no fever\n\nwheezing", False, "\ud800 fever", "Fever.\u2028Cough."],
}


@st.composite
def note_lines(draw, index):
    """A valid note, possibly with some fields replaced or dropped, or a line
    that is not a note object."""
    kind = draw(st.sampled_from(["note"] * 6 + ["json", "text", "blank"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "  ", "\t"]))
    if kind == "text":
        return draw(st.text(max_size=20)).replace("\n", " ").replace("\r", " ")
    if kind == "json":
        return json.dumps(draw(st.one_of(
            st.none(), st.integers(), st.lists(st.integers(), max_size=2), st.text(max_size=5))))
    note = {"patient_id": draw(st.sampled_from(["P1", "P2", "P3", "P9"])), "note_id": f"n{index}",
            "date": draw(st.sampled_from(["2020-03-30", "2020-04-02", "2020-04-05"])),
            "text": draw(st.sampled_from(["Fever and cough.", "Denies fever. Cough",
                                          "Possible diarrhea."]))}
    for key in draw(st.lists(st.sampled_from(list(NOTE_VALUES)), max_size=2, unique=True)):
        if draw(st.booleans()):
            note[key] = draw(st.sampled_from(NOTE_VALUES[key]))
        else:
            del note[key]
    return json.dumps(note, ensure_ascii=draw(st.booleans()))


class TestNotesFuzz:
    """Malformed JSON-lines corpora through ``cli.main`` exit 0 or 2, never 1."""

    @given(st.data(), st.sampled_from(["curate", "pairwise"]))
    @settings(max_examples=200, deadline=None)
    def test_notes_jsonl(self, fuzz_roster, data, command):
        lines = [data.draw(note_lines(i)) for i in range(data.draw(st.integers(0, 5)))]
        notes = fuzz_roster / "notes.jsonl"
        # A lone surrogate written unescaped makes the file invalid UTF-8.
        notes.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogatepass")
        assert main([
            command, "--notes", str(notes), "--patients", str(fuzz_roster / "patients.csv"),
            "--out", str(fuzz_roster / "out"),
        ]) in (0, 2)


class TestCountsFuzz:
    """Malformed ``--from-counts`` tables through ``cli.main`` exit 0 or 2, never 1."""

    VALID = {  # column -> valid values
        "phenotype": ["Cough", "Fever", "a,b"], "phenotype_a": ["Cough", "Fever"],
        "phenotype_b": ["Fever", "Rash"], "day": ["-1", "0", "3"],
        "pos_total": ["635"], "neg_total": ["29859"],
        "pos_count": ["0", "3", "635"], "neg_count": ["0", "17", "29859"],
        "pos_pct": ["0", "2.5", "100"], "neg_pct": ["0", "0.1", "100"],
    }
    BAD = ["-1", "2.5", "nan", "inf", "-inf", "1e400", "1e300", "", " ", "x", " 4",
           "99999999999999999999", "1" + "0" * 400, "636", "29860", '"', "0"]
    COLUMNS = {
        "enrich": ["phenotype", "pos_total", "neg_total", "pos_count", "neg_count"],
        "timeline": ["phenotype", "day", "pos_total", "neg_total", "pos_pct", "neg_pct",
                     "pos_count", "neg_count"],
        "pairwise": ["phenotype_a", "phenotype_b", "pos_total", "neg_total", "pos_count",
                     "neg_count"],
    }

    @given(st.sampled_from(sorted(COLUMNS)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_counts_csv(self, fuzz_roster, command, data):
        columns = list(self.COLUMNS[command])
        if command == "timeline" and data.draw(st.booleans()):
            columns = columns[:-2]  # counts derived from the percentages
        if data.draw(st.booleans()):  # a missing or extra column
            columns = data.draw(st.permutations(columns + ["note"]))[1:]
        rows = []
        for _ in range(data.draw(st.integers(0, 4))):
            row = [data.draw(st.sampled_from(self.VALID.get(c, ["x"]))) for c in columns]
            for _ in range(data.draw(st.integers(0, 2))):
                row[data.draw(st.integers(0, len(row) - 1))] = data.draw(
                    st.sampled_from(self.BAD))
            if data.draw(st.integers(0, 4)) == 0:  # too few or too many fields
                row = row[:-1] if data.draw(st.booleans()) else row + ["5"]
            rows.append(row)
        counts = fuzz_roster / "counts.csv"
        with open(counts, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows([columns, *rows])
        assert main([command, "--from-counts", str(counts),
                     "--out", str(fuzz_roster / "out")]) in (0, 2)


class TestMalformedInputExits2:
    """Inputs that once exited 1; the fuzz tests above reach them only by chance."""

    BIG = "1" + "0" * 400

    @pytest.mark.parametrize("command, text, message", [
        ("enrich", "phenotype,pos_total,neg_total,pos_count,neg_count\nCough,10,20,1,2,5\n",
         "line 2: expected 5 fields"),
        ("enrich", "phenotype,pos_total,neg_total,pos_count,neg_count\n,,,,,5\nCough,10,20,1\n",
         "line 2: expected 5 fields"),
        ("enrich", "phenotype,pos_total,neg_total,pos_count,neg_count\n,,,,\n", "no count rows"),
        ("timeline", "phenotype,day,pos_total,neg_total,pos_pct,neg_pct\nCough,1,10,20,nan,2\n",
         "bad number in column 'pos_pct': 'nan'"),
        ("timeline", f"phenotype,day,pos_total,neg_total,pos_pct,neg_pct\nCough,1,{BIG},20,1,2\n",
         "counts line 2: 1.0% of 1" + "0" * 400 + " is not a count"),
        ("timeline", "phenotype,day,pos_total,neg_total\nCough,1,10,20\n",
         "bad number in column 'pos_pct': None"),
        ("pairwise", "phenotype_a,phenotype_b,pos_total,neg_total,pos_count,neg_count\n"
                     f"A,B,{BIG},20,1,2\n", "exceeds 10000000"),
        ("pairwise", "phenotype_a,phenotype_b,pos_total,neg_total,pos_count,neg_count\n"
                     "A,B,0,20,0,2\n", "cohort sizes must be positive"),
    ])
    def test_counts(self, fuzz_roster, capsys, command, text, message):
        counts = fuzz_roster / "counts_case.csv"
        counts.write_text(text)
        assert main([command, "--from-counts", str(counts),
                     "--out", str(fuzz_roster / "out")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, message", [
        ("enrich", "phenotype,pos_total,neg_total,pos_count,neg_count\n"
                   "Cough,10,20,1,2\n\nFever,10,20,x,2\n",
         "counts line 4: bad integer in column 'pos_count': 'x'"),
        ("enrich", "phenotype,pos_total,neg_total,pos_count,neg_count\n"
                   "Cough,10,20,1,2\nFever,10,21,1,2\n",
         "counts line 3: pos_total/neg_total must be uniform"),
        ("timeline", "phenotype,day,pos_total,neg_total,pos_pct,neg_pct\n"
                     "Cough,1,10,20,1,2\nCough,x,10,20,1,2\n",
         "counts line 3: bad integer in column 'day': 'x'"),
        # The quoted line break puts the last row on line 5.
        ("pairwise", "phenotype_a,phenotype_b,pos_total,neg_total,pos_count,neg_count\n"
                     "A,B,10,20,1,2\n\"A\nB\",C,10,20,1,2\nA,C,10,20,1,-\n",
         "counts line 5: bad integer in column 'neg_count': '-'"),
        # Counts outside [0, total], percentages outside [0, 100] and cohort
        # sizes below 1 are refused as the row is read.
        ("enrich", "phenotype,pos_total,neg_total,pos_count,neg_count\n"
                   "Cough,10,20,1,2\nFever,10,20,-1,4\n",
         "counts line 3: pos_count -1 outside [0, 10]"),
        ("timeline", "phenotype,day,pos_total,neg_total,pos_pct,neg_pct\n"
                     "Cough,-7,10,20,10,5\nCough,-6,10,20,130,5\n",
         "counts line 3: pos_pct 130.0 outside [0, 100]"),
        ("pairwise", "phenotype_a,phenotype_b,pos_total,neg_total,pos_count,neg_count\n"
                     "A,B,10,20,1,2\nA,C,10,20,11,1\n",
         "counts line 3: pos_count 11 outside [0, 10]"),
        ("timeline", "phenotype,day,pos_total,neg_total,pos_count,neg_count\n"
                     "\nCough,-7,0,20,0,5\n",
         "counts line 3: cohort sizes must be positive, got pos_total 0"),
    ])
    def test_counts_value_errors_name_their_line(self, fuzz_roster, capsys, command, text,
                                                 message):
        counts = fuzz_roster / "counts_line.csv"
        counts.write_text(text)
        assert main([command, "--from-counts", str(counts),
                     "--out", str(fuzz_roster / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("row, message", [
        ("Nonsense,1,2.0,1.0", "counts line 3: unknown phenotype 'Nonsense'"),
        ("Cough,1,abc,1.0", "counts line 3: bad number in column 'pos_pct': 'abc'"),
        ("Cough,1,130,1.0", "counts line 3: pos_pct 130.0 outside [0, 100]"),
    ])
    def test_calibration_value_errors_name_their_line(self, tmp_path, capsys, row, message):
        table = tmp_path / "daily.csv"
        table.write_text(f"phenotype,day,pos_pct,neg_pct\nCough,0,5.0,2.0\n{row}\n")
        assert main(["synth", "--calibrate-daily", str(table), "--n-pos", "5", "--n-neg", "5",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("rows", ["", "P1,2020-04-01,pos\n"], ids=["no_arm", "positive_only"])
    def test_pairwise_from_notes_with_an_empty_arm(self, fuzz_roster, capsys, rows):
        patients = fuzz_roster / "one_arm.csv"
        patients.write_text("patient_id,pcr_date,pcr_result\n" + rows)
        notes = fuzz_roster / "one_arm.jsonl"
        notes.write_text('{"patient_id": "P1", "note_id": "n1", "date": "2020-03-29", '
                         '"text": "Fever and cough."}\n')
        assert main(["pairwise", "--notes", str(notes), "--patients", str(patients),
                     "--out", str(fuzz_roster / "out")]) == 2
        assert "cohort sizes must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["20200401", "2020-W14-3", "2020-092"],
                             ids=["compact", "week", "ordinal"])
    @pytest.mark.parametrize("field", ["date", "pcr_date"])
    def test_dates_other_than_yyyy_mm_dd(self, fuzz_roster, capsys, field, value):
        note_date, pcr_date = (value, "2020-04-01") if field == "date" else ("2020-03-30", value)
        notes = fuzz_roster / "dated.jsonl"
        notes.write_text(json.dumps({"patient_id": "P1", "note_id": "n1", "date": note_date,
                                     "text": "Fever."}) + "\n")
        patients = fuzz_roster / "dated.csv"
        patients.write_text(f"patient_id,pcr_date,pcr_result\nP1,{pcr_date},pos\n")
        assert main(["curate", "--notes", str(notes), "--patients", str(patients),
                     "--out", str(fuzz_roster / "out")]) == 2
        assert f"{field} {value!r} is not YYYY-MM-DD" in capsys.readouterr().err

    def test_lone_surrogate_in_notes(self, fuzz_roster, capsys):
        notes = fuzz_roster / "surrogate.jsonl"
        notes.write_text('{"patient_id": "P9", "note_id": "\\ud800", "date": "2020-03-30", '
                         '"text": "Fever."}\n')
        assert main(["curate", "--notes", str(notes),
                     "--patients", str(fuzz_roster / "patients.csv"),
                     "--out", str(fuzz_roster / "out")]) == 2
        assert ("notes line 1: note_id holds a lone surrogate escape"
                in capsys.readouterr().err)

    # Text that json.loads refuses with a ValueError or a RecursionError,
    # not a JSONDecodeError: an int past the conversion limit, deep nesting.
    JSON_BEYOND_LIMITS = {
        "long_int": '{"x": ' + "1" * 5000 + "}",
        "deep": '{"x": ' + "[" * 100_000 + "]" * 100_000 + "}",
    }
    needs_int_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                         reason="no int conversion limit")

    @pytest.mark.parametrize("case", [pytest.param("long_int", marks=needs_int_limit), "deep"])
    @pytest.mark.parametrize("lineno", [1, 2101])  # in the first 2,000-line chunk, past it
    def test_notes_json_beyond_the_decoder_limits(self, fuzz_roster, capsys, case, lineno):
        lines = [json.dumps({"patient_id": "P1", "note_id": f"n{k}", "date": "2020-03-29",
                             "text": "Fever."}) + "\n" for k in range(2200)]
        lines[lineno - 1] = self.JSON_BEYOND_LIMITS[case] + "\n"
        notes = fuzz_roster / "limits.jsonl"
        notes.write_text("".join(lines))
        errors = []
        for workers in ("1", "2"):
            assert main(["curate", "--notes", str(notes),
                         "--patients", str(fuzz_roster / "patients.csv"),
                         "--workers", workers, "--out", str(fuzz_roster / "out")]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith(f"error: notes line {lineno}: invalid JSON (")
        assert errors[1] == errors[0]

    @pytest.mark.parametrize("case", [pytest.param("long_int", marks=needs_int_limit), "deep"])
    def test_responses_json_beyond_the_decoder_limits(self, fuzz_roster, capsys, case):
        notes = fuzz_roster / "one_note.jsonl"
        notes.write_text('{"patient_id": "P1", "note_id": "n1", "date": "2020-03-29", '
                         '"text": "Fever."}\n')
        responses = fuzz_roster / "responses.jsonl"
        responses.write_text('{"label": "NO", "confidence": 1.0}\n'
                             + self.JSON_BEYOND_LIMITS[case] + "\n")
        assert main(["curate", "--notes", str(notes),
                     "--patients", str(fuzz_roster / "patients.csv"),
                     "--classification-responses", str(responses),
                     "--out", str(fuzz_roster / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: responses line 2: invalid JSON (")

    @pytest.mark.parametrize("case", [pytest.param("long_int", marks=needs_int_limit), "deep"])
    def test_synth_config_json_beyond_the_decoder_limits(self, fuzz_roster, capsys, case):
        config = fuzz_roster / "config.json"
        config.write_text(self.JSON_BEYOND_LIMITS[case])
        assert main(["synth", "--config", str(config), "--out", str(fuzz_roster / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: bad synth config: invalid JSON (")

    def test_presence_field_over_the_csv_limit(self, fuzz_roster, capsys):
        export = fuzz_roster / "long_field.csv"
        export.write_text("group_id,relative_day,cohort,patient_id\n"
                          f"cough,-3,positive,{'P' * 200_000}\n")
        assert main(["enrich", "--presence", str(export),
                     "--patients", str(fuzz_roster / "patients.csv"),
                     "--out", str(fuzz_roster / "out")]) == 2
        assert "presence line 2: field larger than field limit" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["lexicon", "gold", "pred", "cells", "counts", "daily"])
    def test_csv_field_over_the_csv_limit(self, fuzz_roster, capsys, kind):
        files = {  # kind -> header, a valid row
            "lexicon": ("group_id,term", "cough,cough"),
            "gold": ("sentence_id,mention_index,label", "s,0,YES"),
            "pred": ("sentence_id,mention_index,label", "s,0,YES"),
            "cells": ("cell_id,tissue,cell_type", "c0,lung,t2"),
            "counts": ("phenotype,pos_total,neg_total,pos_count,neg_count", "Cough,10,20,1,2"),
            "daily": ("phenotype,day,pos_pct,neg_pct", "Cough,0,10,5"),
        }
        paths = {}
        for name, (header, row) in files.items():
            if name == kind:  # the first field made too long for the csv module
                row = f'"{"x" * 200_000}"' + row[row.index(","):]
            paths[name] = fuzz_roster / f"long_{name}.csv"
            paths[name].write_text(f"{header}\n{row}\n")
        matrix, genes = fuzz_roster / "long.mtx", fuzz_roster / "long_genes.txt"
        matrix.write_text("1 2 0\n")
        genes.write_text("ACE2\nTMPRSS2\n")
        argv = {
            "lexicon": ["synth", "--lexicon", paths["lexicon"], "--calibrate-daily", DAILY,
                        "--n-pos", "5", "--n-neg", "5"],
            "gold": ["eval", "--gold", paths["gold"], "--pred", paths["pred"]],
            "pred": ["eval", "--gold", paths["gold"], "--pred", paths["pred"]],
            "cells": ["coexpr", "--matrix", matrix, "--cells", paths["cells"], "--genes", genes,
                      "--gene-a", "ACE2", "--gene-b", "TMPRSS2"],
            "counts": ["enrich", "--from-counts", paths["counts"]],
            "daily": ["synth", "--calibrate-daily", paths["daily"], "--n-pos", "5",
                      "--n-neg", "5"],
        }[kind]
        assert main([*map(str, argv), "--out", str(fuzz_roster / "out")]) == 2
        assert "line 2: field larger than field limit" in capsys.readouterr().err


class TestNonUtf8Input:
    """A text input that is not UTF-8 exits 2 naming its kind, line and path."""

    def _run(self, tmp_path, corpus_dir, kind):
        patients = corpus_dir / "patients.csv"
        bad = tmp_path / "bad.txt"
        if kind == "presence":
            bad.write_bytes(b"group_id,relative_day,cohort,patient_id\n"
                            b"cough,-3,positive,P1\ncough,-2,negative,P\xff2\n")
            argv = ["enrich", "--presence", str(bad), "--patients", str(patients)]
        elif kind == "patients":
            bad.write_bytes(b"patient_id,pcr_date,pcr_result\nP1,2020-04-01,pos\n"
                            b"P\xff,2020-04-01,neg\n")
            argv = ["timeline", "--notes", str(corpus_dir / "notes.jsonl"),
                    "--patients", str(bad)]
        elif kind == "notes":
            bad.write_bytes(b'{"patient_id": "P1", "note_id": "a", "date": "2020-04-01", '
                            b'"text": "fever"}\n\n{"text": "\xe2\x82"}\n')
            argv = ["curate", "--notes", str(bad), "--patients", str(patients)]
        elif kind == "counts":
            bad.write_bytes(b"phenotype,pos_total,neg_total,pos_count,neg_count\n"
                            b"Cough,10,20,1,2\nFever,10,20,1,\xff\n")
            argv = ["enrich", "--from-counts", str(bad)]
        else:
            cells = tmp_path / "cells.csv"
            cells.write_text("cell_id,tissue,cell_type\nc0,lung,t2\n")
            matrix, genes = tmp_path / "matrix.txt", tmp_path / "genes.txt"
            matrix.write_text("1 2 1\n0 0 1\n")
            genes.write_text("ACE2\nTMPRSS2\n")
            if kind == "matrix":
                matrix = bad
                matrix.write_bytes(b"1 2 1\n\n0 0 \xff\n")
            else:  # a sequence cut off by the end of the file
                genes = bad
                genes.write_bytes(b"ACE2\nTMPRSS2\xc3")
            argv = ["coexpr", "--matrix", str(matrix), "--cells", str(cells),
                    "--genes", str(genes), "--gene-a", "ACE2", "--gene-b", "TMPRSS2"]
        return main([*argv, "--out", str(tmp_path / "out")]), bad

    @pytest.mark.parametrize("kind, line", [
        ("presence", 3), ("patients", 3), ("notes", 3), ("counts", 3), ("matrix", 3),
        ("genes", 2),
    ])
    def test_exit_2_with_line_and_path(self, tmp_path, corpus_dir, capsys, kind, line):
        code, bad = self._run(tmp_path, corpus_dir, kind)
        assert code == 2
        err = capsys.readouterr().err
        assert err.endswith(f" line {line}: not valid UTF-8 in {str(bad)!r}\n"), err

    def test_line_of_a_sequence_split_across_read_blocks(self, tmp_path):
        from phenotrail.errors import InputError as Error, open_text

        path = tmp_path / "long.txt"
        # Two-byte characters straddle the 1 MiB read boundary; the bad
        # byte sits on line 4.
        path.write_bytes(b"a\n" + "\u00e9".encode() * (1 << 19) + b"\nb\nc\xff\n")
        with pytest.raises(Error, match=r"^text line 4: not valid UTF-8"):
            with open_text(str(path), "text") as handle:
                handle.read()


def test_curation_and_table_commands_never_import_numpy(corpus_dir, tmp_path):
    # numpy adds about 14 MB to a process; curating and tabulating, from
    # notes or from the presence export, must not load it.
    src = os.path.dirname(os.path.dirname(phenotrail.__file__))
    export = ["--presence", str(tmp_path / "c" / "presence_long.csv"),
              "--patients", str(corpus_dir / "patients.csv")]
    runs = [["curate", *corpus_args(corpus_dir), "--per-patient", "--out", str(tmp_path / "c")],
            ["pairwise", *corpus_args(corpus_dir), "--out", str(tmp_path / "p")],
            ["enrich", *export, "--out", str(tmp_path / "e")]]
    code = ("import sys; from phenotrail.cli import main; "
            f"print([main(argv) for argv in {runs!r}], 'numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True, timeout=300)
    assert result.stdout.strip() == "[0, 0, 0] False"


def test_curation_digests_fingerprints_without_openssl(corpus_dir):
    # The template counter keys fingerprints by CPython's own BLAKE2s:
    # hashlib would load OpenSSL (_hashlib), about 3 MB, during the pass.
    src = os.path.dirname(os.path.dirname(phenotrail.__file__))
    notes, patients = str(corpus_dir / "notes.jsonl"), str(corpus_dir / "patients.csv")
    code = ("import sys; from phenotrail import assertion, cohort, lexicon, textproc; "
            f"lines = open({notes!r}, encoding='utf-8').readlines(); "
            "matcher = lexicon.build_matcher(lexicon.load_default_lexicon()); "
            f"curation = cohort.curate_notes(lines, textproc.load_patients({patients!r}), "
            "matcher, assertion.RuleClassifier()); "
            "print(len(curation.events) > 0, '_hashlib' in sys.modules, '_blake2' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True, timeout=300)
    assert result.stdout.strip() == "True False True"


class TestManifest:
    def test_manifest_contents(self, corpus_dir):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["tool"] == "phenotrail"
        assert manifest["outputs"] == sorted(
            ["notes.jsonl", "patients.csv", "gold_labels.csv", "synth_config.json"]
        )
        assert all(len(digest) == 64 for digest in manifest["inputs"].values())

    def test_rerun_reproduces_byte_identical_outputs(self, tmp_path):
        first = tmp_path / "first"
        assert main(synth_args(first)) == 0
        replay = tmp_path / "replay"
        assert rerun_from_manifest(str(first / "manifest.json"), str(replay)) == 0
        for name in ("notes.jsonl", "patients.csv", "gold_labels.csv",
                     "synth_config.json"):
            assert filecmp.cmp(first / name, replay / name, shallow=False), name

    def test_rerun_from_counts_manifest(self, tmp_path):
        first = tmp_path / "first"
        assert main(["enrich", "--from-counts", WEEK, "--out", str(first)]) == 0
        replay = tmp_path / "replay"
        assert rerun_from_manifest(str(first / "manifest.json"), str(replay)) == 0
        assert filecmp.cmp(first / "enrichment.csv", replay / "enrichment.csv",
                           shallow=False)

    @pytest.mark.parametrize("source", ["notes", "presence"])
    def test_pairwise_manifest_records_m_and_lexicon(
            self, corpus_dir, curated_dir, tmp_path, source):
        inputs = (corpus_args(corpus_dir) if source == "notes"
                  else presence_args(corpus_dir, curated_dir))
        first = tmp_path / "first"
        assert main(["pairwise", *inputs, "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        n_pairs = len(read_csv(first / "pairwise.csv")) - 1
        assert manifest["config"]["m_tests"] == n_pairs == 26 * 25 // 2
        lexicon = bundled.data_path(bundled.LEXICON)
        assert len(manifest["inputs"][lexicon]) == 64
        replay = tmp_path / "replay"
        assert rerun_from_manifest(str(first / "manifest.json"), str(replay)) == 0
        assert filecmp.cmp(first / "pairwise.csv", replay / "pairwise.csv", shallow=False)

    def test_curate_manifest_lists_lexicon(self, curated_dir):
        manifest = json.loads((curated_dir / "manifest.json").read_text())
        assert bundled.data_path(bundled.LEXICON) in manifest["inputs"]

    @pytest.mark.parametrize("command, source", [
        ("enrich", "presence"), ("timeline", "presence"), ("pairwise", "presence"),
        ("enrich", "notes"), ("timeline", "notes"), ("pairwise", "notes"),
        ("curate", "notes"),
    ])
    def test_no_presence_table_is_alive_at_the_manifest(
            self, corpus_dir, curated_dir, tmp_path, monkeypatch, command, source):
        """Digesting the inputs loads OpenSSL for the rest of the process,
        so the table is freed before the manifest is written."""
        from phenotrail import cli
        from phenotrail.cohort import SymptomPresenceTable

        real_write_manifest, called = cli.write_manifest, []

        def write_manifest(*args, **kwargs):
            alive = [o for o in gc.get_objects() if isinstance(o, SymptomPresenceTable)]
            assert alive == []
            called.append(command)
            return real_write_manifest(*args, **kwargs)

        monkeypatch.setattr(cli, "write_manifest", write_manifest)
        inputs = (corpus_args(corpus_dir) if source == "notes"
                  else presence_args(corpus_dir, curated_dir))
        gc.collect()  # tables other tests left in cycles are not this run's
        assert main([command, *inputs, "--out", str(tmp_path / "out")]) == 0
        assert called == [command]

    @pytest.fixture
    def curated_run(self, tmp_path, corpus_dir):
        """A curate run on private copies of the corpus files."""
        for name in ("notes.jsonl", "patients.csv"):
            shutil.copy(corpus_dir / name, tmp_path / name)
        first = tmp_path / "first"
        assert main([
            "curate", "--notes", str(tmp_path / "notes.jsonl"),
            "--patients", str(tmp_path / "patients.csv"),
            "--per-patient", "--out", str(first),
        ]) == 0
        return tmp_path, first / "manifest.json"

    def test_rerun_curate_replays_byte_identically(self, curated_run):
        root, manifest = curated_run
        replay = root / "replay"
        assert rerun_from_manifest(str(manifest), str(replay)) == 0
        for name in ("presence.csv", "presence_long.csv", "rejects.csv"):
            assert filecmp.cmp(root / "first" / name, replay / name, shallow=False), name

    def test_rerun_replaces_an_out_given_with_equals(self, tmp_path, corpus_dir):
        first = tmp_path / "first"
        assert main(["curate", *corpus_args(corpus_dir), f"--out={first}"]) == 0
        manifest = tmp_path / "manifest.json"
        shutil.move(first / "manifest.json", manifest)
        shutil.rmtree(first)
        replay = tmp_path / "replay"
        assert rerun_from_manifest(str(manifest), str(replay)) == 0
        assert not first.exists()
        assert json.loads((replay / "manifest.json").read_text())["argv"][-1] == f"--out={replay}"
        assert (replay / "presence.csv").exists()

    def test_rerun_rejects_changed_input(self, curated_run):
        root, manifest = curated_run
        notes = root / "notes.jsonl"
        with open(notes, "a", encoding="utf-8") as handle:
            handle.write("\n")
        with pytest.raises(InputError, match=re.escape(repr(str(notes)))):
            rerun_from_manifest(str(manifest), str(root / "replay"))
        assert not (root / "replay").exists()

    def test_rerun_rejects_missing_input(self, curated_run):
        root, manifest = curated_run
        patients = root / "patients.csv"
        patients.unlink()
        with pytest.raises(InputError, match=re.escape(repr(str(patients)))):
            rerun_from_manifest(str(manifest), str(root / "replay"))
        assert not (root / "replay").exists()


# The submodules `phenotrail` exposes as attributes, and every name it
# exports, each from one of them.
PACKAGE_MODULES = "assertion bundled cohort coexpr errors lexicon stats synth textproc".split()
PACKAGE_NAMES = (
    "AssertionLabel EvalMetrics RuleClassifier evaluate data_path SymptomPresenceTable "
    "daily_counts pair_counts window_counts window_presence ExpressionMatrix "
    "coexpression_summary normalize_cp10k InputError Lexicon Mention PhenotypeGroup "
    "TermMatcher build_matcher load_default_lexicon load_lexicon DailyRow EnrichmentRow "
    "PairRow bh_adjust daily_rows enrichment_rows fisher_exact_two_sided pair_rows "
    "proportion_test two_tailed_log10_p SynthConfig calibrate_from_daily_table generate "
    "ClinicalNote PatientRecord Roster relative_day segment_sentences"
).split()


def test_cli_import_loads_no_pool_or_numpy():
    # Every command pays the CLI's import time; the worker pool, numpy,
    # hashlib (which loads OpenSSL, about 3 MB), traceback and the synth
    # and coexpr modules are imported only where they are used.  Importing
    # the package leaves the environment as it is, and each submodule and
    # each name it exports still resolves as an attribute of the package,
    # and through `import *` and `dir`.
    src = os.path.dirname(os.path.dirname(phenotrail.__file__))
    names = PACKAGE_MODULES + PACKAGE_NAMES
    code = ("import os, sys, phenotrail.cli; print(sorted(m for m in "
            "('hashlib', 'multiprocessing', 'numpy', 'traceback', 'phenotrail.synth', "
            "'phenotrail.coexpr') if m in sys.modules), "
            "os.environ.get('OPENBLAS_NUM_THREADS')); "
            f"print(sorted(set({names!r}) - set(dir(phenotrail)))); "
            "star = {}; exec('from phenotrail import *', star); "
            f"print(sorted(set({names!r}) - set(star))); "
            f"print(all(getattr(phenotrail, name).__name__ == 'phenotrail.' + name "
            f"for name in {PACKAGE_MODULES!r}), "
            f"all(getattr(phenotrail, name).__module__.startswith('phenotrail.') "
            f"for name in {PACKAGE_NAMES!r}))")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("OPENBLAS_NUM_THREADS", None)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout.splitlines() == ["[] None", "[]", "[]", "True True"]


def test_main_runs_openblas_on_one_thread_unless_set(monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert main(["--version"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert main(["--version"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


def test_no_src_code_calls_blas():
    """So ``main`` may keep OpenBLAS to one thread: no matrix product and
    no ``linalg`` anywhere in the package."""
    blas = {"@", "dot", "vdot", "matmul", "tensordot", "einsum", "linalg"}
    offenders = []
    for path in sorted(pathlib.Path(phenotrail.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = set()
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                names = {"@"}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {part for alias in node.names for part in alias.name.split(".")}
                names.update((getattr(node, "module", None) or "").split("."))
            offenders += [(path.name, node.lineno, name) for name in names & blas]
    assert offenders == []


class TestGoldenFile:
    # Pipeline output for a fixed 1k-patient corpus, generated once and
    # reviewed by hand; guards end-to-end determinism across changes.
    GOLDEN_SHA256 = "c0511c649f63a1e17c2ea350d41d458760b13b9abade69f73a4845a4cab25794"

    def test_curated_presence_matches_golden_digest(self, tmp_path):
        import hashlib

        corpus = tmp_path / "corpus"
        assert main([
            "synth", "--calibrate-daily", DAILY,
            "--n-pos", "100", "--n-neg", "900",
            "--negation-rate", "0.01", "--uncertainty-rate", "0.005",
            "--other-rate", "0.005", "--template-rate", "0.05",
            "--seed", "1234", "--out", str(corpus),
        ]) == 0
        curated = tmp_path / "curated"
        assert main([
            "curate", "--notes", str(corpus / "notes.jsonl"),
            "--patients", str(corpus / "patients.csv"),
            "--out", str(curated),
        ]) == 0
        digest = hashlib.sha256((curated / "presence.csv").read_bytes()).hexdigest()
        assert digest == self.GOLDEN_SHA256


class TestRunHelpers:
    def test_run_raises_for_tests(self):
        with pytest.raises(Exception):
            run(["enrich", "--from-counts", "/nonexistent.csv", "--out", "/tmp/x"])

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip()
