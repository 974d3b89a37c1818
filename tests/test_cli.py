import csv
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phenotrail
from phenotrail import bundled
from phenotrail.cli import main, rerun_from_manifest, run
from phenotrail.errors import InputError

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


def corpus_args(corpus_dir):
    return ["--notes", str(corpus_dir / "notes.jsonl"),
            "--patients", str(corpus_dir / "patients.csv")]


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
        requests = tmp_path / "requests.jsonl"
        extra = ["--dump-classification-requests", str(requests)] if dump else []
        assert main([
            "curate", *corpus_args(corpus_dir), "--window=-20..-1", *extra,
            "--out", str(tmp_path / "out"),
        ]) == 2
        assert "outside day range" in capsys.readouterr().err
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


def test_cli_import_loads_no_pool_or_numpy():
    # Every command pays the CLI's import time; the worker pool and numpy
    # are imported only where they are used.
    src = os.path.dirname(os.path.dirname(phenotrail.__file__))
    code = ("import sys, phenotrail.cli; "
            "print(sorted(m for m in ('multiprocessing', 'numpy') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


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
