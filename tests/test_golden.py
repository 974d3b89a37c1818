"""Golden SHA-256 digests of the files that the table commands, curate,
eval and coexpr write.

Each case runs one command through ``cli.run`` and hashes what it writes;
``golden.json`` holds the digests, so a change that moves any printed byte
fails here.  The table inputs are the bundled reference count files and a
seeded ``synth`` corpus, read both as notes and as its ``curate
--per-patient`` export.  ``curate`` runs on that corpus with each setting
that changes a verdict, with a roster that lacks some of its patients,
with an external classifier's requests dumped and its responses
replayed, and with that roster in a pool of two workers over chunks small
enough that the corpus spans more than two.  ``eval`` scores the corpus's
gold labels against a copy with every seventh label changed, and
``coexpr`` reads a small seeded matrix.  After an intended change to these
files, regenerate the digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import random
import sys
import tempfile
from unittest import mock

import pytest

from phenotrail import bundled, cohort
from phenotrail.cli import run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
TABLES = {"enrich": "enrichment.csv", "timeline": "timeline.csv", "pairwise": "pairwise.csv"}
COUNTS = {
    "enrich/from_counts": ["enrich", "--from-counts",
                           bundled.data_path(bundled.WEEK_REFERENCE)],
    "timeline/from_counts": ["timeline", "--from-counts",
                             bundled.data_path(bundled.DAILY_REFERENCE)],
    "pairwise/from_counts": ["pairwise", "--from-counts",
                             bundled.data_path(bundled.PAIR_REFERENCE)],
    "pairwise/from_counts_m277": ["pairwise", "--from-counts",
                                  bundled.data_path(bundled.PAIR_REFERENCE), "--m-tests", "277"],
}
SOURCES = ("notes", "presence")
CURATED = ("presence.csv", "presence_long.csv", "rejects.csv")
CURATE_SETTINGS = {
    "default": [],
    "include_maybe": ["--include-maybe"],
    "no_template_filter": ["--no-template-filter"],
    "day_range": ["--day-range=-6..6"],
}
POOL_CHUNK = 1000  # lines per pool task, so that the corpus spans six


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _table_digest(argv: list[str], out: str) -> str:
    assert run([*argv, "--out", out]) == 0
    return _digest(os.path.join(out, TABLES[argv[0]]))


def _curate_digests(name: str, argv: list[str], out: str) -> dict[str, str]:
    assert run(["curate", *argv, "--per-patient", "--out", out]) == 0
    return {f"curate/{name}/{file}": _digest(os.path.join(out, file)) for file in CURATED}


def _curate_cases(notes: list[str], work: str) -> dict[str, str]:
    """The digests of curate's files under each setting, with a roster
    that lacks some of the corpus's patients, of the dumped requests, of a
    replay of responses to them and of that roster's pass in a pool."""
    digests = {}
    for name, extra in CURATE_SETTINGS.items():
        digests.update(_curate_digests(name, [*notes, *extra], os.path.join(work, name)))
    roster = os.path.join(work, "patients.csv")  # every seventh patient left out
    with open(notes[3], encoding="utf-8") as handle:
        header, *rows = handle.read().splitlines()
    kept = [header, *(row for k, row in enumerate(rows) if k % 7)]
    with open(roster, "w", encoding="utf-8") as handle:
        handle.writelines(f"{row}\n" for row in kept)
    unknown = [*notes[:2], "--patients", roster]
    digests.update(_curate_digests("unknown_patients", unknown, os.path.join(work, "unknown")))
    requests = os.path.join(work, "requests.jsonl")
    assert run(["curate", *notes, "--dump-classification-requests", requests,
                "--out", os.path.join(work, "ignored")]) == 0
    digests["curate/requests.jsonl"] = _digest(requests)
    with open(requests, "rb") as handle:
        tasks = len(handle.read().splitlines())
    labels = ["YES", "YES", "NO", "MAYBE", "OTHER"]
    responses = os.path.join(work, "responses.jsonl")
    with open(responses, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps({"label": labels[k % 5], "confidence": 1.0}) + "\n"
                          for k in range(tasks))
    digests.update(_curate_digests(
        "replay", [*notes, "--classification-responses", responses, "--include-maybe"],
        os.path.join(work, "replay")))
    with open(notes[1], "rb") as handle:
        assert len(handle.read().splitlines()) > 2 * POOL_CHUNK
    with mock.patch.object(cohort, "_CHUNK", POOL_CHUNK):
        digests.update(_curate_digests("workers2", [*unknown, "--workers", "2"],
                                       os.path.join(work, "workers2")))
    return digests


def _eval_digest(gold: str, work: str) -> str:
    """metrics.csv of ``gold`` scored against a copy with every seventh label changed."""
    with open(gold, encoding="utf-8") as handle:
        header, *rows = handle.read().splitlines()
    labels = ["YES", "NO", "MAYBE", "OTHER"]
    pred = os.path.join(work, "pred.csv")
    with open(pred, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for k, row in enumerate(rows):
            key, _, label = row.rpartition(",")
            if k % 7 == 0:
                label = labels[(labels.index(label) + 1 + k % 3) % 4]
            handle.write(f"{key},{label}\n")
    out = os.path.join(work, "eval")
    assert run(["eval", "--gold", gold, "--pred", pred, "--out", out]) == 0
    return _digest(os.path.join(out, "metrics.csv"))


def _coexpr_digest(work: str) -> str:
    """coexpr.csv of a seeded 300-cell, 12-gene matrix in 9 populations."""
    rng = random.Random(11)
    genes = ["ACE2", "TMPRSS2", *(f"G{g}" for g in range(10))]
    cells = [(f"c{c}", rng.choice(["lung", "nose", "gut"]), rng.choice(["t1", "t2", "cil"]))
             for c in range(300)]
    entries = [(c, g, rng.randint(1, 40)) for c in range(len(cells)) for g in range(len(genes))
               if g > 1 and rng.random() < 0.5 or rng.random() < 0.2]
    paths = {name: os.path.join(work, name) for name in ("matrix.txt", "cells.csv", "genes.txt")}
    with open(paths["matrix.txt"], "w", encoding="utf-8") as handle:
        handle.write(f"{len(cells)} {len(genes)} {len(entries)}\n")
        handle.writelines(f"{c} {g} {n}\n" for c, g, n in entries)
    with open(paths["cells.csv"], "w", encoding="utf-8") as handle:
        handle.write("cell_id,tissue,cell_type\n")
        handle.writelines(",".join(cell) + "\n" for cell in cells)
    with open(paths["genes.txt"], "w", encoding="utf-8") as handle:
        handle.writelines(gene + "\n" for gene in genes)
    out = os.path.join(work, "coexpr")
    assert run(["coexpr", "--matrix", paths["matrix.txt"], "--cells", paths["cells.csv"],
                "--genes", paths["genes.txt"], "--gene-a", "ACE2", "--gene-b", "TMPRSS2",
                "--min-cells", "30", "--min-frac", "0.04", "--out", out]) == 0
    return _digest(os.path.join(out, "coexpr.csv"))


def compute_digests(work: str) -> dict[str, str]:
    """Every case's digest, with ``work`` as scratch space."""
    corpus, curated = os.path.join(work, "corpus"), os.path.join(work, "curate")
    assert run([
        "synth", "--calibrate-daily", bundled.data_path(bundled.DAILY_REFERENCE),
        "--n-pos", "400", "--n-neg", "2000", "--negation-rate", "0.01",
        "--uncertainty-rate", "0.005", "--other-rate", "0.005",
        "--template-rate", "0.05", "--seed", "7", "--out", corpus,
    ]) == 0
    patients = ["--patients", os.path.join(corpus, "patients.csv")]
    notes = ["--notes", os.path.join(corpus, "notes.jsonl"), *patients]
    digests = _curate_cases(notes, curated)
    export = os.path.join(curated, "default", "presence_long.csv")
    inputs = {"notes": notes, "presence": ["--presence", export, *patients]}
    cases = dict(COUNTS)
    for command in TABLES:
        for source in SOURCES:
            cases[f"{command}/{source}"] = [command, *inputs[source]]
    digests.update({name: _table_digest(argv, os.path.join(work, "out", name))
                    for name, argv in cases.items()})
    digests["eval/metrics.csv"] = _eval_digest(os.path.join(corpus, "gold_labels.csv"), work)
    digests["coexpr/coexpr.csv"] = _coexpr_digest(work)
    return dict(sorted(digests.items()))


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(str(tmp_path_factory.mktemp("golden")))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_cases_match_the_golden_file(digests, golden):
    assert sorted(digests) == sorted(golden)


@pytest.mark.parametrize("case", [*COUNTS, *(f"{c}/{s}" for c in TABLES for s in SOURCES)])
def test_table_bytes_match_golden_digest(digests, golden, case):
    assert digests[case] == golden[case], case


@pytest.mark.parametrize("command", sorted(TABLES))
def test_notes_and_presence_export_give_the_same_table(digests, command):
    assert digests[f"{command}/notes"] == digests[f"{command}/presence"]


@pytest.mark.parametrize("case", [
    *(f"curate/{setting}/{file}" for setting in
      [*CURATE_SETTINGS, "unknown_patients", "replay", "workers2"]
      for file in CURATED),
    "curate/requests.jsonl", "eval/metrics.csv", "coexpr/coexpr.csv",
])
def test_output_bytes_match_golden_digest(digests, golden, case):
    assert digests[case] == golden[case], case


@pytest.mark.parametrize("file", CURATED)
def test_two_workers_give_the_one_worker_files(digests, file):
    assert digests[f"curate/workers2/{file}"] == digests[f"curate/unknown_patients/{file}"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        fresh = compute_digests(work)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(fresh, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(fresh)} digests to {GOLDEN}", file=sys.stderr)
