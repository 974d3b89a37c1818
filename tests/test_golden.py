"""Golden SHA-256 digests of the tables that enrich, timeline and pairwise write.

Each case runs one table command through ``cli.run`` and hashes its table;
``golden.json`` holds the digests, so a change that moves any printed byte
fails here.  The inputs are the bundled reference count files and a seeded
``synth`` corpus, read both as notes and as its ``curate --per-patient``
export.  After an intended change to the tables, regenerate the digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

from phenotrail import bundled
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


def _table_digest(argv: list[str], out: str) -> str:
    assert run([*argv, "--out", out]) == 0
    with open(os.path.join(out, TABLES[argv[0]]), "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def compute_digests(work: str) -> dict[str, str]:
    """Every case's table digest, with ``work`` as scratch space."""
    corpus, curated = os.path.join(work, "corpus"), os.path.join(work, "curated")
    assert run([
        "synth", "--calibrate-daily", bundled.data_path(bundled.DAILY_REFERENCE),
        "--n-pos", "400", "--n-neg", "2000", "--negation-rate", "0.01",
        "--uncertainty-rate", "0.005", "--other-rate", "0.005",
        "--template-rate", "0.05", "--seed", "7", "--out", corpus,
    ]) == 0
    patients = ["--patients", os.path.join(corpus, "patients.csv")]
    notes = ["--notes", os.path.join(corpus, "notes.jsonl"), *patients]
    assert run(["curate", *notes, "--per-patient", "--out", curated]) == 0
    inputs = {"notes": notes,
              "presence": ["--presence", os.path.join(curated, "presence_long.csv"), *patients]}
    cases = dict(COUNTS)
    for command in TABLES:
        for source in SOURCES:
            cases[f"{command}/{source}"] = [command, *inputs[source]]
    return {name: _table_digest(argv, os.path.join(work, "out", name))
            for name, argv in sorted(cases.items())}


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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        fresh = compute_digests(work)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(fresh, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(fresh)} digests to {GOLDEN}", file=sys.stderr)
