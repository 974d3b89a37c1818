"""The four workloads: input generation, the commands of one pass, checks.

A workload's ``setup`` makes its inputs from the seed alone (the same seed
gives byte-identical files); ``commands`` lists the CLI calls of one pass
as (label, workers, args); ``check`` verifies the outputs of a pass and
returns command label -> errors; ``properties`` describes the inputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re
import shutil

from checks import (
    GROUP_IDS,
    Expected,
    check_coexpr,
    check_curated,
    check_eval,
    check_tables,
    read_presence_long,
    read_roster,
    read_rows,
)

TABLES = ("enrich", "timeline", "pairwise")
LABELS = ("YES", "NO", "MAYBE", "OTHER")
DAILY_TABLE = os.path.join("src", "phenotrail", "data", "daily_percentages.csv")
DEFAULT_WINDOW = (-7, -1)
TEMPLATE_THRESHOLD = 20  # the CLI's default --template-threshold
_SENTENCE_END = re.compile(r"(?<=[.!?])\s+")


def _props(**values) -> dict:
    props = dict.fromkeys(
        ("notes", "sentences", "mentions_per_note", "template_share", "yes_share",
         "presence_rows", "matrix_entries", "arm_ratio"), 0)
    props.update(values)
    return props


class Workload:
    name = ""
    default_seed = 0

    def __init__(self, work: str):
        self.inputs = os.path.join(work, "in")
        self.out = os.path.join(work, "out")


class NotesWorkload(Workload):
    """Shared by the two workloads that start from a synthetic note corpus."""

    def __init__(self, work: str):
        super().__init__(work)
        self.corpus = os.path.join(self.inputs, "corpus")
        self.notes = os.path.join(self.corpus, "notes.jsonl")
        self.patients = os.path.join(self.corpus, "patients.csv")
        self.presence_rows = 0

    def notes_args(self, command: str, out: str, *extra: str) -> list[str]:
        return [command, "--notes", self.notes, "--patients", self.patients,
                *extra, "--out", out]

    def properties(self) -> dict:
        notes = sentences = 0
        seen: dict[str, list] = {}  # sentence identity -> [count, patients]
        with open(self.notes, encoding="utf-8") as handle:
            for line in handle:
                note = json.loads(line)
                notes += 1
                for text in _SENTENCE_END.split(note["text"].strip()):
                    sentences += 1
                    entry = seen.setdefault(" ".join(text.lower().split()), [0, set()])
                    entry[0] += 1
                    entry[1].add(note["patient_id"])
        templates = sum(c for c, p in seen.values() if len(p) >= TEMPLATE_THRESHOLD)
        gold = read_rows(os.path.join(self.corpus, "gold_labels.csv"))[1]
        arms = read_roster(self.patients)
        n_pos = sum(arms.values())
        return _props(
            notes=notes,
            sentences=sentences,
            mentions_per_note=len(gold) / notes,
            template_share=templates / sentences,
            yes_share=sum(1 for row in gold if row[2] == "YES") / len(gold),
            presence_rows=self.presence_rows,
            arm_ratio=(len(arms) - n_pos) / n_pos,
        )

    def check_curate(self, out_dir: str) -> tuple[list[str], Expected]:
        """Check curate's outputs; expected table counts from its export."""
        arms = read_roster(self.patients)
        errors, presence = check_curated(out_dir, arms)
        self.presence_rows = sum(len(p) for p in presence.values())
        return errors, Expected(presence, arms, DEFAULT_WINDOW)


class PaperCohort(NotesWorkload):
    """The README flow on the paper's 635 / 29,859 cohort, every table from notes."""

    name = "paper_cohort"
    default_seed = 42
    flip_rate = 0.1

    def setup(self, runner, seed: int) -> None:
        runner.cli("synth", [
            "synth", "--calibrate-daily", DAILY_TABLE, "--n-pos", "635",
            "--n-neg", "29859", "--negation-rate", "0.002",
            "--uncertainty-rate", "0.001", "--other-rate", "0.001",
            "--template-rate", "0.01", "--seed", str(seed), "--out", self.corpus,
        ], setup=True)
        self.write_predictions(seed)

    def write_predictions(self, seed: int) -> None:
        """Gold labels with a seeded share flipped to another label."""
        rng = random.Random(seed)
        header, rows = read_rows(os.path.join(self.corpus, "gold_labels.csv"))
        self.n_gold, self.n_flipped = len(rows), 0
        for row in rows:
            if rng.random() < self.flip_rate:
                row[2] = rng.choice([lab for lab in LABELS if lab != row[2]])
                self.n_flipped += 1
        with open(os.path.join(self.inputs, "predictions.csv"), "w",
                  encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows([header, *rows])

    def commands(self) -> list[tuple[str, int, list[str]]]:
        curated, stats = os.path.join(self.out, "curated"), os.path.join(self.out, "stats")
        return [
            ("curate", 1, self.notes_args("curate", curated, "--per-patient")),
            *((t, 1, self.notes_args(t, stats)) for t in TABLES),
            ("eval", 1, ["eval", "--gold", os.path.join(self.corpus, "gold_labels.csv"),
                         "--pred", os.path.join(self.inputs, "predictions.csv"),
                         "--out", os.path.join(self.out, "metrics")]),
        ]

    def check(self, labels) -> dict[str, list[str]]:
        curate_errors, expected = self.check_curate(os.path.join(self.out, "curated"))
        errors = check_tables(os.path.join(self.out, "stats"), expected)
        errors["curate"] = curate_errors
        errors["eval"] = check_eval(os.path.join(self.out, "metrics", "metrics.csv"),
                                    self.n_gold, self.n_flipped)
        return errors


class DenseNotes(NotesWorkload):
    """The criterion-09 corpus: curate at one and two workers, tables from its export."""

    name = "dense_notes"
    default_seed = 99

    def setup(self, runner, seed: int) -> None:
        config = {
            "n_pos": 12000, "n_neg": 12000, "seed": seed,
            "negation_rate": 0.05, "uncertainty_rate": 0.02, "other_rate": 0.02,
            "template_rate": 0.05,
            "day_probs": {
                f"{g}|{arm}|{day}": 0.25
                for g in ("fever_chills", "cough", "diarrhea")
                for arm in ("positive", "negative")
                for day in range(-7, 0)
            },
        }
        os.makedirs(self.inputs, exist_ok=True)
        path = os.path.join(self.inputs, "synth_config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle, indent=2, sort_keys=True)
        runner.cli("synth", ["synth", "--config", path, "--out", self.corpus], setup=True)

    def commands(self) -> list[tuple[str, int, list[str]]]:
        serial = os.path.join(self.out, "workers1")
        export = os.path.join(serial, "presence_long.csv")
        stats = os.path.join(self.out, "stats")
        return [
            ("curate", 1, self.notes_args("curate", serial, "--per-patient", "--workers", "1")),
            ("curate_parallel", 2, self.notes_args(
                "curate", os.path.join(self.out, "workers2"), "--per-patient", "--workers", "2")),
            *((t, 1, [t, "--presence", export, "--patients", self.patients, "--out", stats])
              for t in TABLES),
        ]

    def check(self, labels) -> dict[str, list[str]]:
        serial = os.path.join(self.out, "workers1")
        curate_errors, expected = self.check_curate(serial)
        errors = check_tables(os.path.join(self.out, "stats"), expected)
        errors["curate"] = curate_errors
        if "curate_parallel" in labels:
            errors["curate_parallel"] = [
                f"workers 2 {name} differs from workers 1"
                for name in ("presence.csv", "presence_long.csv", "rejects.csv")
                if not _same_bytes(os.path.join(serial, name),
                                   os.path.join(self.out, "workers2", name))
            ]
        return errors


class PresenceReload(Workload):
    """A large per-patient presence export read back by the three tables; no notes."""

    name = "presence_reload"
    default_seed = 7
    n_patients = 60000
    window = (-14, 14)

    def __init__(self, work: str):
        super().__init__(work)
        self.roster_path = os.path.join(self.inputs, "patients.csv")
        self.export_path = os.path.join(self.inputs, "presence_long.csv")
        self.expected = None

    def setup(self, runner, seed: int) -> None:
        rng = random.Random(seed)
        os.makedirs(self.inputs, exist_ok=True)
        ids = [f"RP{i:06d}" for i in range(self.n_patients)]
        arms = {True: ids[0::4], False: [p for i, p in enumerate(ids) if i % 4]}
        with open(self.roster_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("patient_id", "pcr_date", "pcr_result"))
            for i, patient_id in enumerate(ids):
                writer.writerow((patient_id, f"2020-04-{1 + i % 28:02d}",
                                 "neg" if i % 4 else "pos"))
        # Each group draws its daily rate (negative arm 0.5-1.6%) and its
        # positive-arm fold (1-1.45x) from fixed evenly spaced lists, so the
        # export's size hardly depends on the seed.  The strongest Fisher
        # tails reach 1e-100 to 1e-150, far above double underflow, where the CLI
        # would refuse a zero p-value.
        n = len(GROUP_IDS)
        rates = rng.sample([0.005 + 0.011 * i / (n - 1) for i in range(n)], n)
        folds = rng.sample([1.0 + 0.45 * i / (n - 1) for i in range(n)], n)
        with open(self.export_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("group_id", "relative_day", "cohort", "patient_id"))
            for group_id, rate, fold in zip(GROUP_IDS, rates, folds):
                for day in range(self.window[0], self.window[1] + 1):
                    for positive, cohort in ((True, "positive"), (False, "negative")):
                        members = arms[positive]
                        k = round(len(members) * rate * (fold if positive else 1.0)
                                  * rng.uniform(0.8, 1.2))
                        for patient_id in sorted(rng.sample(members, k)):
                            writer.writerow((group_id, day, cohort, patient_id))

    def commands(self) -> list[tuple[str, int, list[str]]]:
        span = f"--window={self.window[0]}..{self.window[1]}"
        return [
            (t, 1, [t, "--presence", self.export_path, "--patients", self.roster_path,
                    span, "--out", os.path.join(self.out, "stats")])
            for t in TABLES
        ]

    def check(self, labels) -> dict[str, list[str]]:
        if self.expected is None:
            self.expected = Expected(read_presence_long(self.export_path),
                                     read_roster(self.roster_path), self.window)
        return check_tables(os.path.join(self.out, "stats"), self.expected)

    def properties(self) -> dict:
        arms = read_roster(self.roster_path)
        n_pos = sum(arms.values())
        with open(self.export_path, "rb") as handle:
            rows = sum(1 for _ in handle) - 1
        return _props(presence_rows=rows, arm_ratio=(len(arms) - n_pos) / n_pos)


class CoexprAtlas(Workload):
    """A seeded sparse single-cell matrix summarised for ACE2 / TMPRSS2."""

    name = "coexpr_atlas"
    default_seed = 11
    n_cells, n_genes, genes_per_cell = 40000, 2000, 50
    gene_a, gene_b = "ACE2", "TMPRSS2"
    tissues = {"lung": ("AT1", "AT2", "ciliated", "club"),
               "ileum": ("enterocyte", "goblet", "paneth", "stem")}

    def __init__(self, work: str):
        super().__init__(work)
        self.paths = {k: os.path.join(self.inputs, f)
                      for k, f in (("matrix", "counts.txt"), ("cells", "cells.csv"),
                                   ("genes", "genes.txt"))}

    def setup(self, runner, seed: int) -> None:
        rng = random.Random(seed)
        os.makedirs(self.inputs, exist_ok=True)
        genes = [f"G{i:04d}" for i in range(self.n_genes)]
        idx_a, idx_b = 17, 1203
        genes[idx_a], genes[idx_b] = self.gene_a, self.gene_b
        others = [i for i in range(self.n_genes) if i not in (idx_a, idx_b)]
        populations = [(t, c) for t, cells in self.tissues.items() for c in cells]
        # Per-population chance that a cell expresses each of the two genes.
        chance = {pop: (rng.uniform(0.02, 0.4), rng.uniform(0.05, 0.5)) for pop in populations}
        summary = {pop: [0, 0.0, 0.0, 0] for pop in populations}
        entries = 0
        body = self.paths["matrix"] + ".body"
        with open(self.paths["cells"], "w", encoding="utf-8") as cells, \
                open(body, "w", encoding="utf-8") as matrix:
            cells.write("cell_id,tissue,cell_type\n")
            for cell in range(self.n_cells):
                pop = populations[rng.randrange(len(populations))]
                cells.write(f"c{cell:06d},{pop[0]},{pop[1]}\n")
                chosen = rng.sample(others, self.genes_per_cell - 2)
                counts = [1 + int(rng.expovariate(0.3)) for _ in chosen]
                pair = [1 + int(rng.expovariate(0.5)) if rng.random() < p else 0
                        for p in chance[pop]]
                for gene, count in zip((idx_a, idx_b), pair):
                    if count:
                        chosen.append(gene)
                        counts.append(count)
                matrix.writelines(f"{cell} {g} {n}\n" for g, n in zip(chosen, counts))
                entries += len(chosen)
                total = sum(counts)
                stats = summary[pop]
                stats[0] += 1
                stats[1] += math.log1p(pair[0] / total * 10000.0)
                stats[2] += math.log1p(pair[1] / total * 10000.0)
                stats[3] += pair[0] > 0 and pair[1] > 0
        with open(self.paths["genes"], "w", encoding="utf-8") as handle:
            handle.write("\n".join(genes) + "\n")
        with open(self.paths["matrix"], "w", encoding="utf-8") as handle, \
                open(body, encoding="utf-8") as source:
            handle.write(f"{self.n_cells} {self.n_genes} {entries}\n")
            shutil.copyfileobj(source, handle)
        os.remove(body)
        self.summary = {pop: tuple(v) for pop, v in summary.items()}
        self.entries = entries

    def commands(self) -> list[tuple[str, int, list[str]]]:
        return [("coexpr", 1, [
            "coexpr", "--matrix", self.paths["matrix"], "--cells", self.paths["cells"],
            "--genes", self.paths["genes"], "--gene-a", self.gene_a,
            "--gene-b", self.gene_b, "--out", os.path.join(self.out, "coexpr"),
        ])]

    def check(self, labels) -> dict[str, list[str]]:
        return {"coexpr": check_coexpr(os.path.join(self.out, "coexpr", "coexpr.csv"),
                                       self.summary)}

    def properties(self) -> dict:
        return _props(matrix_entries=self.entries)


def _same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


WORKLOADS = {w.name: w for w in (PaperCohort, DenseNotes, PresenceReload, CoexprAtlas)}
