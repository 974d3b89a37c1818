"""Acceptance suite: one test per contract criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them).  Reference numbers come from the bundled fixture tables; oracles
live in tests/oracles.py.

Criterion 2 (daily-table reproduction) is expected to FAIL on 7 of 91
cells: the mandated count derivation round(pct * N / 100) cannot recover
the underlying counts where the printed two-decimal percentage is too
coarse, so no implementation can hit the stated tolerances there.  The
failure message carries the per-cell analysis; everything the engine
computes from the derived counts is independently verified.
"""

import contextlib
import csv
import math
import random
import time

import pytest

from phenotrail import bundled
from phenotrail.assertion import AssertionLabel, RuleClassifier, evaluate
from phenotrail.cohort import (
    build_presence,
    corpus_fingerprints,
    daily_counts,
    segment_notes,
    window_presence,
    write_presence_csv,
)
from phenotrail.coexpr import CellInfo, ExpressionMatrix, coexpression_summary, normalize_cp10k
from phenotrail.lexicon import build_matcher, load_default_lexicon
from phenotrail.stats import (
    bh_adjust,
    daily_rows,
    enrichment_rows,
    fisher_exact_two_sided,
    pair_rows,
    two_tailed_log10_p,
)
from phenotrail.synth import SynthConfig, calibrate_from_daily_table, generate
from phenotrail.textproc import segment_sentences

from oracles import (
    bh_oracle,
    fisher_oracle_all_p,
    log10_two_tailed_oracle,
    matcher_oracle,
)

N_POS, N_NEG = 635, 29859
FACTOR = math.log10  # p-value tolerance "within a factor of k" in log10 space

Y, N, M, O = (AssertionLabel.YES, AssertionLabel.NO,
              AssertionLabel.MAYBE, AssertionLabel.OTHER)


@contextlib.contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE {number:02d}] {title}: FAIL "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    print(f"\n[ACCEPTANCE {number:02d}] {title}: PASS "
          f"({time.perf_counter() - start:.1f}s)")


def read_fixture(name):
    with open(bundled.data_path(name), newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture(scope="module")
def lexicon():
    return load_default_lexicon()


@pytest.fixture(scope="module")
def matcher(lexicon):
    return build_matcher(lexicon)


@pytest.fixture(scope="module")
def daily_reference(lexicon):
    reverse = {name: gid for gid, name in lexicon.display_names.items()}
    rows = []
    for row in read_fixture(bundled.DAILY_REFERENCE):
        rows.append({
            "group_id": reverse[row["phenotype"]],
            "phenotype": row["phenotype"],
            "day": int(row["day"]),
            "pos_pct": float(row["pos_pct"]),
            "neg_pct": float(row["neg_pct"]),
            "ref_ratio": row["ref_ratio"],
            "ref_p": float(row["ref_p"]),
        })
    return rows


@pytest.fixture(scope="module")
def full_corpus(lexicon, daily_reference):
    """Cohort-scale corpus calibrated from the daily reference table."""
    config = calibrate_from_daily_table(
        [(r["group_id"], r["day"], r["pos_pct"], r["neg_pct"])
         for r in daily_reference],
        n_pos=N_POS,
        n_neg=N_NEG,
        negation_rate=0.002,
        uncertainty_rate=0.001,
        other_rate=0.001,
        template_rate=0.01,
        seed=20200315,
    )
    return config, generate(config, lexicon)


def curate(notes, patients, matcher, lexicon, workers=1, threshold=20):
    segmented = segment_notes(notes)
    fingerprints = corpus_fingerprints(notes, segmented)
    templates = {fp for fp, pats in fingerprints.items() if len(pats) >= threshold}
    table, rejects = build_presence(
        notes, patients, matcher, RuleClassifier(),
        templates=templates, workers=workers, group_ids=lexicon.group_ids,
        segmented=segmented,
    )
    return table, rejects, templates


def test_criterion_01_week_enrichment_reproduction():
    with criterion(1, "week-window enrichment table reproduced from counts"):
        fixture = read_fixture(bundled.WEEK_REFERENCE)
        counts = [(r["phenotype"], int(r["pos_count"]), int(r["neg_count"]))
                  for r in fixture]
        start = time.perf_counter()
        rows = enrichment_rows(counts, N_POS, N_NEG)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"enrichment took {elapsed:.3f}s, budget 1s"

        refs = {r["phenotype"]: (float(r["ref_ratio"]), float(r["ref_p"]))
                for r in fixture}
        assert len(rows) == 26
        for row in rows:
            ref_ratio, ref_p = refs[row.group_id]
            got_ratio = row.ratio if row.ratio is not None else 0.0
            assert abs(got_ratio - ref_ratio) <= 0.01, row.group_id
            assert abs(row.log10_p - math.log10(ref_p)) <= FACTOR(2.0), row.group_id

        by_id = {r.group_id: r for r in rows}
        anosmia = by_id["Altered or diminished sense of taste or smell"]
        assert anosmia.ratio == pytest.approx(37.44, abs=0.01)
        assert abs(anosmia.log10_p - math.log10(2.95e-187)) <= FACTOR(2.0)
        fever = by_id["Fever / chills"]
        assert fever.ratio == pytest.approx(2.13, abs=0.01)
        assert abs(fever.log10_p - math.log10(1.29e-36)) <= FACTOR(2.0)
        # table sorted by descending fold change
        ratios = [r.ratio if r.ratio is not None else math.inf for r in rows]
        assert ratios == sorted(ratios, reverse=True)


def test_criterion_02_daily_table_reproduction(daily_reference):
    with criterion(2, "daily enrichment table reproduced from derived counts"):
        cells = {}
        for ref in daily_reference:
            k_pos = round(ref["pos_pct"] * N_POS / 100.0)
            k_neg = round(ref["neg_pct"] * N_NEG / 100.0)
            cells[(ref["group_id"], ref["day"])] = (k_pos, k_neg, ref)
        rows = daily_rows(
            [(gid, day, kp, kn) for (gid, day), (kp, kn, _r) in cells.items()],
            N_POS, N_NEG,
        )
        by_key = {(r.group_id, r.day): r for r in rows}

        # Spot rows named by the contract.
        cough = by_key[("cough", -7)]
        assert cough.ratio == pytest.approx(3.94, abs=0.05)
        assert abs(cough.log10_p - math.log10(1.40e-9)) <= FACTOR(3.0)
        fever = by_key[("fever_chills", -6)]
        assert fever.ratio == pytest.approx(5.14, abs=0.05)
        assert abs(fever.log10_p - math.log10(7.33e-15)) <= FACTOR(3.0)
        assert by_key[("taste_smell_change", -6)].ratio is None  # prints "-"

        # Every cell at the stated tolerances: ratio +/-0.05, p within x3.
        failures = []
        for (gid, day), (k_pos, k_neg, ref) in sorted(cells.items()):
            row = by_key[(gid, day)]
            # The engine's own math on the derived counts is independently
            # verified, so any residual mismatch is print-rounding data loss.
            expected_log10_p = _oracle_log10_p(k_pos, k_neg)
            assert row.log10_p == pytest.approx(expected_log10_p, abs=1e-6)

            problems = []
            if ref["ref_ratio"] == "-":
                if row.ratio is not None:
                    problems.append(f"ratio {row.ratio:.2f} vs printed '-'")
            elif row.ratio is None:
                problems.append(f"ratio '-' vs printed {ref['ref_ratio']}")
            elif abs(row.ratio - float(ref["ref_ratio"])) > 0.05:
                problems.append(
                    f"ratio {row.ratio:.2f} vs printed {ref['ref_ratio']}")
            if abs(row.log10_p - math.log10(ref["ref_p"])) > FACTOR(3.0):
                problems.append(
                    f"p {10 ** row.log10_p:.2E} vs printed {ref['ref_p']:.2E}")
            if problems:
                failures.append(
                    f"{ref['phenotype']} day {day}: derived counts "
                    f"({k_pos}, {k_neg}) from ({ref['pos_pct']}%, {ref['neg_pct']}%)"
                    f" -> " + "; ".join(problems)
                )
        if failures:
            detail = "\n  ".join(failures)
            pytest.fail(
                f"{len(failures)} of {len(cells)} cells miss the stated "
                "tolerances. The printed two-decimal percentages do not "
                "pin down the underlying counts (several integers round to "
                "the same percentage), so round(pct*N/100) reconstructs a "
                "different table than the one the printed ratios and "
                "p-values were computed from. The engine's statistics on "
                "the derived counts are oracle-verified above.\n  " + detail
            )


def _oracle_log10_p(k_pos, k_neg):
    p1, p2 = k_pos / N_POS, k_neg / N_NEG
    pooled = (k_pos + k_neg) / (N_POS + N_NEG)
    if pooled in (0.0, 1.0):
        return 0.0
    se = math.sqrt(pooled * (1 - pooled) * (1 / N_POS + 1 / N_NEG))
    z = (p1 - p2) / se
    return log10_two_tailed_oracle(z) if z else 0.0


def _count_candidates(pct, n):
    """Every integer count whose percentage prints as pct at 2 decimals."""
    lo = math.ceil((pct - 0.005) * n / 100.0 - 1e-9)
    hi = math.floor((pct + 0.005) * n / 100.0 + 1e-9)
    return [k for k in range(max(lo, 0), min(hi, n) + 1)
            if abs(100.0 * k / n - pct) <= 0.005 + 1e-9]


def test_criterion_02_companion_every_cell_attainable_from_consistent_counts(
    daily_reference,
):
    """Companion to the strict check above: for EVERY cell some integer
    count pair consistent with the printed percentages reproduces the
    printed ratio and p-value at the stated tolerances.  This pins the
    strict failures on percentage quantization, not on the statistics."""
    with criterion(2, "companion: printed daily table consistent with engine math"):
        for ref in daily_reference:
            reproduced = False
            for k_pos in _count_candidates(ref["pos_pct"], N_POS):
                for k_neg in _count_candidates(ref["neg_pct"], N_NEG):
                    row = daily_rows(
                        [(ref["group_id"], ref["day"], k_pos, k_neg)],
                        N_POS, N_NEG,
                    )[0]
                    if ref["ref_ratio"] == "-":
                        ratio_ok = row.ratio is None
                    else:
                        ratio_ok = (row.ratio is not None
                                    and abs(row.ratio - float(ref["ref_ratio"])) <= 0.05)
                    p_ok = abs(
                        row.log10_p - math.log10(ref["ref_p"])
                    ) <= FACTOR(3.0)
                    if ratio_ok and p_ok:
                        reproduced = True
                        break
                if reproduced:
                    break
            assert reproduced, (ref["phenotype"], ref["day"])


def test_criterion_03_pairwise_reproduction():
    with criterion(3, "pairwise Fisher + BH table reproduced from counts"):
        fixture = read_fixture(bundled.PAIR_REFERENCE)
        counts = [
            (r["phenotype_a"], r["phenotype_b"],
             int(r["pos_count"]), int(r["neg_count"]))
            for r in fixture
        ]
        rows = pair_rows(counts, N_POS, N_NEG, m_tests=277)
        by_pair = {frozenset((r.group_a, r.group_b)): r for r in rows}

        for ref in fixture:
            row = by_pair[frozenset((ref["phenotype_a"], ref["phenotype_b"]))]
            assert abs(
                math.log10(row.p_raw) - math.log10(float(ref["ref_p_raw"]))
            ) <= FACTOR(2.0), ref

        # Top five adjusted values within 2%.
        ordered = sorted(fixture, key=lambda r: float(r["ref_p_raw"]))
        for ref in ordered[:5]:
            row = by_pair[frozenset((ref["phenotype_a"], ref["phenotype_b"]))]
            ref_adj = float(ref["ref_p_adjusted"])
            assert abs(row.p_adjusted - ref_adj) / ref_adj <= 0.02, ref

        # BH against the brute-force oracle on 1000 random vectors, exact.
        rng = random.Random(277)
        for _ in range(1000):
            size = rng.randint(1, 60)
            ps = [10 ** rng.uniform(-40, 0) for _ in range(size)]
            for i in range(size):
                if rng.random() < 0.15 and i:
                    ps[i] = ps[rng.randrange(i)]  # inject ties
            m = size + rng.randint(0, 300)
            assert bh_adjust(ps, m=m) == bh_oracle(ps, m=m)


def test_criterion_04_fisher_matches_exhaustive_enumeration():
    with criterion(4, "Fisher exact equals enumeration for all margins <= 40"):
        start = time.perf_counter()
        total = 0
        for r1 in range(41):
            for r2 in range(41):
                if r1 + r2 == 0:
                    continue
                for c1 in range(max(0, r1 + r2 - 40), min(40, r1 + r2) + 1):
                    expected = fisher_oracle_all_p(r1, r2, c1)
                    for a, ref in expected.items():
                        got = fisher_exact_two_sided(
                            a, r1 - a, c1 - a, r2 - (c1 - a))
                        assert abs(got - ref) <= 1e-10 * ref, (r1, r2, c1, a)
                        total += 1
        elapsed = time.perf_counter() - start
        assert total == 494_500
        assert elapsed < 60.0, f"exhaustive sweep took {elapsed:.1f}s"


def test_criterion_05_extreme_tail_z_precision():
    with criterion(5, "extreme-tail z-test p agrees with high-precision oracle"):
        for z in (1.0, 5.0, 10.0, 20.0, 29.19, 35.0):
            got = two_tailed_log10_p(z)
            ref = log10_two_tailed_oracle(z)
            assert math.isfinite(got)
            assert abs(got - ref) <= 1e-3 * abs(ref), z  # 3 significant figures
            assert 10.0 ** got > 0.0, "underflow to zero"


def test_criterion_06_lexicon_exhaustive_and_oracle(lexicon, matcher):
    with criterion(6, "every synonym matched; 10k random sentences equal oracle"):
        for term, groups in lexicon.term_index.items():
            surface = term.upper() if term in lexicon.caps_required else term
            sentence = f"patient reports {surface} today"
            hits = [m for m in matcher.find_mentions(sentence) if m.term == term]
            assert hits, term
            assert hits[0].group_ids == groups, term

        rng = random.Random(146)
        terms = sorted(lexicon.term_index)
        distractors = [
            "patient", "reports", "handed", "crashed", "rash;", "Ha", "chart",
            "soberly", "the", "and", "with", "today", "overnight", "noted",
            "recovering", "COLDER", "weakly", "fevered", "at", "home", "dr.",
        ]
        for _ in range(10_000):
            parts = []
            for _ in range(rng.randint(1, 10)):
                if rng.random() < 0.45:
                    term = rng.choice(terms)
                    roll = rng.random()
                    if roll < 0.2:
                        term = term.upper()
                    elif roll < 0.4:
                        term = term.title()
                    parts.append(term)
                else:
                    parts.append(rng.choice(distractors))
            sep = "  " if rng.random() < 0.1 else " "
            sentence = sep.join(parts) + rng.choice(["", ".", "!", " ?"])
            got = [(m.start, m.end, m.term, m.group_ids)
                   for m in matcher.find_mentions(sentence)]
            expected = matcher_oracle(
                sentence, lexicon.term_index, lexicon.caps_required)
            assert got == expected, sentence


def test_criterion_07_round_trip_full_scale(lexicon, matcher, full_corpus):
    with criterion(7, "cohort-scale synth -> curate -> timeline round trip"):
        start = time.perf_counter()
        config, corpus = full_corpus
        notes = corpus.notes
        patients = {p.patient_id: p for p in corpus.patients}
        table, rejects, templates = curate(notes, patients, matcher, lexicon)
        assert rejects == []

        counts = {(g, d): (kp, kn)
                  for g, d, kp, kn in daily_counts(table, (-7, -1))}
        sizes = {"positive": N_POS, "negative": N_NEG}
        checked = 0
        for (gid, cohort, day), p in sorted(config.day_probs.items()):
            n = sizes[cohort]
            if n * p < 1.0:
                continue
            checked += 1
            k_pos, k_neg = counts[(gid, day)]
            k = k_pos if cohort == "positive" else k_neg
            sigma = math.sqrt(p * (1.0 - p) / n)
            assert abs(k / n - p) <= 3.0 * sigma, (gid, cohort, day, k, n * p)
        assert checked > 150  # nearly every configured cell qualifies

        pos, neg = window_presence(table, -7, -1)["taste_smell_change"]
        fold = (len(pos) / N_POS) / (len(neg) / N_NEG)
        assert fold > 10.0, fold

        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"round trip took {elapsed:.0f}s"


def test_criterion_08_classifier_evaluation(matcher, full_corpus):
    with criterion(8, "evaluation metrics exact; rule classifier >= 0.95"):
        metrics = evaluate([Y, Y, N, O], [Y, N, N, O])
        assert metrics.accuracy == 0.75
        assert metrics.per_label[Y] == (1.0, 0.5, pytest.approx(2 / 3))
        assert (metrics.tpr, metrics.fpr, metrics.fnr) == (0.5, 0.0, 0.5)
        identity = evaluate([Y, N, M, O], [Y, N, M, O])
        assert identity.accuracy == 1.0 and identity.fpr == 0.0
        flipped = evaluate([Y, N], [N, Y])
        assert flipped.accuracy == 0.0 and flipped.tpr == 0.0 and flipped.fpr == 1.0

        _config, corpus = full_corpus
        gold_by_key = {(sid, idx): label for sid, idx, label in corpus.gold}
        classifier = RuleClassifier()
        gold, predicted = [], []
        for note in corpus.notes:
            for sentence in segment_sentences(note):
                key = (f"{note.note_id}:{sentence.index}", 0)
                expected = gold_by_key.get(key)
                if expected is None:
                    continue
                mentions = matcher.find_mentions(sentence.text)
                assert mentions, sentence.text
                span = (mentions[0].start, mentions[0].end)
                label, _conf = classifier.classify(sentence.text, span)
                gold.append(expected)
                predicted.append(label)
        assert len(gold) == len(corpus.gold)
        accuracy = evaluate(gold, predicted).accuracy
        assert accuracy >= 0.95, accuracy


def test_criterion_09_throughput_and_worker_identity(lexicon, matcher):
    with criterion(9, "100k+ notes curated < 60s; identical across workers"):
        config = SynthConfig(
            n_pos=12000, n_neg=12000,
            day_probs={
                (g, cohort, d): 0.25
                for g in ("fever_chills", "cough", "diarrhea")
                for cohort in ("positive", "negative")
                for d in range(-7, 0)
            },
            negation_rate=0.05, uncertainty_rate=0.02, other_rate=0.02,
            template_rate=0.05, seed=99,
        )
        corpus = generate(config, lexicon)
        notes = corpus.notes
        assert len(notes) >= 100_000, len(notes)
        patients = {p.patient_id: p for p in corpus.patients}

        start = time.perf_counter()
        serial, _, _ = curate(notes, patients, matcher, lexicon, workers=1)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"single-worker curate took {elapsed:.1f}s"

        parallel, _, _ = curate(notes, patients, matcher, lexicon, workers=2)
        import io

        buffers = []
        for table in (serial, parallel):
            buffer = io.StringIO()
            write_presence_csv(table, buffer)
            buffers.append(buffer.getvalue())
        assert buffers[0] == buffers[1]


def test_criterion_10_coexpression_filters_and_properties():
    with criterion(10, "co-expression normalization, filters, properties"):
        assert normalize_cp10k(0, 100) == 0.0
        assert normalize_cp10k(1, 10000) == pytest.approx(math.log(2), rel=1e-12)
        assert normalize_cp10k(5, 2000) == pytest.approx(3.2581, abs=1e-4)

        genes = ("ACE2", "TMPRSS2", "OTHER")

        def population(n, coexpressing):
            cells = [CellInfo(f"c{i}", "lung", "t2") for i in range(n)]
            entries = [(i, 2, 10) for i in range(n)]
            entries += [(i, 0, 1) for i in range(coexpressing)]
            entries += [(i, 1, 2) for i in range(coexpressing)]
            return ExpressionMatrix(cells, genes, entries)

        (small,) = coexpression_summary(population(99, 99), "ACE2", "TMPRSS2")
        assert small.frac_coexpress == 1.0 and not small.passes_filter

        (sparse,) = coexpression_summary(population(200, 1), "ACE2", "TMPRSS2")
        assert sparse.frac_coexpress == pytest.approx(0.005)
        assert not sparse.passes_filter

        (passing,) = coexpression_summary(population(100, 2), "ACE2", "TMPRSS2")
        assert passing.frac_coexpress == pytest.approx(0.02)
        assert passing.passes_filter

        cells = [CellInfo(f"c{i}", "lung", "t2") for i in range(4)]
        entries = [(0, 0, 3), (0, 1, 2), (0, 2, 5), (1, 0, 1), (1, 2, 9),
                   (2, 1, 4), (2, 2, 1), (3, 0, 2), (3, 1, 1), (3, 2, 2)]
        (toy,) = coexpression_summary(
            ExpressionMatrix(cells, genes, entries), "ACE2", "TMPRSS2",
            min_cells=1, min_frac=0.0,
        )
        assert toy.frac_coexpress == 0.5

        rng = random.Random(10)
        # scale consistency: doubling all counts in a cell changes nothing
        for _ in range(200):
            count, extra = rng.randint(0, 30), rng.randint(1, 400)
            total = count + extra
            assert normalize_cp10k(2 * count, 2 * total) == pytest.approx(
                normalize_cp10k(count, total), rel=1e-12)

        # permutation invariance on a random two-population matrix
        tissues = ["lung", "gut"]
        cells = [CellInfo(f"c{i}", rng.choice(tissues), "x") for i in range(120)]
        entries = [(i, 2, 1 + rng.randint(0, 5)) for i in range(120)]
        for i in range(120):
            if rng.random() < 0.5:
                entries.append((i, 0, rng.randint(1, 5)))
            if rng.random() < 0.5:
                entries.append((i, 1, rng.randint(1, 5)))
        base = coexpression_summary(
            ExpressionMatrix(cells, genes, entries), "ACE2", "TMPRSS2", min_cells=1)
        perm = list(range(120))
        rng.shuffle(perm)
        inverse = {old: new for new, old in enumerate(perm)}
        shuffled = coexpression_summary(
            ExpressionMatrix([cells[i] for i in perm], genes,
                             [(inverse[c], g, v) for c, g, v in entries]),
            "ACE2", "TMPRSS2", min_cells=1)
        assert len(base) == len(shuffled)
        for a, b in zip(base, shuffled):
            assert (a.tissue, a.cell_type, a.n_cells) == (b.tissue, b.cell_type, b.n_cells)
            assert a.mean_a == pytest.approx(b.mean_a, rel=1e-12)
            assert a.mean_b == pytest.approx(b.mean_b, rel=1e-12)
            assert a.frac_coexpress == b.frac_coexpress
