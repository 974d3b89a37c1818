"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's algorithmic machinery: the
matcher oracle scans token windows directly, the classifier oracle builds
the cue windows of every mention without shortcuts, the generator oracle
walks every (patient, day, group) cell in Python and writes its files
with ``json.dumps`` and one CSV row at a time, the Fisher oracle sums
exact integer binomial coefficients, the BH oracle applies the step-up
definition by quadratic scan, the tail oracle delegates to mpmath
at high precision, and the co-expression oracle parses the triplet
matrix into one Python tuple per line and a dict per gene.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import warnings
from datetime import timedelta
from fractions import Fraction

import mpmath
import numpy as np

from phenotrail.assertion import AssertionLabel
from phenotrail.errors import InputError
from phenotrail.synth import (
    _BASE_DATE,
    _DATE_CYCLE,
    _FRAME_BANKS,
    _NUMBER_SPAN,
    TEMPLATE_SENTENCES,
    _exclusive_terms,
)

_TOKEN_RE = re.compile(r"(?:[^\W_]|')+")


def normalize_text(raw: str) -> str:
    s = " ".join(raw.lower().split())
    is_word = lambda ch: ch.isalnum() or ch == "'"
    start, end = 0, len(s)
    while start < end and not is_word(s[start]):
        start += 1
    while end > start and not is_word(s[end - 1]):
        end -= 1
    return s[start:end]


def matcher_oracle(sentence, term_index, caps_required):
    """All-window scan: every contiguous token window is compared against
    every lexicon term, then overlaps resolve longest-earliest."""
    tokens = [(m.start(), m.end()) for m in _TOKEN_RE.finditer(sentence)]
    candidates = []
    for i in range(len(tokens)):
        for j in range(i, len(tokens)):
            start, end = tokens[i][0], tokens[j][1]
            text = sentence[start:end]
            normalized = " ".join(text.lower().split())
            groups = term_index.get(normalized)
            if groups is None:
                continue
            if normalized in caps_required and text != normalized.upper():
                continue
            candidates.append((start, -(end - start), normalized, groups))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    picked = []
    consumed = 0
    for start, neg_len, term, groups in candidates:
        if start < consumed:
            continue
        consumed = start - neg_len
        picked.append((start, consumed, term, frozenset(groups)))
    return picked


_CUE_TOKEN_RE = re.compile(r"(?:[^\W_]|')+|;")


def classify_oracle(sentence, span, config):
    """Cue-window label by the literal rule: lowercase every token, keep up
    to window_before tokens ending at or before the span and window_after
    tokens starting at or after it (none for a window of 0), each side cut
    at the first scope breaker, then look for every cue at every offset of
    each side."""
    start, end = span
    tokens = [(m.group().lower(), m.start(), m.end())
              for m in _CUE_TOKEN_RE.finditer(sentence)]
    before = []
    for text, _t_start, t_end in reversed(tokens):
        if len(before) >= config.window_before:
            break
        if t_end > start:
            continue
        if text in config.scope_breakers:
            break
        before.append(text)
    before.reverse()
    after = []
    for text, t_start, _t_end in tokens:
        if len(after) >= config.window_after:
            break
        if t_start < end:
            continue
        if text in config.scope_breakers:
            break
        after.append(text)
    for label, cues in (("OTHER", config.attribution_cues),
                        ("NO", config.negation_cues),
                        ("MAYBE", config.uncertainty_cues)):
        for side in (before, after):
            for cue in cues:
                for i in range(len(side) - len(cue) + 1):
                    if tuple(side[i:i + len(cue)]) == cue:
                        return label
    return "YES"


def generate_oracle(config, lexicon):
    """Synthetic corpus by the cell-by-cell walk: (patients, notes, gold).

    Patients are (patient_id, pcr_date, pcr_result) and notes are
    (patient_id, note_id, date, text) tuples; gold rows are
    (sentence_id, mention_index, label)."""
    groups = [g for g in lexicon.group_ids if g in set(config.group_ids)]
    days = config.days
    n_days, n_groups = len(days), len(groups)
    terms_by_group = {g: _exclusive_terms(lexicon, g) for g in groups}
    prob_matrix = {
        cohort: np.array(
            [[config.day_probs.get((g, cohort, d), 0.0) for g in groups] for d in days]
        )
        for cohort in ("positive", "negative")
    }
    noise_total = config.negation_rate + config.uncertainty_rate + config.other_rate
    noise_cut1 = config.negation_rate
    noise_cut2 = config.negation_rate + config.uncertainty_rate

    patients, notes, gold = [], [], []
    for index in range(config.n_pos + config.n_neg):
        cohort = "positive" if index < config.n_pos else "negative"
        patient_id = f"SP{index:06d}"
        pcr_date = _BASE_DATE + timedelta(days=index % _DATE_CYCLE)
        patients.append((patient_id, pcr_date, cohort))
        if n_days == 0 or n_groups == 0:
            continue

        rng = np.random.default_rng((config.seed, index))
        draws = rng.random((5, n_days, n_groups))
        template_draws = rng.random((2, n_days))
        present = draws[0] < prob_matrix[cohort]
        noise = (~present) & (draws[1] < noise_total) if noise_total else None

        for day_idx, day in enumerate(days):
            sentences = []
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
            notes.append((patient_id, note_id, pcr_date + timedelta(days=day),
                          " ".join(text for text, _ in sentences)))
            for sentence_index, (_text, label) in enumerate(sentences):
                if label is not None:
                    gold.append((f"{note_id}:{sentence_index}", 0, label))
    return patients, notes, gold


def write_corpus_oracle(patients, notes, gold, notes_stream, patients_stream,
                        gold_stream):
    """The three corpus files, one json.dumps or CSV row per record."""
    for patient_id, note_id, note_date, text in notes:
        notes_stream.write(json.dumps(
            {"patient_id": patient_id, "note_id": note_id,
             "date": note_date.isoformat(), "text": text},
            ensure_ascii=False,
        ) + "\n")
    writer = csv.writer(patients_stream, lineterminator="\n")
    writer.writerow(["patient_id", "pcr_date", "pcr_result"])
    short = {"positive": "pos", "negative": "neg"}
    for patient_id, pcr_date, result in patients:
        writer.writerow([patient_id, pcr_date.isoformat(), short[result]])
    writer = csv.writer(gold_stream, lineterminator="\n")
    writer.writerow(["sentence_id", "mention_index", "label"])
    for sentence_id, mention_index, label in gold:
        writer.writerow([sentence_id, mention_index, label.value])


def fisher_oracle(a: int, b: int, c: int, d: int) -> float:
    """Exact enumeration with integer hypergeometric numerators.

    Tables sharing the margins share the denominator C(n, c1), so the
    probability-mass comparison (with the 1+1e-7 tie slack) happens in
    exact integer arithmetic.
    """
    r1, r2, c1 = a + b, c + d, a + c
    n = r1 + r2
    lo, hi = max(0, c1 - r2), min(r1, c1)
    numerators = {
        x: math.comb(r1, x) * math.comb(r2, c1 - x) for x in range(lo, hi + 1)
    }
    observed = numerators[a]
    # num(x) <= num(a) * (1 + 1e-7), kept exact via integers
    total = sum(
        num for num in numerators.values() if num * 10**7 <= observed * (10**7 + 1)
    )
    return float(Fraction(total, math.comb(n, c1)))


def fisher_oracle_all_p(r1: int, r2: int, c1: int) -> dict[int, float]:
    """Two-sided p for every feasible a given fixed margins (batched)."""
    n = r1 + r2
    lo, hi = max(0, c1 - r2), min(r1, c1)
    support = list(range(lo, hi + 1))
    numerators = [math.comb(r1, x) * math.comb(r2, c1 - x) for x in support]
    denom = math.comb(n, c1)
    order = sorted(range(len(support)), key=numerators.__getitem__)
    prefix = []
    running = 0
    for idx in order:
        running += numerators[idx]
        prefix.append(running)
    result = {}
    for pos, idx in enumerate(order):
        cutoff = numerators[idx] * (10**7 + 1)
        take = pos
        while take + 1 < len(order) and numerators[order[take + 1]] * 10**7 <= cutoff:
            take += 1
        result[support[idx]] = float(Fraction(prefix[take], denom))
    return result


def bh_oracle(p_values, m=None):
    """Literal step-up definition, O(n^2): adj(i) = min over all j with
    rank >= rank(i) of m * p(j) / rank(j), capped at 1.  The raw value is
    a true lower bound in real arithmetic, so the float result is clamped
    to it exactly as the implementation does."""
    count = len(p_values)
    if m is None:
        m = count
    order = sorted(range(count), key=lambda i: p_values[i])
    ranks = {idx: pos + 1 for pos, idx in enumerate(order)}
    adjusted = [0.0] * count
    for idx in range(count):
        rank = ranks[idx]
        candidates = [
            m * p_values[jdx] / ranks[jdx] for jdx in range(count) if ranks[jdx] >= rank
        ]
        adjusted[idx] = max(min(1.0, min(candidates)), p_values[idx])
    return adjusted


def log10_two_tailed_oracle(z: float, dps: int = 60) -> float:
    with mpmath.workdps(dps):
        return float(mpmath.log(mpmath.erfc(abs(z) / mpmath.sqrt(2)), 10))


def coexpr_oracle(matrix_source, cells, genes, gene_a, gene_b, min_cells=100,
                  min_frac=0.01) -> str:
    """coexpr.csv text from a text stream of the matrix, by the line-by-line
    loader: one ``(cell, gene, count)`` tuple per non-blank line, checked one
    by one, then a count dict per gene.

    Its errors number the non-blank lines, not the physical ones.
    """
    lines = (line for line in matrix_source if line.strip())
    try:
        header = next(lines)
    except StopIteration:
        raise InputError("matrix file is empty") from None
    parts = header.split()
    if len(parts) != 3:
        raise InputError("matrix header must be 'n_cells n_genes n_entries'")
    try:
        n_cells, n_genes, n_entries = (int(p) for p in parts)
    except ValueError:
        raise InputError("matrix header fields must be integers") from None
    if n_cells != len(cells):
        raise InputError(f"matrix declares {n_cells} cells but annotation lists {len(cells)}")
    if n_genes != len(genes):
        raise InputError(f"matrix declares {n_genes} genes but gene list has {len(genes)}")
    entries = []
    for lineno, line in enumerate(lines, start=2):
        fields = line.split()
        if len(fields) != 3:
            raise InputError(f"matrix line {lineno}: expected 3 fields")
        try:
            entries.append((int(fields[0]), int(fields[1]), int(fields[2])))
        except ValueError:
            raise InputError(f"matrix line {lineno}: fields must be integers") from None
    if len(entries) != n_entries:
        raise InputError(f"matrix declares {n_entries} entries but file has {len(entries)}")

    gene_index = {g: i for i, g in enumerate(genes)}
    if len(gene_index) != len(genes):
        raise InputError("duplicate gene symbols")
    cell_totals = [0] * n_cells
    columns: dict[int, dict[int, int]] = {}
    for cell_idx, gene_idx, count in entries:
        if not (0 <= cell_idx < n_cells and 0 <= gene_idx < n_genes):
            raise InputError(f"entry ({cell_idx}, {gene_idx}) outside matrix bounds")
        if count < 0:
            raise InputError("counts must be non-negative")
        if count == 0:
            continue
        column = columns.setdefault(gene_idx, {})
        column[cell_idx] = column.get(cell_idx, 0) + count
        cell_totals[cell_idx] += count

    def column(gene):
        if gene not in gene_index:
            raise InputError(f"unknown gene symbol {gene!r}")
        return columns.get(gene_index[gene], {})

    counts_a, counts_b = column(gene_a), column(gene_b)
    populations: dict[tuple[str, str], list[int]] = {}
    dropped = 0
    for idx, cell in enumerate(cells):
        if cell_totals[idx] == 0:
            dropped += 1
            continue
        populations.setdefault((cell.tissue, cell.cell_type), []).append(idx)
    if dropped:
        warnings.warn(f"dropped {dropped} cell(s) with zero total counts", stacklevel=2)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["tissue", "cell_type", "n_cells", f"mean_{gene_a}", f"mean_{gene_b}",
                     "frac_coexpress", "passes_filter"])
    for (tissue, cell_type), members in sorted(populations.items()):
        n = len(members)
        sum_a = sum_b = 0.0
        both = 0
        for idx in members:
            total = cell_totals[idx]
            raw_a, raw_b = counts_a.get(idx, 0), counts_b.get(idx, 0)
            sum_a += math.log(raw_a / total * 10000.0 + 1.0)
            sum_b += math.log(raw_b / total * 10000.0 + 1.0)
            both += raw_a > 0 and raw_b > 0
        frac = both / n
        writer.writerow([tissue, cell_type, n, f"{sum_a / n:.6f}", f"{sum_b / n:.6f}",
                         f"{frac:.6f}", str(n >= min_cells and frac >= min_frac).lower()])
    return out.getvalue()
