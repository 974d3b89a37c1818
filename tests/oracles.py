"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's algorithmic machinery: the
matcher oracle scans token windows directly, the classifier oracle builds
the cue windows of every mention without shortcuts, the generator oracle
walks every (patient, day, group) cell in Python and writes its files
with ``json.dumps`` and one CSV row at a time, the Fisher oracle sums
exact integer binomial coefficients, the BH oracle applies the step-up
definition by quadratic scan, the tail oracle delegates to mpmath
at high precision, and the co-expression oracle parses the triplet
matrix into one Python tuple per line and a dict per gene.  Two are the
package's earlier implementations, kept as references for their faster
replacements: the full-support Fisher sum, the row-by-row presence
export loader that builds sets of patient ids, the two-pass curation
that holds the whole corpus (segmented once, then a template pass over
full patient sets, then a scan of the kept sentences), the roster
loader that reads every file through the csv module, the gold-label
loader that strips every field, and the evaluation that counts each
confusion cell in its own pass.

``curate_jsonl`` is no oracle: it is how tests that start from parsed
notes reach the package's one curation entry, through the JSON lines
that the CLI reads.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import warnings
from datetime import date, timedelta
from fractions import Fraction

import mpmath
import numpy as np

from phenotrail.assertion import AssertionLabel
from phenotrail.cohort import DEFAULT_DAY_RANGE, curate_notes
from phenotrail.errors import InputError, csv_rows
from phenotrail.textproc import PatientRecord, fingerprint, relative_day, sentence_texts
from phenotrail.synth import (
    _BASE_DATE,
    _DATE_CYCLE,
    _FRAME_BANKS,
    _NUMBER_SPAN,
    TEMPLATE_SENTENCES,
    _exclusive_terms,
    write_notes_jsonl,
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


def fisher_fraction(a: int, b: int, c: int, d: int) -> Fraction:
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
    return Fraction(total, math.comb(n, c1))


def fisher_oracle(a: int, b: int, c: int, d: int) -> float:
    """The exact two-sided Fisher p as a float (0.0 below the double range)."""
    return float(fisher_fraction(a, b, c, d))


def fisher_log10_oracle(a: int, b: int, c: int, d: int, dps: int = 40) -> mpmath.mpf:
    """log10 of the exact two-sided Fisher p, through mpmath, so that a p
    far below the double range keeps its digits."""
    p = fisher_fraction(a, b, c, d)
    with mpmath.workdps(dps):
        return mpmath.log10(p.numerator) - mpmath.log10(p.denominator)


def format_p_oracle(log10_p: mpmath.mpf, dps: int = 40) -> str:
    """``stats.format_p``'s two-decimal scientific notation, in mpmath."""
    with mpmath.workdps(dps):
        exponent = int(mpmath.floor(log10_p))
        hundredths = int(mpmath.nint(mpmath.power(10, log10_p - exponent) * 100))
        if hundredths >= 1000:
            hundredths, exponent = hundredths // 10, exponent + 1
        return f"{hundredths // 100}.{hundredths % 100:02d}E{exponent:+03d}"


_LOG_FACTORIALS: list[float] = []


def fisher_full_support(a: int, b: int, c: int, d: int) -> float:
    """log10 of the two-sided Fisher p in floats, summed over every table of
    the support: what ``stats.fisher_exact_two_sided`` must equal bit for bit."""
    n = a + b + c + d
    r1, r2, c1 = a + b, c + d, a + c
    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    if lo == hi:
        return 0.0
    lf = _LOG_FACTORIALS
    lf.extend(math.lgamma(i + 1) for i in range(len(lf), n + 1))
    const = lf[r1] + lf[r2] + lf[c1] + lf[n - c1] - lf[n]
    lp_obs = const - (lf[a] + lf[r1 - a] + lf[c1 - a] + lf[r2 - c1 + a])
    cutoff = lp_obs + math.log1p(1e-7)
    selected = []
    m = -math.inf
    for x in range(lo, hi + 1):
        lp = const - (lf[x] + lf[r1 - x] + lf[c1 - x] + lf[r2 - c1 + x])
        if lp <= cutoff:
            selected.append(lp)
            if lp > m:
                m = lp
    total = math.fsum(math.exp(lp - m) for lp in selected)
    return min(0.0, (m + math.log(total)) / math.log(10.0))


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


def bh_oracle(log10_ps, m=None):
    """Literal step-up definition over log10 p-values, O(n^2): adj(i) = min
    over all j with rank >= rank(i) of log10 m + log10 p(j) - log10 rank(j),
    capped at 0.  The raw value is a true lower bound in real arithmetic,
    so the float result is clamped to it exactly as the implementation does."""
    count = len(log10_ps)
    if m is None:
        m = count
    order = sorted(range(count), key=lambda i: log10_ps[i])
    ranks = {idx: pos + 1 for pos, idx in enumerate(order)}
    adjusted = [0.0] * count
    for idx in range(count):
        rank = ranks[idx]
        candidates = [
            math.log10(m) + log10_ps[jdx] - math.log10(ranks[jdx])
            for jdx in range(count) if ranks[jdx] >= rank
        ]
        adjusted[idx] = max(min(0.0, min(candidates)), log10_ps[idx])
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


def presence_export_oracle(source, patients, group_ids=None):
    """(group_id, day) -> patient ids from a per-patient long export text
    stream, one csv row at a time, raising InputError for the first bad row."""
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("presence file is empty") from None
    columns = ("group_id", "relative_day", "cohort", "patient_id")
    if tuple(h.strip() for h in header) != columns:
        raise InputError(
            f"presence header must be {','.join(columns)!r}, got {','.join(header)!r}"
        )
    known = None if group_ids is None else frozenset(group_ids)
    arms = {patient_id: record.pcr_result for patient_id, record in patients.items()}
    presence = {}
    start = reader.line_num + 1
    for row in reader:
        lineno, start = start, reader.line_num + 1  # the line the row starts on
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise InputError(f"presence line {lineno}: expected 4 fields, got {len(row)}")
        group_id, raw_day, cohort, patient_id = (f.strip() for f in row)
        try:
            day = int(raw_day)
        except ValueError:
            raise InputError(f"presence line {lineno}: bad relative_day {raw_day!r}") from None
        arm = arms.get(patient_id)
        if arm != cohort:
            if arm is None:
                raise InputError(f"presence line {lineno}: unknown patient {patient_id!r}")
            raise InputError(
                f"presence line {lineno}: cohort {cohort!r} does not match patient "
                f"{patient_id!r} ({arm})"
            )
        members = presence.get((group_id, day))
        if members is None:
            if known is not None and group_id not in known:
                raise InputError(f"presence line {lineno}: unknown group {group_id!r}")
            members = presence[(group_id, day)] = set()
        members.add(patient_id)
    return presence


def curate_jsonl(notes, patients, matcher, classifier, template_threshold=None,
                 day_range=DEFAULT_DAY_RANGE, include_maybe=False, workers=1, group_ids=None):
    """(presence table, rejects) of ``notes`` written as JSON lines and
    curated by ``cohort.curate_notes``.  ``template_threshold`` None keeps
    template sentences; ``group_ids`` as for ``Curation.table``."""
    stream = io.StringIO()
    write_notes_jsonl(notes, stream)
    stream.seek(0)
    curation = curate_notes(stream, patients, matcher, classifier, template_threshold,
                            day_range, include_maybe, workers)
    return curation.table(patients, day_range, group_ids), curation.rejects()


def segment_notes(notes):
    """Each note's sentences as (text, fingerprint) pairs, in note order."""
    return [[(text, fingerprint(text)) for text in sentence_texts(note.text)] for note in notes]


def template_fingerprints_oracle(notes, threshold, segmented):
    """Fingerprints written for at least ``threshold`` distinct patients,
    from the full patient set of every fingerprint."""
    table = {}
    for note, pairs in zip(notes, segmented):
        for _text, fp in pairs:
            table.setdefault(fp, set()).add(note.patient_id)
    return {fp for fp, patients in table.items() if len(patients) >= threshold}


def kept_sentences(notes, segmented, patients, templates, day_range):
    """(patient_id, day, sentence) for each non-template sentence of an
    in-range note by a known patient, in corpus order."""
    lo, hi = day_range
    for note, pairs in zip(notes, segmented):
        record = patients.get(note.patient_id)
        if record is None:
            continue
        day = relative_day(note.date, record.pcr_date)
        if day < lo or day > hi:
            continue
        for text, fp in pairs:
            if fp not in templates:
                yield note.patient_id, day, text


def two_pass_curation(notes, patients, matcher, classifier, threshold=20,
                      day_range=(-14, 14), include_maybe=False):
    """(group_id, day) -> patient ids, the rejects as (note_id, reason)
    pairs, and the classification tasks, from the whole corpus in memory.

    ``threshold`` None keeps template sentences.
    """
    segmented = segment_notes(notes)
    templates = (set() if threshold is None
                 else template_fingerprints_oracle(notes, threshold, segmented))
    accepted = {AssertionLabel.YES, AssertionLabel.MAYBE} if include_maybe else {AssertionLabel.YES}
    presence, tasks = {}, []
    for patient_id, day, text in kept_sentences(notes, segmented, patients, templates, day_range):
        for mention in matcher.find_mentions(text):
            tasks.append((text, mention.start, mention.end))
            label, _confidence = classifier.classify(text, (mention.start, mention.end))
            if label in accepted:
                for group_id in mention.group_ids:
                    presence.setdefault((group_id, day), set()).add(patient_id)
    rejects = sorted(((note.note_id, f"unknown patient_id {note.patient_id!r}")
                      for note in notes if note.patient_id not in patients),
                     key=lambda r: r[0])
    return presence, rejects, tasks


def load_patients_oracle(source):
    """The roster read one csv row at a time: the earliest pcr_date per
    patient, the positive result on a tie.  A pcr_date is exactly
    YYYY-MM-DD; ``date.fromisoformat`` alone also takes 20200401 and
    2020-W14-3."""
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("patients file is empty") from None
    columns = ("patient_id", "pcr_date", "pcr_result")
    if tuple(h.strip() for h in header) != columns:
        raise InputError(
            f"patients header must be {','.join(columns)!r}, got {','.join(header)!r}"
        )
    aliases = {"pos": "positive", "neg": "negative"}
    records = {}
    start = reader.line_num + 1
    for row in reader:
        lineno, start = start, reader.line_num + 1  # the line the row starts on
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise InputError(f"patients line {lineno}: expected 3 fields, got {len(row)}")
        patient_id, raw_date, raw_result = (field.strip() for field in row)
        if not patient_id:
            raise InputError(f"patients line {lineno}: empty patient_id")
        try:
            if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", raw_date):
                raise ValueError(raw_date)
            pcr_date = date.fromisoformat(raw_date)
        except ValueError:
            raise InputError(
                f"patients line {lineno}: pcr_date {raw_date!r} is not YYYY-MM-DD"
            ) from None
        result = aliases.get(raw_result.lower())
        if result is None:
            raise InputError(
                f"patients line {lineno}: pcr_result must be pos or neg, got {raw_result!r}"
            )
        existing = records.get(patient_id)
        if (existing is None or pcr_date < existing.pcr_date
                or (pcr_date == existing.pcr_date and result == "positive")):
            records[patient_id] = PatientRecord(patient_id, pcr_date, result)
    return records


def gold_labels_oracle(source, what="gold"):
    """A ``sentence_id,mention_index,label`` CSV with every field stripped
    and the label upcased.  The file's structure is ``csv_rows``'s."""
    labels = {}
    for lineno, row in csv_rows(source, what, ("sentence_id", "mention_index", "label")):
        sentence_id, raw_index, raw_label = (field.strip() for field in row)
        try:
            mention_index = int(raw_index)
        except ValueError:
            raise InputError(f"{what} line {lineno}: mention_index must be an integer") from None
        try:
            label = AssertionLabel(raw_label.upper())
        except ValueError:
            raise InputError(f"{what} line {lineno}: label must be one of "
                             f"{[lab.value for lab in AssertionLabel]}") from None
        key = (sentence_id, mention_index)
        if key in labels:
            raise InputError(f"{what} line {lineno}: duplicate key {key}")
        labels[key] = label
    return labels


def evaluate_oracle(gold, predicted):
    """(accuracy, {label: (precision, recall, f1)}, tpr, fpr, fnr), each
    count taken in its own pass over the two label lists."""
    def div(num, den):
        return num / den if den else 0.0

    pairs = list(zip(gold, predicted))
    per_label = {}
    for lab in AssertionLabel:
        if any(g == lab for g in gold) or any(p == lab for p in predicted):
            tp = sum(1 for g, p in pairs if g == lab and p == lab)
            precision = div(tp, sum(1 for p in predicted if p == lab))
            recall = div(tp, sum(1 for g in gold if g == lab))
            per_label[lab] = (precision, recall, div(2 * precision * recall, precision + recall))
    yes = AssertionLabel.YES
    tp = sum(1 for g, p in pairs if g == yes and p == yes)
    fn = sum(1 for g, p in pairs if g == yes and p != yes)
    fp = sum(1 for g, p in pairs if g != yes and p == yes)
    tn = len(pairs) - tp - fn - fp
    accuracy = sum(1 for g, p in pairs if g == p) / len(pairs)
    return accuracy, per_label, div(tp, tp + fn), div(fp, fp + tn), div(fn, tp + fn)
