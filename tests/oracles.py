"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's algorithmic machinery: the
matcher oracle scans token windows directly, the classifier oracle builds
the cue windows of every mention without shortcuts, the Fisher oracle sums
exact integer binomial coefficients, the BH oracle applies the step-up
definition by quadratic scan, and the tail oracle delegates to mpmath
at high precision.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath

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
    tokens starting at or after it, each side cut at the first scope
    breaker, then look for every cue at every offset of each side."""
    start, end = span
    tokens = [(m.group().lower(), m.start(), m.end())
              for m in _CUE_TOKEN_RE.finditer(sentence)]
    before = []
    for text, _t_start, t_end in reversed(tokens):
        if t_end > start:
            continue
        if text in config.scope_breakers:
            break
        before.append(text)
        if len(before) >= config.window_before:
            break
    before.reverse()
    after = []
    for text, t_start, _t_end in tokens:
        if t_start < end:
            continue
        if text in config.scope_breakers:
            break
        after.append(text)
        if len(after) >= config.window_after:
            break
    for label, cues in (("OTHER", config.attribution_cues),
                        ("NO", config.negation_cues),
                        ("MAYBE", config.uncertainty_cues)):
        for side in (before, after):
            for cue in cues:
                for i in range(len(side) - len(cue) + 1):
                    if tuple(side[i:i + len(cue)]) == cue:
                        return label
    return "YES"


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
