"""Statistical battery: proportions, exact tests, multiplicity correction.

Every p-value is carried in log10 space, from the test to the printed
cell, so that extreme tails (z around 30 gives p near 1e-187; a Fisher
table at ten times the paper's arms, p near 1e-442) survive without
underflow.  Beyond the reach of math.erfc the z-test tail is evaluated
with the asymptotic continued expansion of erfc.  Fisher exact p-values
are two-sided by the probability-mass convention: every table with the
same margins whose probability does not exceed the observed one (with a
tiny relative slack for floating-point ties) contributes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError

_LN10 = math.log(10.0)
_SQRT2 = math.sqrt(2.0)
_LOG_SLACK = math.log1p(1e-7)  # tie tolerance for the two-sided Fisher sum
_ASYMPTOTIC_Z = 8.0

RATIO_UNDEFINED = "-"  # printed when the reference proportion is zero


def log10_erfc(x: float) -> float:
    """log10(erfc(x)) for x >= 0, stable far into the tail."""
    if x < _ASYMPTOTIC_Z / _SQRT2:
        return math.log10(math.erfc(x))
    # erfc(x) ~ exp(-x^2) / (x sqrt(pi)) * sum_n (-1)^n (2n-1)!! / (2x^2)^n.
    # The series is asymptotic: truncate just before the terms stop
    # shrinking; the error is bounded by the first omitted term.
    inv = 1.0 / (2.0 * x * x)
    term = 1.0
    total = 1.0
    n = 0
    while True:
        n += 1
        next_term = -term * (2 * n - 1) * inv
        if abs(next_term) >= abs(term):
            break
        term = next_term
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    ln_erfc = -x * x - math.log(x * math.sqrt(math.pi)) + math.log(total)
    return ln_erfc / _LN10


def two_tailed_log10_p(z: float) -> float:
    """log10 of the two-tailed normal p-value for statistic z."""
    return log10_erfc(abs(z) / _SQRT2)


@dataclass(frozen=True)
class ProportionTest:
    p1: float
    p2: float
    ratio: float | None  # None when p2 == 0 (fold change undefined)
    z: float
    log10_p: float


def _check_cohort_sizes(n1: int, n2: int) -> None:
    """Every test compares two arms, and neither may be empty."""
    if n1 <= 0 or n2 <= 0:
        raise InputError("cohort sizes must be positive")


def proportion_test(k1: int, n1: int, k2: int, n2: int) -> ProportionTest:
    """Pooled two-proportion z-test, two-tailed, no continuity correction."""
    _check_cohort_sizes(n1, n2)
    if not (0 <= k1 <= n1 and 0 <= k2 <= n2):
        raise InputError(f"counts out of range: {k1}/{n1}, {k2}/{n2}")
    p1, p2 = k1 / n1, k2 / n2
    ratio = (p1 / p2) if p2 > 0 else None
    pooled = (k1 + k2) / (n1 + n2)
    if pooled == 0.0 or pooled == 1.0:
        return ProportionTest(p1, p2, ratio, 0.0, 0.0)
    se = math.sqrt(pooled * (1.0 - pooled) * (1 / n1 + 1 / n2))  # int / int: any size
    z = (p1 - p2) / se
    log10_p = two_tailed_log10_p(z) if z != 0.0 else 0.0
    return ProportionTest(p1, p2, ratio, z, log10_p)


# ---------------------------------------------------------------------------
# Fisher exact test

# The exact test sums terms over the support, which grows with the total.
_FISHER_MAX_N = 10_000_000

# log n! is tabulated for n below _LOGFACT_CAP, so the table stays within
# about 2 MB; a larger total takes math.lgamma(n + 1) per term, the value
# the table would hold.
_LOGFACT_CAP = 1 << 16
_logfact: list[float] = [0.0]


class _LogFactorials:
    """log n! computed per call, indexable like ``_logfact``."""

    def __getitem__(self, n: int) -> float:
        return math.lgamma(n + 1)


_LGAMMA = _LogFactorials()


def fisher_exact_two_sided(a: int, b: int, c: int, d: int) -> float:
    """log10 of the two-sided Fisher exact p for the 2x2 table [[a, b], [c, d]]."""
    if min(a, b, c, d) < 0:
        raise InputError("contingency table entries must be non-negative")
    n = a + b + c + d
    if n == 0:
        raise InputError("contingency table is all zero")
    if n > _FISHER_MAX_N:
        raise InputError(f"contingency table total {n} exceeds {_FISHER_MAX_N}")
    r1, r2, c1 = a + b, c + d, a + c
    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    if lo == hi:
        return 0.0
    if n < _LOGFACT_CAP:
        lf = _logfact
        lf.extend(math.lgamma(k + 1) for k in range(len(lf), n + 1))
    else:
        lf = _LGAMMA
    const = lf[r1] + lf[r2] + lf[c1] + lf[n - c1] - lf[n]

    def log_p(x: int) -> float:
        return const - (lf[x] + lf[r1 - x] + lf[c1 - x] + lf[r2 - c1 + x])

    cutoff = log_p(a) + _LOG_SLACK
    # The log-probabilities rise up to the mode and fall after it, so the
    # selected tables form a left tail [lo, left] and a right tail
    # [right, hi], each found by bisection.  Splitting the support at the
    # mode keeps the two tails disjoint when all of it is selected.
    mode = min(max((r1 + 1) * (c1 + 1) // (n + 2), lo), hi)
    below, above = lo, mode + 1  # the first x in [lo, mode] above the cutoff
    while below < above:
        mid = (below + above) // 2
        if log_p(mid) <= cutoff:
            below = mid + 1
        else:
            above = mid
    left = below - 1
    below, above = mode + 1, hi + 1  # the first x in [mode + 1, hi] at or below it
    while below < above:
        mid = (below + above) // 2
        if log_p(mid) <= cutoff:
            above = mid
        else:
            below = mid + 1
    right = below
    if right == left + 1:  # every table is selected: p is 1, not the sum's rounding
        return 0.0

    top = max(log_p(x) for x in (left, right) if lo <= x <= hi)
    # Outward from each boundary the terms only shrink.  math.fsum is
    # exact, so stopping where exp underflows to 0.0 gives the sum over
    # the whole support.  The largest term is taken from the walked ones,
    # as two tables of tied probability may differ in the last bit.
    selected: list[float] = []
    for x, stop, step in ((left, lo - 1, -1), (right, hi + 1, 1)):
        while x != stop:
            lp = log_p(x)
            if math.exp(lp - top) == 0.0:
                break
            selected.append(lp)
            x += step
    m = max(selected)
    total = math.fsum(math.exp(lp - m) for lp in selected)
    return min(0.0, (m + math.log(total)) / _LN10)


# ---------------------------------------------------------------------------
# Benjamini-Hochberg step-up adjustment


def bh_adjust(log10_ps: Sequence[float], m: int | None = None) -> list[float]:
    """Step-up FDR adjustment of log10 p-values; returns the adjusted
    log10 values in input order.

    ``m`` is the total number of hypotheses; it defaults to the number
    of p-values supplied and may be larger when only a subset of the
    tested family is being adjusted.
    """
    count = len(log10_ps)
    if count == 0:
        return []
    if m is None:
        m = count
    if m < count:
        raise InputError(f"m={m} is smaller than the number of p-values ({count})")
    for lp in log10_ps:
        if not -math.inf < lp <= 0.0:
            raise InputError(f"log10 p-value {lp!r} outside (-inf, 0]")
    order = sorted(range(count), key=log10_ps.__getitem__)
    log_m = math.log10(m)
    adjusted = [0.0] * count
    running = 0.0
    for rank in range(count, 0, -1):
        idx = order[rank - 1]
        running = min(running, log_m + log10_ps[idx] - math.log10(rank))
        # In real arithmetic min_{j>=rank} m*p(j)/j >= p(rank); the clamp
        # undoes the one-ulp float shortfall when m == rank.
        adjusted[idx] = max(running, log10_ps[idx])
    return adjusted


# ---------------------------------------------------------------------------
# Table assembly over per-group counts


@dataclass(frozen=True)
class EnrichmentRow:
    group_id: str
    k_pos: int
    k_neg: int
    n_pos: int
    n_neg: int
    p_pos: float
    p_neg: float
    ratio: float | None
    z: float
    log10_p: float


@dataclass(frozen=True)
class DailyRow:
    group_id: str
    day: int
    k_pos: int
    k_neg: int
    pct_pos: float
    pct_neg: float
    ratio: float | None
    log10_p: float


@dataclass(frozen=True)
class PairRow:
    group_a: str
    group_b: str
    k_pos: int
    k_neg: int
    n_pos: int
    n_neg: int
    pct_pos: float
    pct_neg: float
    ratio: float | None
    log10_p_raw: float
    log10_p_adjusted: float


def _ratio_sort_key(row: EnrichmentRow) -> tuple[float, str]:
    if row.ratio is None:
        # Undefined fold change (reference arm empty): above everything
        # when the study arm has signal, below when both arms are empty.
        value = math.inf if row.k_pos > 0 else -1.0
    else:
        value = row.ratio
    return (-value, row.group_id)


def enrichment_rows(
    counts: Iterable[tuple[str, int, int]], n_pos: int, n_neg: int
) -> list[EnrichmentRow]:
    """One row per group from (group_id, k_pos, k_neg) window counts.

    Rows come back sorted by descending fold change.
    """
    rows = []
    for group_id, k_pos, k_neg in counts:
        test = proportion_test(k_pos, n_pos, k_neg, n_neg)
        rows.append(
            EnrichmentRow(
                group_id=group_id,
                k_pos=k_pos,
                k_neg=k_neg,
                n_pos=n_pos,
                n_neg=n_neg,
                p_pos=test.p1,
                p_neg=test.p2,
                ratio=test.ratio,
                z=test.z,
                log10_p=test.log10_p,
            )
        )
    rows.sort(key=_ratio_sort_key)
    return rows


def daily_rows(
    counts: Iterable[tuple[str, int, int, int]], n_pos: int, n_neg: int
) -> list[DailyRow]:
    """Per-day rows from (group_id, day, k_pos, k_neg) counts."""
    rows = []
    for group_id, day, k_pos, k_neg in counts:
        test = proportion_test(k_pos, n_pos, k_neg, n_neg)
        rows.append(
            DailyRow(
                group_id=group_id,
                day=day,
                k_pos=k_pos,
                k_neg=k_neg,
                pct_pos=test.p1 * 100.0,
                pct_neg=test.p2 * 100.0,
                ratio=test.ratio,
                log10_p=test.log10_p,
            )
        )
    rows.sort(key=lambda r: (r.group_id, r.day))
    return rows


def pair_rows(
    counts: Iterable[tuple[str, str, int, int]],
    n_pos: int,
    n_neg: int,
    m_tests: int | None = None,
) -> list[PairRow]:
    """Fisher-tested pair rows with BH adjustment across all pairs.

    ``counts`` holds (group_a, group_b, k_pos, k_neg) where the k are
    patients exhibiting both phenotypes.  Each pair's two labels are put
    in order, group_a < group_b.  Both p columns hold log10 values; rows
    come back sorted by raw p, then by those labels.
    """
    _check_cohort_sizes(n_pos, n_neg)
    prepared: list[tuple[str, str, int, int]] = []
    for group_a, group_b, k_pos, k_neg in counts:
        if group_b < group_a:
            group_a, group_b = group_b, group_a
        prepared.append((group_a, group_b, k_pos, k_neg))

    raw: list[float] = []
    for _a, _b, k_pos, k_neg in prepared:
        if k_pos == 0 and k_neg == 0:
            raw.append(0.0)  # degenerate pair: no signal in either arm
        else:
            raw.append(
                fisher_exact_two_sided(k_pos, n_pos - k_pos, k_neg, n_neg - k_neg)
            )
    adjusted = bh_adjust(raw, m=m_tests) if raw else []

    rows = []
    for (group_a, group_b, k_pos, k_neg), lp_raw, lp_adj in zip(prepared, raw, adjusted):
        p_pos, p_neg = k_pos / n_pos, k_neg / n_neg
        rows.append(
            PairRow(
                group_a=group_a,
                group_b=group_b,
                k_pos=k_pos,
                k_neg=k_neg,
                n_pos=n_pos,
                n_neg=n_neg,
                pct_pos=p_pos * 100.0,
                pct_neg=p_neg * 100.0,
                ratio=(p_pos / p_neg) if p_neg > 0 else None,
                log10_p_raw=lp_raw,
                log10_p_adjusted=lp_adj,
            )
        )
    rows.sort(key=lambda r: (r.log10_p_raw, r.group_a, r.group_b))
    return rows


# ---------------------------------------------------------------------------
# Number rendering shared by every exported table


def format_p(log10_p: float) -> str:
    """Scientific notation with two mantissa decimals, e.g. 2.95E-187."""
    if log10_p >= 0.0:
        return "1.00E+00"
    exponent = math.floor(log10_p)
    mantissa = 10.0 ** (log10_p - exponent)
    if round(mantissa, 2) >= 10.0:
        mantissa /= 10.0
        exponent += 1
    return f"{mantissa:.2f}E{exponent:+03d}"


def format_ratio(ratio: float | None) -> str:
    return RATIO_UNDEFINED if ratio is None else f"{ratio:.2f}"


def format_fraction(value: float) -> str:
    return f"{value:.2f}"
