import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenotrail import stats
from phenotrail.errors import InputError
from phenotrail.stats import (
    bh_adjust,
    daily_rows,
    enrichment_rows,
    fisher_exact_two_sided,
    format_fraction,
    format_p,
    format_ratio,
    pair_rows,
    proportion_test,
    two_tailed_log10_p,
)

from oracles import (
    bh_oracle,
    fisher_full_support,
    fisher_log10_oracle,
    fisher_oracle,
    format_p_oracle,
    log10_two_tailed_oracle,
)

N_POS, N_NEG = 635, 29859
LN10 = math.log(10.0)  # a relative error e in p is an absolute e / LN10 in log10 p


class TestProportionTest:
    def test_reference_row_extreme_tail(self):
        # 43/635 vs 54/29859: fold change 37.44, z ~ 29.19, p ~ 2.95E-187
        result = proportion_test(43, N_POS, 54, N_NEG)
        assert result.ratio == pytest.approx(37.44, abs=0.01)
        assert result.z == pytest.approx(29.19, abs=0.01)
        assert format_p(result.log10_p) == "2.95E-187"

    def test_reference_row_moderate(self):
        result = proportion_test(105, N_POS, 1906, N_NEG)
        assert result.ratio == pytest.approx(2.59, abs=0.01)
        assert abs(result.log10_p - math.log10(1.99e-24)) < math.log10(2)

    def test_identical_proportions(self):
        result = proportion_test(5, 10, 5, 10)
        assert result.ratio == 1.0
        assert result.z == 0.0
        assert result.log10_p == 0.0

    def test_degenerate_all_zero(self):
        result = proportion_test(0, 10, 0, 20)
        assert result.ratio is None
        assert result.z == 0.0
        assert result.log10_p == 0.0

    def test_degenerate_all_one(self):
        result = proportion_test(10, 10, 20, 20)
        assert result.z == 0.0
        assert result.log10_p == 0.0

    def test_errors(self):
        with pytest.raises(InputError):
            proportion_test(1, 0, 1, 5)
        with pytest.raises(InputError):
            proportion_test(6, 5, 1, 5)

    @given(st.integers(0, 200), st.integers(1, 200),
           st.integers(0, 200), st.integers(1, 200))
    @settings(max_examples=300)
    def test_swap_negates_z_preserves_p(self, k1, n1, k2, n2):
        k1, k2 = min(k1, n1), min(k2, n2)
        a = proportion_test(k1, n1, k2, n2)
        b = proportion_test(k2, n2, k1, n1)
        assert a.z == pytest.approx(-b.z, abs=1e-12)
        assert a.log10_p == pytest.approx(b.log10_p, abs=1e-9)


class TestTailPrecision:
    @pytest.mark.parametrize("z", [0.5, 1, 2, 5, 7.99, 8.01, 10, 20, 29.19, 35])
    def test_log10_against_mpmath(self, z):
        got = two_tailed_log10_p(z)
        ref = log10_two_tailed_oracle(z)
        assert got == pytest.approx(ref, rel=1e-9)

    def test_no_underflow_deep_tail(self):
        log10_p = two_tailed_log10_p(35.0)
        assert math.isfinite(log10_p)
        assert log10_p < -250
        assert format_p(log10_p).endswith("E-268")


class TestFisher:
    def test_balanced_table(self):
        assert abs(fisher_exact_two_sided(1, 1, 1, 1)) <= 1e-12 / LN10

    def test_reference_pair(self):
        log10_p = fisher_exact_two_sided(79, 556, 1175, 28684)
        assert abs(log10_p - math.log10(1.89e-18)) < math.log10(2)

    def test_enumeration_example(self):
        got = fisher_exact_two_sided(3, 7, 5, 5)
        assert abs(got - math.log10(fisher_oracle(3, 7, 5, 5))) <= 1e-12 / LN10

    def test_errors(self):
        with pytest.raises(InputError):
            fisher_exact_two_sided(0, 0, 0, 0)
        with pytest.raises(InputError):
            fisher_exact_two_sided(-1, 2, 3, 4)

    def test_table_total_limit(self):
        with pytest.raises(InputError, match="exceeds 10000000"):
            fisher_exact_two_sided(1, 10**7, 1, 1)

    def test_degenerate_margin(self):
        assert fisher_exact_two_sided(0, 0, 5, 5) == 0.0
        assert fisher_exact_two_sided(3, 0, 2, 0) == 0.0

    @given(st.integers(0, 25), st.integers(0, 25),
           st.integers(0, 25), st.integers(0, 25))
    @settings(max_examples=400)
    def test_oracle_agreement_random_tables(self, a, b, c, d):
        if a + b + c + d == 0:
            return
        got = fisher_exact_two_sided(a, b, c, d)
        assert abs(got - math.log10(fisher_oracle(a, b, c, d))) <= 1e-10 / LN10

    def test_tail_walk_equals_full_support_sum_on_every_small_table(self):
        mismatches = [
            (a, b, c, d)
            for a in range(25) for b in range(25) for c in range(25) for d in range(12)
            if a + b + c + d
            and fisher_exact_two_sided(a, b, c, d) != fisher_full_support(a, b, c, d)
        ]
        assert mismatches == []

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_tail_walk_equals_full_support_sum_up_to_60k(self, data):
        n = data.draw(st.integers(1, 60_000))
        r1 = data.draw(st.integers(0, n))
        c1 = data.draw(st.integers(0, n))
        a = data.draw(st.integers(max(0, c1 - (n - r1)), min(r1, c1)))
        table = (a, r1 - a, c1 - a, n - r1 - c1 + a)
        assert fisher_exact_two_sided(*table) == fisher_full_support(*table)

    def test_log_factorial_table_stays_within_its_cap(self):
        table = (1, 2_000_000, 1, 1)
        log10_p = fisher_exact_two_sided(*table)
        assert len(stats._logfact) <= stats._LOGFACT_CAP
        assert -math.inf < log10_p <= 0.0

    @pytest.mark.parametrize("n", [stats._LOGFACT_CAP - 1, stats._LOGFACT_CAP,
                                   stats._LOGFACT_CAP + 1, stats._LOGFACT_CAP + 40_000])
    def test_full_support_equality_on_both_sides_of_the_cap(self, n):
        rng = random.Random(n)
        for _ in range(20):
            r1, c1 = rng.randint(0, n), rng.randint(0, n)
            a = rng.randint(max(0, c1 - (n - r1)), min(r1, c1))
            table = (a, r1 - a, c1 - a, n - r1 - c1 + a)
            assert fisher_exact_two_sided(*table) == fisher_full_support(*table)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_lgamma_terms_equal_the_table(self, data):
        # With a cap of 150, small tables take either side of it.
        n = data.draw(st.integers(1, 300))
        r1 = data.draw(st.integers(0, n))
        c1 = data.draw(st.integers(0, n))
        a = data.draw(st.integers(max(0, c1 - (n - r1)), min(r1, c1)))
        table = (a, r1 - a, c1 - a, n - r1 - c1 + a)
        cap, stats._LOGFACT_CAP = stats._LOGFACT_CAP, 150
        try:
            assert fisher_exact_two_sided(*table) == fisher_full_support(*table)
        finally:
            stats._LOGFACT_CAP = cap

    def test_symmetries(self):
        rng = random.Random(5)
        for _ in range(50):
            a, b, c, d = (rng.randint(0, 30) for _ in range(4))
            if a + b + c + d == 0:
                continue
            log10_p = fisher_exact_two_sided(a, b, c, d)
            assert abs(fisher_exact_two_sided(c, d, a, b) - log10_p) <= 1e-9 / LN10
            assert abs(fisher_exact_two_sided(b, a, d, c) - log10_p) <= 1e-9 / LN10
            assert -math.inf < log10_p <= 0.0


def log10s(ps):
    return [math.log10(p) for p in ps]


class TestBH:
    def test_single(self):
        assert bh_adjust(log10s([0.04])) == log10s([0.04])

    def test_step_up_with_monotonicity(self):
        got = bh_adjust(log10s([0.01, 0.02, 0.04]), m=3)
        assert got == pytest.approx(log10s([0.03, 0.03, 0.04]), rel=0.0, abs=1e-12)

    def test_family_larger_than_batch(self):
        (adjusted,) = bh_adjust(log10s([9.22e-46]), m=277)
        assert abs(adjusted - math.log10(9.22e-46 * 277)) <= 1e-12 / LN10

    def test_below_the_double_range(self):
        (adjusted,) = bh_adjust([-441.5], m=100)
        assert adjusted == -439.5

    def test_errors(self):
        with pytest.raises(InputError, match="smaller than"):
            bh_adjust(log10s([0.5, 0.2]), m=1)
        for log10_p in (0.5, 1e-300, math.inf, -math.inf, math.nan):
            with pytest.raises(InputError, match="outside"):
                bh_adjust([-1.0, log10_p])

    def test_empty(self):
        assert bh_adjust([]) == []

    @given(st.lists(st.floats(-30.0, 0.0), min_size=1, max_size=40),
           st.integers(0, 50))
    @settings(max_examples=300)
    def test_oracle_agreement(self, lps, extra):
        m = len(lps) + extra
        got = bh_adjust(lps, m=m)
        expected = bh_oracle(lps, m=m)
        assert got == expected
        # adjusted >= raw, all within (-inf, 0]
        for raw, adj in zip(lps, got):
            assert 10.0 ** adj >= min(10.0 ** raw * m / len(lps), 1.0) - 1e-15
            assert raw <= adj <= 0.0
        # monotone when ordered by raw p
        order = sorted(range(len(lps)), key=lambda i: lps[i])
        seq = [got[i] for i in order]
        assert seq == sorted(seq)

    def test_ties_share_adjusted_value(self):
        got = bh_adjust(log10s([0.02, 0.02, 0.5]))
        assert got[0] == got[1]


# (k_pos, n_pos, k_neg, n_neg, printed raw p), each p below the double
# range: the paper's top pair at ten times its arms, a pair shaped like a
# 1M-note corpus, both with totals past the log-factorial table, and a pair
# at the paper's own arms whose p is subnormal.
BELOW_DOUBLE_RANGE = [
    (380, 6_350, 310, 298_590, "1.32E-442"),
    (1_077, 18_000, 874, 842_000, "8.37E-1250"),
    (206, 635, 33, 29_859, "8.90E-323"),
]


class TestBelowDoubleRange:
    @pytest.mark.parametrize("k_pos, n_pos, k_neg, n_neg, printed", BELOW_DOUBLE_RANGE)
    def test_pair_rows_match_the_exact_sum(self, k_pos, n_pos, k_neg, n_neg, printed):
        (row,) = pair_rows([("a", "b", k_pos, k_neg)], n_pos, n_neg, m_tests=277)
        with mpmath.workdps(40):
            exact = fisher_log10_oracle(k_pos, n_pos - k_pos, k_neg, n_neg - k_neg)
            adjusted = exact + mpmath.log10(277)
        assert abs(row.log10_p_raw - float(exact)) <= 1e-9
        assert format_p(row.log10_p_raw) == format_p_oracle(exact) == printed
        assert abs(row.log10_p_adjusted - float(adjusted)) <= 1e-9
        assert format_p(row.log10_p_adjusted) == format_p_oracle(adjusted)


class TestRowAssembly:
    def test_enrichment_sorted_by_ratio(self):
        rows = enrichment_rows(
            [("a", 10, 100), ("b", 20, 100), ("c", 0, 100)], 100, 1000
        )
        assert [r.group_id for r in rows] == ["b", "a", "c"]
        assert rows[0].ratio == pytest.approx(2.0)

    def test_enrichment_empty_counts(self):
        rows = enrichment_rows([("a", 0, 0)], 10, 10)
        assert rows[0].ratio is None
        assert rows[0].log10_p == 0.0

    def test_enrichment_undefined_ratio_sorts_first(self):
        rows = enrichment_rows([("a", 5, 0), ("b", 9, 1)], 10, 10)
        assert [r.group_id for r in rows] == ["a", "b"]

    def test_single_group(self):
        assert len(enrichment_rows([("solo", 1, 1)], 5, 5)) == 1

    def test_daily_rows_percentages(self):
        rows = daily_rows([("cough", -7, 18, 215)], N_POS, N_NEG)
        row = rows[0]
        assert row.pct_pos == pytest.approx(2.83, abs=0.01)
        assert row.pct_neg == pytest.approx(0.72, abs=0.01)
        assert row.ratio == pytest.approx(3.94, abs=0.01)
        assert abs(row.log10_p - math.log10(1.40e-9)) < math.log10(3)

    def test_daily_zero_positive(self):
        row = daily_rows([("dysuria", -7, 0, 13)], N_POS, N_NEG)[0]
        assert row.ratio == 0.0

    def test_daily_all_zero(self):
        row = daily_rows([("x", -3, 0, 0)], 10, 10)[0]
        assert row.ratio is None
        assert row.log10_p == 0.0

    def test_pair_rows_reference(self):
        rows = pair_rows([("cough", "diarrhea", 79, 1175)], N_POS, N_NEG)
        row = rows[0]
        assert row.pct_pos == pytest.approx(12.44, abs=0.01)
        assert row.pct_neg == pytest.approx(3.94, abs=0.01)
        assert row.ratio == pytest.approx(3.16, abs=0.01)
        assert abs(row.log10_p_raw - math.log10(1.89e-18)) < math.log10(2)

    def test_pair_rows_canonical_order_and_count(self):
        rows = pair_rows(
            [("b", "a", 1, 1), ("c", "a", 2, 2), ("c", "b", 0, 0)], 10, 10
        )
        assert len(rows) == 3
        assert all(r.group_a < r.group_b for r in rows)
        degenerate = next(r for r in rows if (r.group_a, r.group_b) == ("b", "c"))
        assert degenerate.log10_p_raw == 0.0

    def test_pair_rows_bh_family_override(self):
        rows = pair_rows([("a", "b", 9, 1), ("a", "c", 5, 5)], 10, 10, m_tests=50)
        for row in rows:
            assert row.log10_p_adjusted >= row.log10_p_raw


class TestFormatting:
    def test_p_formatting(self):
        assert format_p(math.log10(2.95e-187)) == "2.95E-187"
        assert format_p(math.log10(1.40e-9)) == "1.40E-09"
        assert format_p(0.0) == "1.00E+00"
        assert format_p(math.log10(0.9637)) == "9.64E-01"

    def test_p_mantissa_rounding_carries(self):
        assert format_p(math.log10(9.999e-10)) == "1.00E-09"

    def test_ratio_and_fraction(self):
        assert format_ratio(37.4435) == "37.44"
        assert format_ratio(None) == "-"
        assert format_fraction(0.0719) == "0.07"
