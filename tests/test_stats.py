import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from batchlab.stats import summarize, welch_t_test, wilcoxon_signed_rank


def t_density(x, df):
    # reference density written from the definition (gamma form)
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


def exact_wilcoxon_oracle(diffs):
    # literal enumeration of all 2^n sign assignments
    diffs = np.asarray(diffs, dtype=float)
    diffs = diffs[diffs != 0]
    mags = np.abs(diffs)
    order = np.argsort(mags, kind="stable")
    ranks = np.empty(len(diffs))
    sorted_mags = mags[order]
    i = 0
    while i < len(diffs):
        j = i
        while j + 1 < len(diffs) and sorted_mags[j + 1] == sorted_mags[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    w_obs = ranks[diffs > 0].sum()
    ws = [
        sum(r for r, s in zip(ranks, signs) if s)
        for signs in itertools.product([False, True], repeat=len(diffs))
    ]
    ws = np.asarray(ws)
    p_low = (ws <= w_obs).mean()
    p_high = (ws >= w_obs).mean()
    return w_obs, min(1.0, 2 * min(p_low, p_high))


class TestSummarize:
    def test_single_value_std_undefined(self):
        s = summarize([83.9])
        assert s.mean == 83.9 and s.std is None and s.n == 1

    def test_two_values(self):
        s = summarize([1.0, 3.0])
        assert s.mean == 2.0
        assert s.std == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        xs = rng.random(100)
        mean = sum(xs) / 100
        var = sum((x - mean) ** 2 for x in xs) / 99
        s = summarize(xs)
        assert s.mean == pytest.approx(mean, abs=1e-12)
        assert s.std == pytest.approx(math.sqrt(var), abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])


class TestWelch:
    def test_identical_samples(self):
        r = welch_t_test([1, 2, 3], [1, 2, 3])
        assert r.t == 0.0 and r.p == pytest.approx(1.0)

    def test_known_statistic(self):
        r = welch_t_test([2, 4, 6], [1, 2, 3])
        assert r.t == pytest.approx(2 / math.sqrt(5 / 3), abs=1e-12)
        assert r.t == pytest.approx(1.549, abs=1e-3)
        # Welch-Satterthwaite df for these variances
        assert r.df == pytest.approx((5 / 3) ** 2 / (((4 / 3) ** 2 + (1 / 3) ** 2) / 2), rel=1e-12)

    def test_p_matches_quadrature_oracle(self):
        r = welch_t_test([2, 4, 6], [1, 2, 3])
        tail, _ = quad(t_density, abs(r.t), np.inf, args=(r.df,))
        assert r.p == pytest.approx(2 * tail, abs=1e-6)

    def test_symmetry(self):
        a, b = [2.0, 4.1, 6.2, 5.0], [1.0, 2.2, 3.1]
        r1 = welch_t_test(a, b)
        r2 = welch_t_test(b, a)
        assert r1.t == pytest.approx(-r2.t, rel=1e-12)
        assert r1.p == pytest.approx(r2.p, rel=1e-12)

    def test_degenerate_zero_variance(self):
        r = welch_t_test([2, 2, 2], [1, 1, 1])
        assert r.t == math.inf and r.p == 0.0
        r = welch_t_test([1, 1, 1], [2, 2, 2])
        assert r.t == -math.inf and r.p == 0.0
        r = welch_t_test([2, 2, 2], [2, 2, 2])
        assert r.t == 0.0 and r.p == 1.0

    def test_too_small(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])


class TestWilcoxon:
    def test_all_zero_diffs_degenerate(self):
        # no nonzero difference: no evidence against the null
        r = wilcoxon_signed_rank([0.0, 0.0])
        assert (r.w, r.p, r.method, r.n) == (0.0, 1.0, "degenerate", 0)

    def test_three_positive_diffs(self):
        r = wilcoxon_signed_rank([1.0, 2.0, 3.0])
        assert r.w == 6.0
        assert r.p == pytest.approx(0.25, abs=1e-15)
        assert r.method == "exact"

    def test_matches_enumeration_oracle(self):
        diffs = [1.0, -2.0, 3.0, -4.0, 5.0]
        w_oracle, p_oracle = exact_wilcoxon_oracle(diffs)
        r = wilcoxon_signed_rank(diffs)
        assert r.w == w_oracle
        assert r.p == pytest.approx(p_oracle, abs=1e-12)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            diffs = rng.standard_normal(rng.integers(2, 9))
            w_oracle, p_oracle = exact_wilcoxon_oracle(diffs)
            r = wilcoxon_signed_rank(diffs)
            assert r.w == pytest.approx(w_oracle)
            assert r.p == pytest.approx(p_oracle, abs=1e-12)

    def test_with_ties_matches_oracle(self):
        diffs = [1.0, -1.0, 2.0, 2.0, -3.0]
        _, p_oracle = exact_wilcoxon_oracle(diffs)
        assert wilcoxon_signed_rank(diffs).p == pytest.approx(p_oracle, abs=1e-12)

    def test_negation_symmetry(self):
        diffs = [1.0, -2.0, 3.5, 0.7, -0.2]
        assert wilcoxon_signed_rank(diffs).p == pytest.approx(
            wilcoxon_signed_rank([-d for d in diffs]).p, abs=1e-15
        )

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False).filter(lambda x: x != 0),
            min_size=1,
            max_size=10,
            unique_by=abs,
        )
    )
    def test_exact_p_is_multiple_of_two_to_minus_n(self, diffs):
        r = wilcoxon_signed_rank(diffs)
        scaled = r.p * 2 ** len(diffs)
        assert scaled == pytest.approx(round(scaled), abs=1e-9)

    def test_zero_diffs_dropped(self):
        r1 = wilcoxon_signed_rank([1.0, 2.0, 3.0, 0.0, 0.0])
        r2 = wilcoxon_signed_rank([1.0, 2.0, 3.0])
        assert r1.w == r2.w and r1.p == r2.p and r1.n == 3

    def test_large_n_uses_normal_approximation(self):
        rng = np.random.default_rng(4)
        diffs = rng.standard_normal(25)
        r = wilcoxon_signed_rank(diffs)
        assert r.method == "normal"
        assert 0.0 <= r.p <= 1.0

    def test_normal_approx_close_to_exact_at_boundary(self):
        # compare the two methods on 20 vs 21 values drawn the same way
        rng = np.random.default_rng(6)
        base = rng.standard_normal(21)
        exact = wilcoxon_signed_rank(base[:20])
        approx = wilcoxon_signed_rank(base)
        assert exact.method == "exact" and approx.method == "normal"
        # not equal, but same order of magnitude for a null-like sample
        assert abs(exact.p - approx.p) < 0.2
