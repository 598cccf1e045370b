import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from batchlab import models
from batchlab.measures import complexity, gradient_noise, sharpness_lambda_max


RELATIVE_GAP = 1e-9  # far above the rounding of 1/S + ln N on these ranges


def matrix_oracle(a):
    return lambda v: a @ v


class TestGradientNoise:
    def test_two_scalar_gradients(self):
        assert gradient_noise(np.array([[1.0], [3.0]]), 2) == pytest.approx(1.0, abs=1e-15)

    def test_identical_gradients_zero(self):
        grads = np.tile(np.array([0.5, -1.0, 2.0]), (6, 1))
        assert gradient_noise(grads, 4) == 0.0

    def test_divisor_ratio_exact(self):
        # same gradients, halved divisor: the ratio is exactly 2
        rng = np.random.default_rng(3)
        grads = rng.standard_normal((50, 4))
        assert gradient_noise(grads, 4) / gradient_noise(grads, 8) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_non_finite_sample_rejected(self):
        grads = np.array([[1.0, 2.0], [np.inf, 0.0], [3.0, 1.0]])
        with pytest.raises(ValueError, match="^non-finite gradient samples$"):
            gradient_noise(grads, 2)

    def test_matches_covariance_trace_oracle(self):
        rng = np.random.default_rng(7)
        grads = rng.standard_normal((50, 4))
        cov = np.cov(grads.T, ddof=1)  # independent covariance computation
        expected = np.trace(cov) / 4 / 8
        assert gradient_noise(grads, 8) == pytest.approx(expected, rel=1e-12)

    def test_scaling_law_b_times_n_constant(self):
        rng = np.random.default_rng(11)
        grads = rng.standard_normal((30, 5))
        values = [b * gradient_noise(grads, b) for b in (1, 2, 4, 8, 16, 32)]
        assert max(values) - min(values) <= 1e-12 * max(values)

    def test_empirical_variance_law(self):
        # oracle: sample 1000 with-replacement mini-batch mean gradients at a
        # fixed parameter point and compare their variance with the prediction
        rng = np.random.default_rng(5)
        spec = models.ModelSpec("logistic", 4, 3)
        params = rng.standard_normal(models.param_count(spec)) * 0.3
        x, y = rng.standard_normal((200, 4)), rng.integers(0, 3, 200)
        grads = models.per_sample_gradients(spec, params, x, y)
        draws = 1000
        for b in (4, 8, 16):
            idx = rng.integers(0, 200, size=(draws, b))
            means = grads[idx].mean(axis=1)
            empirical = means.var(axis=0, ddof=1).mean()
            predicted = gradient_noise(grads, b)
            assert empirical == pytest.approx(predicted, rel=0.15)


class TestSharpness:
    def test_diagonal(self):
        lam, _ = sharpness_lambda_max(matrix_oracle(np.diag([3.0, 1.0])), 2)
        assert lam == pytest.approx(3.0, abs=1e-6)

    def test_symmetric_2x2(self):
        lam, _ = sharpness_lambda_max(matrix_oracle(np.array([[2.0, 1.0], [1.0, 2.0]])), 2)
        assert lam == pytest.approx(3.0, abs=1e-6)

    def test_random_symmetric_vs_dense_eigensolver(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            m = rng.standard_normal((5, 5))
            a = (m + m.T) / 2
            expected = np.linalg.eigvalsh(a)[-1]
            lam, _ = sharpness_lambda_max(matrix_oracle(a), 5)
            assert lam == pytest.approx(expected, rel=1e-8)

    def test_negative_definite_signed(self):
        lam, _ = sharpness_lambda_max(matrix_oracle(-np.diag([3.0, 1.0])), 2)
        assert lam == pytest.approx(-1.0, abs=1e-6)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 4))
        a = (m + m.T) / 2
        base, _ = sharpness_lambda_max(matrix_oracle(a), 4)
        for c in (0.1, 10.0):
            scaled, _ = sharpness_lambda_max(matrix_oracle(c * a), 4)
            assert scaled / c == pytest.approx(base, rel=1e-8)

    @pytest.mark.parametrize("diagonal", [[-3.0, 0.0, -1.0], [-3.0, 0.0]])
    def test_negative_semidefinite_is_zero_not_roundoff(self, diagonal):
        # the largest eigenvalue is 0: a roundoff of either sign (about 3e-16
        # here) must read as 0, since a positive one makes a complexity near 3e15
        lam, _ = sharpness_lambda_max(matrix_oracle(np.diag(diagonal)), len(diagonal))
        assert lam == 0.0
        with pytest.raises(ValueError, match="complexity domain: sharpness must be positive"):
            complexity(lam, 1.0)

    def test_zero_operator_raises(self):
        with pytest.raises(ValueError, match="zero vector"):
            sharpness_lambda_max(lambda v: np.zeros_like(v), 3)

    def test_non_finite_oracle_raises(self):
        with pytest.raises(ValueError, match="finite"):
            sharpness_lambda_max(lambda v: v * np.nan, 3)

    def test_breakdown_continues_orthogonal_to_the_basis(self):
        # the solver's start v0 spans an invariant subspace of
        # A = v0 v0^T + 5 u u^T, so the first Krylov block breaks down with
        # Ritz value 1; the fresh vector after it must still find 5
        dim = 6
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(dim)  # the solver's seeded start
        v0 /= np.linalg.norm(v0)
        u = np.random.default_rng(1).standard_normal(dim)
        u -= (u @ v0) * v0
        u /= np.linalg.norm(u)
        a = np.outer(v0, v0) + 5.0 * np.outer(u, u)
        lam, calls = sharpness_lambda_max(matrix_oracle(a), dim)
        assert lam == pytest.approx(5.0, rel=1e-12)
        assert calls <= dim


class TestComplexity:
    def test_unit_values(self):
        assert complexity(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_direct_formula(self):
        assert complexity(2.0, np.e) == pytest.approx(1.5, rel=1e-12)

    def test_calculator_value(self):
        assert complexity(0.5, 0.1) == pytest.approx(2.0 + np.log(0.1), rel=1e-12)
        assert complexity(0.5, 0.1) == pytest.approx(-0.3026, abs=5e-5)

    @pytest.mark.parametrize("s,n", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, s, n):
        with pytest.raises(ValueError, match="^complexity domain: "):
            complexity(s, n)

    # complexity is a float sum, so inputs one ulp apart can map to the same
    # value: order is non-strict everywhere and strict only when the inputs
    # differ by more than rounding.
    @given(
        s1=st.floats(0.01, 100.0),
        s2=st.floats(0.01, 100.0),
        n=st.floats(0.01, 100.0),
    )
    @example(s1=100.0, s2=np.nextafter(100.0, 200.0), n=2.0)
    def test_strictly_decreasing_in_sharpness(self, s1, s2, n):
        lo, hi = sorted((s1, s2))
        assert complexity(lo, n) >= complexity(hi, n)
        if hi - lo > RELATIVE_GAP * hi:
            assert complexity(lo, n) > complexity(hi, n)

    @given(
        n1=st.floats(0.01, 100.0),
        n2=st.floats(0.01, 100.0),
        s=st.floats(0.01, 100.0),
    )
    @example(n1=0.010000000000000002, n2=0.01, s=1.0)
    def test_strictly_increasing_in_noise(self, n1, n2, s):
        lo, hi = sorted((n1, n2))
        assert complexity(s, lo) <= complexity(s, hi)
        if hi - lo > RELATIVE_GAP * hi:
            assert complexity(s, lo) < complexity(s, hi)
