import dataclasses

import numpy as np
import pytest

from batchlab import data, models, training
from batchlab.models import ModelSpec


def softmax_oracle(z):
    # independent reference softmax for expected-value computation
    e = np.exp(z - z.max())
    return e / e.sum()


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def make_batch(rng, n=5, d=4, k=3):
    return rng.standard_normal((n, d)), rng.integers(0, k, n)


class TestNumberRules:
    @pytest.mark.parametrize(
        "value, integer, real",
        [
            (3, True, True),
            (-7, True, True),
            (np.int64(3), True, True),
            (np.int32(-2), True, True),
            (1.5, False, True),
            (3.0, False, True),
            (np.float64(1.5), False, True),
            (np.float32(2.0), False, True),
            (True, False, False),
            (False, False, False),
            (np.bool_(True), False, False),
            (float("nan"), False, False),
            (float("inf"), False, False),
            (-float("inf"), False, False),
            (np.float64("nan"), False, False),
            (np.float64("-inf"), False, False),
            ("3", False, False),
            (None, False, False),
        ],
    )
    def test_builtin_fast_path_keeps_the_rules(self, value, integer, real):
        # a bool (JSON true) is no number, numpy scalars are, nan and inf are not real
        assert models.is_integer(value) is integer
        assert models.is_real(value) is real


class TestForwardLoss:
    def test_zero_params_uniform_softmax(self, rng):
        spec = ModelSpec("logistic", 4, 2)
        x, y = make_batch(rng, n=7, d=4, k=2)
        loss = models.forward_loss(spec, np.zeros(models.param_count(spec)), x, y)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_perfect_fit_loss_zero(self):
        spec = ModelSpec("logistic", 2, 2)
        # weights push the true class logit 100 above the other
        params = np.zeros(models.param_count(spec))
        params[spec.layout.b2] = [100.0, 0.0]
        assert models.forward_loss(spec, params, np.ones((4, 2)), np.zeros(4, dtype=int)) == 0.0

    def test_matches_direct_softmax_evaluation(self, rng):
        spec = ModelSpec("logistic", 4, 3)
        params = rng.standard_normal(models.param_count(spec))
        x, y = make_batch(rng, n=3, d=4, k=3)
        w = params[spec.layout.w2].reshape(4, 3)
        b = params[spec.layout.b2]
        expected = -np.mean([np.log(softmax_oracle(x[i] @ w + b)[y[i]]) for i in range(3)])
        assert models.forward_loss(spec, params, x, y) == pytest.approx(expected, rel=1e-12)


class TestPerSampleGradients:
    def test_single_sample_equals_mean_gradient(self, rng):
        spec = ModelSpec("mlp1", 4, 3, hidden_dim=5)
        params = models.init_params(spec, rng)
        x, y = make_batch(rng, n=1)
        ps = models.per_sample_gradients(spec, params, x, y)
        np.testing.assert_allclose(ps[0], models.mean_gradient(spec, params, x, y), atol=1e-14)

    def test_duplicated_sample_identical_rows(self, rng):
        spec = ModelSpec("logistic", 4, 3)
        params = rng.standard_normal(models.param_count(spec))
        x = rng.standard_normal(4)
        ps = models.per_sample_gradients(spec, params, np.stack([x, x]), np.array([1, 1]))
        np.testing.assert_array_equal(ps[0], ps[1])

    def test_matches_finite_differences_per_coordinate(self, rng):
        # oracle: central finite differences of each sample's own loss
        spec = ModelSpec("logistic", 4, 3)
        params = rng.standard_normal(models.param_count(spec))
        x, y = make_batch(rng, n=5)
        ps = models.per_sample_gradients(spec, params, x, y)
        h = 1e-5
        for i in range(5):
            single = (x[i : i + 1], y[i : i + 1])
            fd = np.zeros_like(params)
            for j in range(params.size):
                up, down = params.copy(), params.copy()
                up[j] += h
                down[j] -= h
                fd[j] = (
                    models.forward_loss(spec, up, *single)
                    - models.forward_loss(spec, down, *single)
                ) / (2 * h)
            np.testing.assert_allclose(ps[i], fd, atol=1e-5)

    @pytest.mark.parametrize(
        "spec_args",
        [("logistic", 4, 3, 0), ("mlp1", 4, 3, 6)],
    )
    def test_mean_of_per_sample_equals_forward_gradient(self, rng, spec_args):
        kind, d, k, hdim = spec_args
        spec = ModelSpec(kind, d, k, hidden_dim=hdim)
        params = models.init_params(spec, rng)
        x, y = make_batch(rng, n=11, d=d, k=k)
        ps = models.per_sample_gradients(spec, params, x, y)
        mg = models.mean_gradient(spec, params, x, y)
        assert np.abs(ps.mean(axis=0) - mg).max() <= 1e-10

    def test_pure_bit_identical(self, rng):
        spec = ModelSpec("mlp1", 4, 3, hidden_dim=5)
        params = models.init_params(spec, rng)
        x, y = make_batch(rng)
        a = models.per_sample_gradients(spec, params, x, y)
        b = models.per_sample_gradients(spec, params, x, y)
        np.testing.assert_array_equal(a, b)
        assert models.evaluate(spec, params, x, y) == models.evaluate(spec, params, x, y)


class TestHvp:
    def test_zero_direction(self, rng):
        spec = ModelSpec("mlp1", 2, 2, hidden_dim=2)
        params = models.init_params(spec, rng)
        hvp = models.hvp_operator(spec, params, *make_batch(rng, n=4, d=2, k=2))
        np.testing.assert_array_equal(hvp(np.zeros(params.size)), np.zeros(params.size))

    def test_matches_dense_hessian_oracle(self, rng):
        # assemble H column by column from central differences of the exact
        # gradient, then compare H v with the exact HVP, for both model kinds
        for spec in (ModelSpec("logistic", 2, 3), ModelSpec("mlp1", 1, 2, hidden_dim=1)):
            size = models.param_count(spec)
            params = rng.standard_normal(size) * 0.5
            x, y = rng.standard_normal((8, spec.input_dim)), rng.integers(0, spec.num_classes, 8)
            h = 1e-5
            dense = np.zeros((size, size))
            for j in range(size):
                up, down = params.copy(), params.copy()
                up[j] += h
                down[j] -= h
                dense[:, j] = (
                    models.mean_gradient(spec, up, x, y) - models.mean_gradient(spec, down, x, y)
                ) / (2 * h)
            v = rng.standard_normal(size)
            hv = models.hvp_operator(spec, params, x, y)(v)
            np.testing.assert_allclose(hv, dense @ v, rtol=1e-5, atol=1e-10)

    def test_symmetric_bilinear_form(self, rng):
        spec = ModelSpec("mlp1", 3, 3, hidden_dim=4)
        params = models.init_params(spec, rng)
        x, y = make_batch(rng, n=6, d=3)
        u = rng.standard_normal(params.size)
        v = rng.standard_normal(params.size)
        hvp = models.hvp_operator(spec, params, x, y)
        uhv = u @ hvp(v)
        vhu = v @ hvp(u)
        assert uhv == pytest.approx(vhu, rel=1e-12)

    def test_operator_ignores_later_parameter_writes(self, rng):
        spec = ModelSpec("mlp1", 3, 3, hidden_dim=4)
        params = models.init_params(spec, rng)
        x, y = make_batch(rng, n=6, d=3)
        v = rng.standard_normal(params.size)
        hvp = models.hvp_operator(spec, params, x, y)
        before = hvp(v)
        params += 1.0
        np.testing.assert_array_equal(hvp(v), before)


class TestPredictAccuracy:
    def test_perfectly_correct(self):
        spec = ModelSpec("logistic", 2, 2)
        params = np.zeros(models.param_count(spec))
        params[spec.layout.b2] = [10.0, 0.0]
        _, accuracy = models.evaluate(spec, params, np.ones((5, 2)), np.zeros(5, dtype=int))
        assert accuracy == 1.0

    def test_counting(self, rng):
        spec = ModelSpec("logistic", 2, 2)
        params = np.zeros(models.param_count(spec))
        params[spec.layout.b2] = [1.0, 0.0]  # always predicts class 0
        x, y = rng.standard_normal((3, 2)), np.array([0, 0, 1])
        assert models.evaluate(spec, params, x, y)[1] == pytest.approx(2 / 3)

    def test_tie_breaks_to_lowest_class(self, rng):
        spec = ModelSpec("logistic", 3, 4)
        x, y = rng.standard_normal((6, 3)), np.zeros(6, dtype=int)
        # all-zero params: every logit ties, argmax picks class 0
        assert models.evaluate(spec, np.zeros(models.param_count(spec)), x, y)[1] == 1.0


class TestGraphDiffusion:
    def ring_operator(self, n=6):
        # the normalized adjacency of the ring 0 - 1 - ... - n-1 - 0
        edges = np.array([[i, i + 1] for i in range(n - 1)] + [[0, n - 1]])
        return training.normalized_adjacency(edges, n)

    def run_pair(self, graph_spec):
        # the same seeded run as a graph model and as the mlp1 it trains
        bundle = data.make_sbm_graph(90, 2, p_in=0.2, p_out=0.02, d=3, seed=4)
        plain_spec = ModelSpec("mlp1", 3, 2, hidden_dim=graph_spec.hidden_dim)
        runs = []
        for spec in (graph_spec, plain_spec):
            cfg = training.TrainConfig(model=spec, batch_size=16, epochs=2, seed=1)
            rec = training.train_run(bundle, [cfg])[0].canonical_dict()
            runs.append({k: rec[k] for k in ("train_loss", "test_loss", "test_acc", "final")})
        return runs

    def test_zero_alpha_beta_reduces_to_mlp1(self, rng):
        x = rng.standard_normal((6, 3))
        a_norm = self.ring_operator()
        np.testing.assert_array_equal(training.diffusion_update(x, a_norm, 0.0), x)
        graph, plain = self.run_pair(ModelSpec("graph_diffusion", 3, 2, hidden_dim=4))
        assert graph == plain

    def test_diffusion_changes_features(self, rng):
        x = rng.standard_normal((6, 3))
        a_norm = self.ring_operator()
        once = x + 0.5 * (a_norm @ x - x)
        expected = once + 0.5 * (a_norm @ once - once)
        twice = training.diffusion_update(x, a_norm, 0.5)
        twice = training.diffusion_update(twice, a_norm, 0.5)
        np.testing.assert_allclose(twice, expected)
        graph, plain = self.run_pair(
            ModelSpec("graph_diffusion", 3, 2, hidden_dim=4, diffusion_alpha=0.5)
        )
        assert graph["train_loss"] != plain["train_loss"]

    def test_requires_adjacency(self):
        bundle = data.make_blobs(60, 3, 2, seed=0)
        spec = ModelSpec("graph_diffusion", 3, 2, hidden_dim=4)
        with pytest.raises(ValueError, match="graph dataset"):
            training.train_run(bundle, [training.TrainConfig(model=spec, batch_size=8, epochs=1)])

    def test_kernels_run_a_graph_spec_as_its_mlp1(self, rng):
        graph = ModelSpec("graph_diffusion", 3, 2, hidden_dim=4, diffusion_alpha=0.5)
        plain = ModelSpec("mlp1", 3, 2, hidden_dim=4)
        params = models.init_params(graph, rng)
        x, y = make_batch(rng, d=3, k=2)
        assert models.evaluate(graph, params, x, y) == models.evaluate(plain, params, x, y)
        for kernel in (models.mean_gradient, models.per_sample_gradients):
            np.testing.assert_array_equal(kernel(graph, params, x, y), kernel(plain, params, x, y))

    def test_normalized_adjacency_rows(self):
        a_norm = training.normalized_adjacency(np.array([[0, 1]]), 2)
        # A + I has degree 2 everywhere; normalization gives entries 1/2
        np.testing.assert_allclose(a_norm.toarray(), np.full((2, 2), 0.5))
        # the ring's A + I has degree 3 everywhere: 1/3 on the diagonal and
        # at both neighbors
        ring = self.ring_operator().toarray()
        expected = np.eye(6) + np.eye(6, k=1) + np.eye(6, k=-1) + np.eye(6, k=5) + np.eye(6, k=-5)
        np.testing.assert_allclose(ring, expected / 3.0)


class TestParamLayout:
    def test_counts(self):
        assert models.param_count(ModelSpec("logistic", 4, 3)) == 4 * 3 + 3
        assert models.param_count(ModelSpec("mlp1", 4, 3, hidden_dim=5)) == 4 * 5 + 5 + 5 * 3 + 3

    def test_slices_cover_vector(self):
        # a logistic model is the output layer alone: its hidden slices are empty
        for spec, widths in (
            (ModelSpec("mlp1", 4, 3, hidden_dim=5), [4 * 5, 5, 5 * 3, 3]),
            (ModelSpec("logistic", 4, 3), [0, 0, 4 * 3, 3]),
        ):
            slices = [spec.layout.w1, spec.layout.b1, spec.layout.w2, spec.layout.b2]
            stops = [s.stop for s in slices]
            starts = [s.start for s in slices]
            assert starts[0] == 0
            assert stops[:-1] == starts[1:]
            assert stops[-1] == models.param_count(spec)
            assert [s.stop - s.start for s in slices] == widths

    def test_slices_cached_per_spec(self):
        # the layout is worked out once, when the spec is built, and is not a field
        spec = ModelSpec("mlp1", 4, 3, hidden_dim=5)
        assert spec.layout is spec.layout
        assert spec.layout == ModelSpec("mlp1", 4, 3, 5).layout
        assert spec.layout != ModelSpec("mlp1", 4, 3, 6).layout
        assert spec == ModelSpec("mlp1", 4, 3, 5) and "layout" not in spec.to_dict()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.layout.w1 = slice(0, 1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("mlp1", 4, 3)  # missing hidden_dim
        with pytest.raises(ValueError):
            ModelSpec("logistic", 4, 1)
        with pytest.raises(ValueError):
            ModelSpec("rnn", 4, 3)

    @pytest.mark.parametrize(
        "kind, unread, message",
        [
            ("logistic", {"hidden_dim": 32}, "hidden_dim applies only to mlp1 and graph_diffusion"),
            ("mlp1", {"diffusion_alpha": 0.3}, "diffusion_alpha applies only to graph_diffusion"),
            ("mlp1", {"diffusion_beta": 0.5}, "diffusion_beta applies only to graph_diffusion"),
            ("logistic", {"diffusion_steps": 0}, "diffusion_steps applies only to graph_diffusion"),
        ],
        ids=["logistic_hidden", "mlp1_alpha", "mlp1_beta", "logistic_steps"],
    )
    def test_fields_the_kind_does_not_read_keep_their_defaults(self, kind, unread, message):
        hidden = {"hidden_dim": 4} if kind == "mlp1" else {}
        with pytest.raises(ValueError, match=f"{message}, not to {kind}"):
            ModelSpec(kind, 4, 3, **hidden, **unread)
        ModelSpec("graph_diffusion", 4, 3, **{"hidden_dim": 4, **unread})
        ModelSpec(kind, 4, 3, **hidden, **{key: getattr(ModelSpec, key) for key in unread})

    @pytest.mark.parametrize(
        "args, message",
        [
            (("mlp1", 0, 3, 4), "input_dim must be >= 1"),
            (("graph_diffusion", 4, 3, 4, 0.0, 0.0, -1), "diffusion_steps must be >= 0"),
        ],
        ids=["input_dim_0", "diffusion_steps_negative"],
    )
    def test_spec_ranges(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ModelSpec(*args)

    def test_diffusion_noise_needs_a_step(self):
        with pytest.raises(ValueError, match="diffusion_beta needs diffusion_steps >= 1"):
            ModelSpec("graph_diffusion", 4, 3, 4, diffusion_beta=0.1, diffusion_steps=0)
        ModelSpec("graph_diffusion", 4, 3, 4, diffusion_alpha=0.5, diffusion_steps=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("hidden_dim", "8", "hidden_dim must be an integer"),
            ("hidden_dim", 8.5, "hidden_dim must be an integer"),
            ("hidden_dim", True, "hidden_dim must be an integer"),
            ("diffusion_steps", 2.0, "diffusion_steps must be an integer"),
            ("diffusion_alpha", "x", "diffusion_alpha must be a finite number"),
            ("diffusion_alpha", True, "diffusion_alpha must be a finite number"),
            ("diffusion_alpha", float("nan"), "diffusion_alpha must be a finite number"),
            ("diffusion_beta", float("inf"), "diffusion_beta must be a finite number"),
        ],
    )
    def test_spec_value_types(self, field, value, message):
        kwargs = {"hidden_dim": 4, field: value}
        with pytest.raises(ValueError, match=message):
            ModelSpec("graph_diffusion", 4, 3, **kwargs)

    def test_numpy_scalars_accepted(self):
        spec = ModelSpec("graph_diffusion", np.int64(4), 3, np.int64(4), np.float64(0.5), 0.1, 2)
        assert models.param_count(spec) == 4 * 4 + 4 + 4 * 3 + 3
