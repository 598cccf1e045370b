import json
import math

import numpy as np
import pytest

from batchlab import data, measures, models, training
from batchlab.models import ModelSpec
from batchlab.training import (
    Ablation,
    BatchSchedule,
    TrainConfig,
    adam_step,
    diffusion_update,
    noise_injected_gradient,
    sam_perturbed_gradient,
    train_run,
)


@pytest.fixture(scope="module")
def blob_bundle():
    return data.make_blobs(300, 6, 3, separation=4.0, label_noise=0.0, seed=11)


def quick_config(**overrides):
    base = dict(
        model=ModelSpec("mlp1", 6, 3, hidden_dim=8),
        batch_size=16,
        epochs=5,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def assert_final_is_logged(rec):
    # a run's final accuracy and gap are its epoch log's at the final epoch
    e = rec.final.epoch
    assert rec.final.test_accuracy == rec.test_acc[e]
    assert rec.final.gen_gap == rec.test_loss[e] - rec.train_loss[e]


class TestAdam:
    def test_zero_gradient_no_move(self):
        params, moments = np.array([1.0, -2.0]), np.zeros((2, 2))
        adam_step(params, np.zeros(2), moments, lr=1e-3, t=1)
        np.testing.assert_array_equal(params, [1.0, -2.0])
        np.testing.assert_array_equal(moments, np.zeros((2, 2)))

    def test_first_step_magnitude(self):
        # bias correction cancels at t=1: delta = -lr * g / (|g| + eps)
        params = np.zeros(1)
        adam_step(params, np.array([0.5]), np.zeros((2, 1)), lr=1e-3, t=1)
        assert params[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_three_step_recursion_matches_reference(self):
        # independent scalar recursion straight from the update equations
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        grads = [1.0, -1.0, 1.0]
        theta_ref, m_ref, v_ref = 0.2, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m_ref = b1 * m_ref + (1 - b1) * g
            v_ref = b2 * v_ref + (1 - b2) * g * g
            mh = m_ref / (1 - b1**t)
            vh = v_ref / (1 - b2**t)
            theta_ref -= lr * mh / (math.sqrt(vh) + eps)
        params, moments = np.array([0.2]), np.zeros((2, 1))
        for t, g in enumerate(grads, start=1):
            adam_step(params, np.array([g]), moments, lr=lr, t=t)
        assert params[0] == pytest.approx(theta_ref, abs=1e-12)
        assert moments[:, 0] == pytest.approx([m_ref, v_ref], abs=1e-15)


def causal_regularizer(embeddings, edges):
    """Reference edge regularizer: mean squared embedding distance over the edges."""
    e = np.asarray(edges)
    diff = embeddings[e[:, 0]] - embeddings[e[:, 1]]
    return float((diff * diff).sum() / e.shape[0])


def loss_with_penalties(spec, params, x, y, lambda_causal, edges):
    """Reference loss whose gradient ``gradient_with_penalties`` computes when
    the edge term penalizes the hidden embeddings of ``x`` itself."""
    emb = models.hidden_activations(spec, params, x)
    return models.forward_loss(spec, params, x, y) + lambda_causal * causal_regularizer(emb, edges)


def edge_scatter_regularizer_grad(emb, edges):
    """Reference d causal_regularizer / d emb: scattered edge by edge, e0 then e1."""
    diff = emb[edges[:, 0]] - emb[edges[:, 1]]
    d_emb = np.zeros_like(emb)
    coef = 2.0 / edges.shape[0]
    np.add.at(d_emb, edges[:, 0], coef * diff)
    np.add.at(d_emb, edges[:, 1], -coef * diff)
    return d_emb


class TestCausalRegularizer:
    def test_identical_embeddings(self):
        emb = np.ones((4, 3))
        assert causal_regularizer(emb, [(0, 1), (2, 3)]) == 0.0

    def test_single_edge(self):
        emb = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert causal_regularizer(emb, [(0, 1)]) == pytest.approx(2.0, abs=1e-15)

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(3)
        emb = rng.standard_normal((6, 4))
        edges = [(0, 1), (1, 2), (2, 5), (3, 4), (0, 5)]
        brute = sum(((emb[i] - emb[j]) ** 2).sum() for i, j in edges) / len(edges)
        assert causal_regularizer(emb, edges) == pytest.approx(brute, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        spec = ModelSpec("mlp1", 3, 2, hidden_dim=4)
        params = models.init_params(spec, rng)
        x, y = rng.standard_normal((6, 3)), rng.integers(0, 2, 6)
        edges = np.array([(0, 1), (2, 3), (4, 5)])
        lap = training.edge_laplacian(edges, len(x))
        grad = training.gradient_with_penalties(spec, params, x, y, 0.7, x, lap, 0.0, 0.0)
        h = 1e-6
        for j in rng.choice(params.size, size=8, replace=False):
            up, down = params.copy(), params.copy()
            up[j] += h
            down[j] -= h
            fd = (
                loss_with_penalties(spec, up, x, y, 0.7, edges)
                - loss_with_penalties(spec, down, x, y, 0.7, edges)
            ) / (2 * h)
            assert grad[j] == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_laplacian_gradient_near_edge_scatter(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        # endpoints from all nodes but the last: repeated endpoints, duplicate
        # edges and one isolated node
        edges = rng.integers(0, n - 1, size=(int(rng.integers(1, 4 * n)), 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        if len(edges) == 0:
            edges = np.array([[0, 1]])
        edges = np.vstack([edges, edges[: len(edges) // 2, ::-1]])  # both endpoint orders
        edges = edges[rng.permutation(len(edges))]
        # magnitudes spread over six decades, so the summation order shows in the floats
        emb = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        got = training._seedwise_product(training.edge_laplacian(edges, n), emb)
        ref = edge_scatter_regularizer_grad(emb, edges)
        # the Laplacian sums a node's deg + 1 terms in another order than the
        # scatter: each sum is within (deg + 1) eps of the sum of its terms'
        # magnitudes, (2/m) (|emb_i| + |emb_j|) per incident edge
        magnitude = np.abs(emb[edges[:, 0]]) + np.abs(emb[edges[:, 1]])
        total = np.zeros_like(emb)
        np.add.at(total, edges[:, 0], magnitude)
        np.add.at(total, edges[:, 1], magnitude)
        deg = np.bincount(edges.ravel(), minlength=n)[:, None]
        bound = (deg + 1) * np.finfo(float).eps * (2.0 / len(edges)) * total
        assert (np.abs(got - ref) <= bound).all()
        assert not got[n - 1].any()

    @pytest.mark.parametrize(
        "ablation",
        [Ablation(), Ablation(kind="sam", rho=0.05), Ablation(kind="no_noise_averaging")],
        ids=lambda a: a.kind,
    )
    def test_train_run_records_match_edge_scatter(self, monkeypatch, ablation):
        bundle = data.make_sbm_graph(120, 2, p_in=0.2, p_out=0.02, d=5, seed=3)
        spec = ModelSpec(
            "graph_diffusion", 5, 2, hidden_dim=6, diffusion_alpha=0.3, diffusion_beta=0.1
        )
        configs = [
            TrainConfig(
                model=spec, batch_size=16, epochs=6, lambda_causal=0.5, ablation=ablation, seed=s
            )
            for s in range(3)
        ]
        got = [r.canonical_dict() for r in train_run(bundle, configs)]
        edges = bundle.edges
        laplacian = training.edge_laplacian(edges, bundle.n)
        seedwise = training._seedwise_product
        calls = []

        def oracle(matrix, emb):
            # the diffusion steps share the product; only the Laplacian's is replaced
            if matrix.shape != laplacian.shape or (matrix != laplacian).nnz:
                return seedwise(matrix, emb)
            calls.append(matrix.shape)
            seeds = emb.reshape((-1,) + emb.shape[-2:])
            return np.stack([edge_scatter_regularizer_grad(e, edges) for e in seeds]).reshape(
                emb.shape
            )

        monkeypatch.setattr(training, "_seedwise_product", oracle)
        ref = [r.canonical_dict() for r in train_run(bundle, configs)]
        assert calls and set(calls) == {(120, 120)}
        assert [r["status"] for r in got] == [r["status"] for r in ref]
        assert_records_close(got, ref, rel=1e-12)


def assert_records_close(got, ref, rel):
    """Equal record structure and non-float fields, every float within ``rel``."""
    if isinstance(ref, float):
        assert isinstance(got, float)
        np.testing.assert_allclose(got, ref, rtol=rel, atol=0.0)
    elif isinstance(ref, dict):
        assert got.keys() == ref.keys()
        for key in ref:
            assert_records_close(got[key], ref[key], rel)
    elif isinstance(ref, list):
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert_records_close(a, b, rel)
    else:
        assert got == ref


class TestDiffusionUpdate:
    def test_identity_when_alpha_beta_zero(self):
        h = np.arange(6.0).reshape(3, 2)
        out = diffusion_update(h, np.eye(3), 0.0)
        np.testing.assert_array_equal(out, h)

    def test_identity_adjacency_fixed_point(self):
        h = np.arange(6.0).reshape(3, 2)
        out = diffusion_update(h, np.eye(3), 0.7)
        np.testing.assert_allclose(out, h)

    def test_full_step_is_neighborhood_average(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((3, 2))
        a_norm = training.normalized_adjacency(np.array([[0, 1], [0, 2], [1, 2]]), 3)
        np.testing.assert_allclose(a_norm.toarray(), np.full((3, 3), 1 / 3))
        out = diffusion_update(h, a_norm, 1.0)
        np.testing.assert_allclose(out, a_norm @ h)

    def test_noise_term_scales_with_h(self):
        rng = np.random.default_rng(1)
        h = np.full((200, 50), 2.0)
        out = diffusion_update(h, np.eye(200) * 0.0 + np.eye(200), 0.0, 1.0, [(0.3, rng)])
        # xi ~ N(0, 0.3), perturbation is xi * h, so std of (out - h) is 0.6
        assert out.shape == (1, 200, 50)
        assert (out - h).std() == pytest.approx(0.6, rel=0.05)


class TestNoiseInjectedStep:
    def test_zero_noise_plain_step(self):
        grad = np.array([0.5, -0.5])
        rng = np.random.default_rng(0)
        out = noise_injected_gradient(grad, 0.0, rng)
        np.testing.assert_array_equal(out, grad)
        # no draw at level 0: the noise stream is where a fresh one starts
        assert rng.random() == np.random.default_rng(0).random()

    def test_injects_exactly_the_noise_stream_draw(self):
        grad = np.array([0.5, -0.5, 2.0])
        out = noise_injected_gradient(grad, 0.49, np.random.default_rng(3))
        expected = grad + np.random.default_rng(3).normal(0.0, math.sqrt(0.49), size=3)
        np.testing.assert_array_equal(out, expected)

    def test_injected_std_matches_monte_carlo(self):
        rng = np.random.default_rng(7)
        n_hat = 0.49
        draws = np.empty(10_000)
        for i in range(10_000):
            draws[i] = noise_injected_gradient(np.zeros(1), n_hat, rng)[0]
        assert draws.std() == pytest.approx(math.sqrt(n_hat), rel=0.05)


class TestSam:
    def test_rho_zero_identical_to_base(self):
        rng = np.random.default_rng(2)
        spec = ModelSpec("logistic", 3, 2)
        params = rng.standard_normal(models.param_count(spec))
        x, y = rng.standard_normal((5, 3)), rng.integers(0, 2, 5)
        stack = params[None]  # a stack of one seed
        out = sam_perturbed_gradient(lambda p: models.mean_gradient(spec, p, x, y), stack, 0.0)
        np.testing.assert_array_equal(out[0], models.mean_gradient(spec, params, x, y))

    def test_one_d_quadratic_analytic(self):
        # grad of 0.5 a theta^2 is a theta; at theta > 0 the perturbed
        # gradient is a (theta + rho)
        a, theta, rho = 2.5, 1.2, 0.3
        g = sam_perturbed_gradient(lambda p: a * p, np.array([[theta]]), rho)
        assert g[0, 0] == pytest.approx(a * (theta + rho), rel=1e-12)

    def test_two_d_reference_bitwise(self):
        rng = np.random.default_rng(4)
        spec = ModelSpec("logistic", 2, 2)
        params = rng.standard_normal(models.param_count(spec))
        x, y = rng.standard_normal((6, 2)), rng.integers(0, 2, 6)
        rho = 0.05
        g0 = models.mean_gradient(spec, params, x, y)
        eps = rho * g0 / np.linalg.norm(g0)
        g_ref = models.mean_gradient(spec, params + eps, x, y)
        stack = params[None]  # a stack of one seed
        out = sam_perturbed_gradient(lambda p: models.mean_gradient(spec, p, x, y), stack, rho)
        np.testing.assert_array_equal(out[0], g_ref)

    def test_zero_gradient_skips_perturbation(self):
        g = sam_perturbed_gradient(lambda p: np.zeros_like(p), np.ones((1, 3)), 0.5)
        np.testing.assert_array_equal(g, np.zeros((1, 3)))


class TestPenalizedPaths:
    def test_zero_penalties_bit_identical_to_plain(self):
        rng = np.random.default_rng(6)
        spec = ModelSpec("mlp1", 4, 3, hidden_dim=5)
        params = models.init_params(spec, rng)
        x, y = rng.standard_normal((9, 4)), rng.integers(0, 3, 9)
        np.testing.assert_array_equal(
            training.gradient_with_penalties(spec, params, x, y, 0.0, x, None, 0.0, 0.0),
            models.mean_gradient(spec, params, x, y),
        )

    def test_l1_l2_gradient(self):
        rng = np.random.default_rng(8)
        spec = ModelSpec("logistic", 3, 2)
        params = rng.standard_normal(models.param_count(spec))
        x, y = rng.standard_normal((5, 3)), rng.integers(0, 2, 5)
        g = training.gradient_with_penalties(spec, params, x, y, 0.0, x, None, 0.01, 0.1)
        expected = (
            models.mean_gradient(spec, params, x, y)
            + 0.01 * np.sign(params)
            + 0.2 * params
        )
        np.testing.assert_allclose(g, expected, atol=1e-15)


class TestTrainRun:
    def test_one_row_train_split_rejected(self):
        # gradient_noise needs two probe rows and no longer checks for them itself
        bundle = data.make_blobs(10, 6, 3, seed=0, fractions=(0.1, 0.45, 0.45))
        assert bundle.splits["train"].size == 1
        with pytest.raises(ValueError, match="train split too small"):
            train_run(bundle, [quick_config()])

    def test_zero_epochs_initial_evaluation_only(self, blob_bundle):
        cfg = quick_config(epochs=0)
        rec = train_run(blob_bundle, [cfg])[0]
        assert rec.train_loss == [] and rec.test_acc == []
        assert rec.status == "completed"
        assert rec.final is not None
        assert rec.final.epoch == -1
        # with no epoch logged, the final values are the initial parameters'
        rng_init = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[0])
        p = models.init_params(cfg.model, rng_init)
        x, y = blob_bundle.features, blob_bundle.labels
        train, test = blob_bundle.splits["train"], blob_bundle.splits["test"]
        test_loss, test_accuracy = models.evaluate(cfg.model, p, x[test], y[test])
        train_loss = models.forward_loss(cfg.model, p, x[train], y[train])
        assert rec.final.test_accuracy == test_accuracy
        assert rec.final.gen_gap == test_loss - train_loss

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_zero_epochs_infinite_test_loss_is_degenerate(self, blob_bundle, monkeypatch):
        real = models.evaluate

        def infinite_on_test(spec, params, x, y):
            # evaluate scores the test split only
            loss, accuracy = real(spec, params, x, y)
            return np.full_like(loss, np.inf), accuracy

        monkeypatch.setattr(models, "evaluate", infinite_on_test)
        rec = train_run(blob_bundle, [quick_config(epochs=0)])[0]
        assert rec.status == "degenerate"
        assert rec.degenerate_reason == "test_loss must be finite"
        assert rec.final is None

    def test_completed_run_final_is_last_logged_epoch(self, blob_bundle):
        rec = train_run(blob_bundle, [quick_config(epochs=4, early_stop_patience=100)])[0]
        assert rec.status == "completed"
        assert rec.final.epoch == 3 == len(rec.train_loss) - 1
        assert_final_is_logged(rec)

    def test_deterministic_given_seed(self, blob_bundle):
        cfg = quick_config(epochs=4, seed=3)
        a = train_run(blob_bundle, [cfg])[0]
        b = train_run(blob_bundle, [cfg])[0]
        assert a.canonical_dict() == b.canonical_dict()

    def test_seed_changes_trajectory(self, blob_bundle):
        a = train_run(blob_bundle, [quick_config(epochs=3, seed=0)])[0]
        b = train_run(blob_bundle, [quick_config(epochs=3, seed=1)])[0]
        assert a.train_loss != b.train_loss

    def test_separable_blobs_reach_high_accuracy(self):
        bundle = data.make_blobs(400, 6, 2, separation=6.0, label_noise=0.0, seed=2)
        cfg = TrainConfig(
            model=ModelSpec("mlp1", 6, 2, hidden_dim=8),
            batch_size=16,
            epochs=50,
            seed=0,
        )
        rec = train_run(bundle, [cfg])[0]
        assert rec.final.test_accuracy >= 0.95

    def test_lr_schedule_halving_logged(self, blob_bundle):
        cfg = quick_config(epochs=25, lr_schedule="halve_every_10", early_stop_patience=100)
        rec = train_run(blob_bundle, [cfg])[0]
        expected = [1e-3 * 2 ** (-(e // 10)) for e in range(25)]
        assert rec.lr == pytest.approx(expected, rel=1e-15)

    def test_scaled_inverse_b_schedule(self, blob_bundle):
        rec = train_run(
            blob_bundle, [quick_config(epochs=2, batch_size=64, lr_schedule="scaled_inverse_B")]
        )[0]
        assert rec.lr[0] == pytest.approx(1e-3 * 16 / 64)

    def test_progressive_batch_schedule_capped(self, blob_bundle):
        n_train = blob_bundle.splits["train"].size
        cfg = quick_config(
            epochs=12,
            batch_size=16,
            batch_schedule=BatchSchedule(kind="progressive", factor=4, every_epochs=4),
            early_stop_patience=100,
        )
        rec = train_run(blob_bundle, [cfg])[0]
        assert rec.effective_batch[:4] == [16] * 4
        assert rec.effective_batch[4:8] == [64] * 4
        assert rec.effective_batch[8:12] == [min(256, n_train)] * 4

    def test_early_stopping_restores_best(self):
        # high label noise and a long run force validation loss to turn
        bundle = data.make_blobs(300, 4, 2, separation=2.0, label_noise=0.3, seed=4)
        cfg = TrainConfig(
            model=ModelSpec("mlp1", 4, 2, hidden_dim=16),
            batch_size=8,
            epochs=200,
            lr=3e-3,
            early_stop_patience=5,
            seed=1,
        )
        rec = train_run(bundle, [cfg])[0]
        assert rec.status == "early_stopped"
        assert len(rec.train_loss) < 200
        assert rec.final.epoch <= len(rec.train_loss) - 1
        assert_final_is_logged(rec)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_degenerate_run_flagged(self, blob_bundle):
        # an absurd l2 weight with a large sgd lr oscillates to overflow
        cfg = quick_config(
            epochs=60,
            optimizer="sgd",
            lr=1e4,
            ablation=Ablation(kind="l1l2", l1=0.0, l2=1e6),
            early_stop_patience=1000,
        )
        rec = train_run(blob_bundle, [cfg])[0]
        assert rec.status == "degenerate"
        assert rec.final is None
        assert rec.degenerate_reason

    def test_smaller_batch_measures_more_noise(self):
        bundle = data.make_blobs(400, 6, 3, separation=3.0, label_noise=0.1, seed=9)
        wins = 0
        for seed in range(10):
            recs = {}
            for b in (16, 256):
                cfg = TrainConfig(
                    model=ModelSpec("mlp1", 6, 3, hidden_dim=8),
                    batch_size=b,
                    epochs=5,
                    seed=seed,
                )
                recs[b] = train_run(bundle, [cfg])[0]
            if recs[16].final.grad_noise > recs[256].final.grad_noise:
                wins += 1
        assert wins >= 9

    def test_no_noise_averaging_lowers_measured_noise(self, blob_bundle):
        for seed in (0, 1):
            plain = train_run(blob_bundle, [quick_config(epochs=4, seed=seed)])[0]
            averaged = train_run(
                blob_bundle,
                [quick_config(epochs=4, seed=seed, ablation=Ablation(kind="no_noise_averaging"))]
            )[0]
            assert averaged.final.grad_noise < plain.final.grad_noise
            assert averaged.batch_size == plain.batch_size == 16

    def test_inject_noise_runs_deterministically(self, blob_bundle):
        cfg = quick_config(epochs=3, ablation=Ablation(kind="inject_noise"), seed=5)
        a = train_run(blob_bundle, [cfg])[0]
        b = train_run(blob_bundle, [cfg])[0]
        assert a.status == "completed"
        assert a.canonical_dict() == b.canonical_dict()

    def test_sam_ablation_runs(self, blob_bundle):
        rec = train_run(
            blob_bundle, [quick_config(epochs=3, ablation=Ablation(kind="sam", rho=0.05))]
        )[0]
        assert rec.status in ("completed", "early_stopped")
        assert rec.ablation == "sam"

    def test_graph_model_trains_with_causal_penalty(self):
        bundle = data.make_sbm_graph(150, 2, p_in=0.2, p_out=0.02, d=5, seed=3)
        spec = ModelSpec("graph_diffusion", 5, 2, hidden_dim=6, diffusion_alpha=0.3)
        cfg = TrainConfig(model=spec, batch_size=16, epochs=6, lambda_causal=0.1, seed=0)
        rec = train_run(bundle, [cfg])[0]
        assert rec.status in ("completed", "early_stopped")
        assert rec.final is not None
        # deterministic too
        rec2 = train_run(bundle, [cfg])[0]
        assert rec.canonical_dict() == rec2.canonical_dict()

    def test_graph_model_with_noise_coupling(self):
        bundle = data.make_sbm_graph(120, 2, p_in=0.2, p_out=0.02, d=5, seed=3)
        spec = ModelSpec(
            "graph_diffusion", 5, 2, hidden_dim=6, diffusion_alpha=0.3, diffusion_beta=0.1
        )
        cfg = TrainConfig(model=spec, batch_size=16, epochs=5, seed=0)
        a = train_run(bundle, [cfg])[0]
        b = train_run(bundle, [cfg])[0]
        assert a.status in ("completed", "early_stopped")
        assert a.canonical_dict() == b.canonical_dict()

    @pytest.mark.parametrize(
        "spec",
        [ModelSpec("mlp1", 5, 3, hidden_dim=8), ModelSpec("mlp1", 6, 2, hidden_dim=8)],
        ids=["width", "classes"],
    )
    def test_spec_not_matching_dataset_raises_before_training(self, blob_bundle, monkeypatch, spec):
        def no_init(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(models, "init_params", no_init)
        with pytest.raises(ValueError, match=r"does not fit the dataset \(6 features, 3 classes\)"):
            train_run(blob_bundle, [quick_config(model=spec)])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_gradient_gives_degenerate_record(self, blob_bundle, monkeypatch):
        # the loop's finite-parameter check is the one divergence rule, for
        # every optimizer, the two-gradient sam step, the epoch-averaged
        # no_noise_averaging step and the noise-injected step; 180 training
        # rows at batch size 16 make 11 full minibatches and a short one, so
        # the second gradient call is taken in the first epoch, by every kind
        real = models.mean_gradient
        for overrides in (
            {},
            {"optimizer": "sgd"},
            {"ablation": Ablation(kind="sam", rho=0.05)},
            {"ablation": Ablation(kind="no_noise_averaging")},
            {"ablation": Ablation(kind="inject_noise")},
        ):
            calls = []

            def poisoned(spec, params, x, y, out=None):
                calls.append(None)
                g = real(spec, params, x, y, out=out)
                if len(calls) == 2:
                    g[...] = np.nan
                return g

            monkeypatch.setattr(models, "mean_gradient", poisoned)
            rec = train_run(blob_bundle, [quick_config(epochs=3, **overrides)])[0]
            assert len(calls) >= 2
            assert rec.status == "degenerate"
            assert rec.degenerate_reason == "non-finite parameters"
            assert rec.final is None and rec.train_loss == []

    def test_record_round_trip(self, blob_bundle):
        # a measured run, and one that degenerates at its final measurement
        for overrides in ({}, {"lr": 1e6, "optimizer": "sgd"}):
            rec = train_run(blob_bundle, [quick_config(epochs=2, **overrides)])[0]
            assert (rec.final is None) == bool(overrides)
            back = training.RunRecord.from_dict(rec.to_dict())
            assert back.canonical_dict() == rec.canonical_dict()
            assert back.final == rec.final

    def test_version_1_line_loads_without_fingerprint(self, blob_bundle):
        line = train_run(blob_bundle, [quick_config(epochs=1)])[0].to_dict()
        assert line["schema_version"] == 2 and "fingerprint" in line
        v1 = {k: v for k, v in line.items() if k != "fingerprint"}
        rec = training.RunRecord.from_dict(dict(v1, schema_version=1))
        assert rec.schema_version == 1 and rec.fingerprint is None
        # each version has its own field set
        for bad in (v1, dict(line, schema_version=1)):
            with pytest.raises(TypeError, match="a record has the fields"):
                training.RunRecord.from_dict(bad)
        # a version that only equals 1, as a JSON boolean or float does, is no version
        for version in (True, 1.0):
            with pytest.raises(TypeError, match=f"schema_version must be an integer, got {version}$"):
                training.RunRecord.from_dict(dict(v1, schema_version=version))

    @pytest.mark.parametrize("name", ["renamed", "b16-s1-none", "b16-s0-sam"])
    def test_record_whose_run_id_names_another_run_rejected(self, blob_bundle, name):
        # a sweep resumes a run by its run_id, so a line must carry its own run's
        line = train_run(blob_bundle, [quick_config(epochs=1)])[0].to_dict()
        assert line["run_id"] == training.run_name(16, 0, "none") == "b16-s0-none"
        with pytest.raises(ValueError, match=f"run_id '{name}' does not name the run b16-s0-none"):
            training.RunRecord.from_dict(dict(line, run_id=name))

    def test_record_line_format(self, blob_bundle):
        # the line's keys: schema_version, then the other RunRecord fields and final's
        # Measurement fields, each in declaration order
        rec = train_run(blob_bundle, [quick_config(epochs=2, lr=1)])[0]
        line = json.loads(json.dumps(rec.to_dict()))
        fields = [f for f in training.RunRecord.__dataclass_fields__ if f != "schema_version"]
        assert list(line) == ["schema_version", *fields]
        assert list(line["final"]) == list(measures.Measurement.__dataclass_fields__)
        assert type(rec.config["lr"]) is int and line["lr"] == [1.0, 1.0]
        assert all(type(x) is float for x in rec.lr + line["lr"])


def noise_batches(monkeypatch) -> list:
    """Wrap ``measures.gradient_noise`` to log the batch of each call."""
    batches = []
    real = measures.gradient_noise

    def spy(grads, batch_size):
        batches.append(batch_size)
        return real(grads, batch_size)

    monkeypatch.setattr(measures, "gradient_noise", spy)
    return batches


def measured_batch(monkeypatch, bundle, cfg):
    """The run's record, and the batch its final gradient noise is divided
    by: the one ``gradient_noise`` call of a run that probes none in training."""
    batches = noise_batches(monkeypatch)
    rec = train_run(bundle, [cfg])[0]
    assert len(batches) == 1 and rec.final is not None
    return rec, batches[0]


class TestMeasuredBatch:
    """The final noise is divided by the batch of the measured epoch's
    updates: its effective batch, times the minibatches each update averaged
    under no_noise_averaging."""

    def test_fixed_schedule_above_train_rows(self, blob_bundle, monkeypatch):
        n_train = blob_bundle.splits["train"].size
        rec, b = measured_batch(monkeypatch, blob_bundle, quick_config(batch_size=256, epochs=3))
        assert b == rec.effective_batch[rec.final.epoch] == n_train == 180
        assert rec.batch_size == rec.final.batch_size == 256

    def test_progressive_early_stop_in_an_earlier_stage(self, monkeypatch):
        # the restored epoch trained at a batch 4x smaller than the last epoch's
        bundle = data.make_blobs(300, 6, 3, separation=2.0, label_noise=0.3, seed=4)
        cfg = TrainConfig(
            model=ModelSpec("mlp1", 6, 3, hidden_dim=16),
            batch_size=4,
            epochs=60,
            lr=3e-3,
            batch_schedule=BatchSchedule(kind="progressive", factor=2, every_epochs=4),
            early_stop_patience=5,
            seed=0,
        )
        rec, b = measured_batch(monkeypatch, bundle, cfg)
        assert rec.status == "early_stopped"
        assert b == rec.effective_batch[rec.final.epoch] == rec.effective_batch[-1] // 4

    @pytest.mark.parametrize("batch_size, divisor", [(16, 192), (180, 180), (256, 180)])
    def test_no_noise_averaging(self, blob_bundle, monkeypatch, batch_size, divisor):
        # each update averaged ceil(n_train / eff) minibatch gradients
        cfg = quick_config(
            batch_size=batch_size, epochs=2, ablation=Ablation(kind="no_noise_averaging")
        )
        rec, b = measured_batch(monkeypatch, blob_bundle, cfg)
        eff = rec.effective_batch[rec.final.epoch]
        assert b == eff * math.ceil(180 / eff) == divisor

    def test_noisy_graph_running_noise_under_no_noise_averaging(self, monkeypatch):
        # the noise that scales each epoch's diffusion noise is divided by the
        # final noise's batch: every minibatch of the epoch, 16 * ceil(72 / 16)
        bundle = data.make_sbm_graph(120, 2, p_in=0.2, p_out=0.02, d=5, seed=3)
        spec = ModelSpec(
            "graph_diffusion", 5, 2, hidden_dim=6, diffusion_alpha=0.3, diffusion_beta=0.1
        )
        ablation = Ablation(kind="no_noise_averaging")
        cfg = TrainConfig(model=spec, batch_size=16, epochs=3, ablation=ablation, seed=0)
        batches = noise_batches(monkeypatch)
        rec = train_run(bundle, [cfg])[0]
        assert bundle.splits["train"].size == 72 and rec.effective_batch == [16] * 3
        assert batches == [80] * 4  # one probe after each epoch, and the final one

    def test_batches_above_train_rows_measure_alike(self, blob_bundle):
        # B=256 and B=512 both train on the 180 rows at once, identically
        a, b = (
            train_run(blob_bundle, [quick_config(batch_size=bs, epochs=3)])[0] for bs in (256, 512)
        )
        assert a.train_loss == b.train_loss and a.final.sharpness == b.final.sharpness
        assert a.final.grad_noise == b.final.grad_noise
        assert a.final.complexity == b.final.complexity


class TestConfigValidation:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            quick_config(batch_size=0)
        with pytest.raises(ValueError):
            quick_config(epochs=-1)
        with pytest.raises(ValueError):
            quick_config(lr=0.0)
        with pytest.raises(ValueError):
            quick_config(lr_schedule="warmup")
        with pytest.raises(ValueError):
            Ablation(kind="dropout")
        with pytest.raises(ValueError):
            BatchSchedule(kind="progressive", factor=0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Ablation(kind="sam", rho=-0.1), "rho must be >= 0"),
            (lambda: Ablation(kind="l1l2", l1=-1.0), "l1/l2 must be >= 0"),
            (lambda: BatchSchedule(kind="cyclic"), "unknown batch schedule 'cyclic'"),
            (lambda: quick_config(lambda_causal=-0.1), "lambda_causal must be >= 0"),
        ],
        ids=["sam_rho", "l1l2_l1", "batch_schedule_kind", "lambda_causal"],
    )
    def test_invalid_settings_named(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_negative_seed_rejected(self):
        # a seed names the run and roots its random streams
        with pytest.raises(ValueError, match="seed must be >= 0"):
            quick_config(seed=-1)
        assert quick_config(seed=0).seed == 0

    def test_default_sub_configs_shared(self):
        a, b = quick_config(), quick_config()
        assert a.ablation is b.ablation and a.batch_schedule is b.batch_schedule
        assert a == b == quick_config(ablation=Ablation(), batch_schedule=BatchSchedule())

    @pytest.mark.parametrize("unread", [{"start": 4}, {"factor": 8}, {"every_epochs": 1}])
    def test_fixed_schedule_rejects_progressive_settings(self, unread):
        with pytest.raises(ValueError, match="applies only to progressive, not to fixed"):
            BatchSchedule(kind="fixed", **unread)
        BatchSchedule(kind="progressive", **unread)
