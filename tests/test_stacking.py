"""A seed's record is the same whether it trains alone or in a stack.

The stack-aware kernels give every row of a seed stack the floats of the call
on that row alone; ``train_run`` gives each seed of a cell the record it gets
alone, whatever the other seeds do; and the sweep stacks a cell's pending
seeds, splits cells across idle workers and resumes a half-finished cell to
the records of a fresh sweep.
"""

import dataclasses
import json

import numpy as np
import pytest

from batchlab import data, models, sweep, training
from batchlab.config import build_sweep_config
from batchlab.models import ModelSpec
from batchlab.training import Ablation, BatchSchedule, TrainConfig


def canonical(records):
    return [json.dumps(r.canonical_dict(), sort_keys=True) for r in records]


def train_alone_and_stacked(bundle, seeds, **settings):
    """The records of ``seeds`` trained one at a time and as one stack,
    after checking that they are identical."""
    configs = [TrainConfig(seed=s, **settings) for s in seeds]
    alone = [training.train_run(bundle, [c])[0] for c in configs]
    stacked = training.train_run(bundle, configs)
    assert canonical(stacked) == canonical(alone)
    return stacked


def poison_minibatches(monkeypatch, bundle, row, value):
    """Make ``models.mean_gradient`` put ``value`` in every gradient of a seed
    stack whose minibatch starts with train row ``row``. Whether a seed's
    minibatch does so depends on its own shuffle only, so a seed is poisoned
    at the same update alone and in a stack. Returns the count of poisoned
    gradients."""
    target = bundle.features[bundle.splits["train"][row]]
    real = models.mean_gradient
    hits = []

    def poisoned(spec, params, x, y, out=None):
        g = real(spec, params, x, y, out=out)
        if x.ndim >= 3:  # a stack's minibatches [S, b, d], or [S, M, b, d]
            hit = (x[..., 0, :] == target).all(axis=-1)
            g[hit] = value
            hits.append(int(hit.sum()))
        return g

    monkeypatch.setattr(models, "mean_gradient", poisoned)
    return hits


def isolated_zero_node(bundle, row):
    """``bundle`` with the node of train row ``row`` cut from the graph and
    its features zeroed. Diffusion, noisy or not, keeps them zero, so
    ``poison_minibatches`` finds the node's minibatches by its features."""
    node = bundle.splits["train"][row]
    features = bundle.features.copy()
    features[node] = 0.0
    edges = bundle.edges[(bundle.edges != node).all(axis=1)]
    return dataclasses.replace(bundle, features=features, edges=edges)


class TestStackedKernels:
    @pytest.mark.parametrize("kind", ["logistic", "mlp1"])
    def test_every_row_bit_identical_to_the_row_alone(self, kind):
        # np.matmul must run the same per-matrix routine on a stack, with its
        # swapped-axis transposes, as on one matrix: checked over many shapes
        rng = np.random.default_rng(0)
        graph_widths = set()
        for _ in range(30):
            s, m = (int(v) for v in rng.integers(1, 5, size=2))
            choices = ([1, 2, 5, 16, 33, 100], [1, 3, 12], [1, 4, 5, 32], [2, 3, 7])
            n, d, h, k = (int(rng.choice(c)) for c in choices)
            spec = ModelSpec(kind, d, k, hidden_dim=h if kind == "mlp1" else 0)
            params = rng.standard_normal((s, models.param_count(spec))) * 10.0 ** rng.uniform(-2, 1)
            x, y = rng.standard_normal((s, m, n, d)), rng.integers(0, k, (s, m, n))

            got = models.mean_gradient(spec, params, x[:, 0], y[:, 0])
            out = np.empty((s, m, params.shape[1]))
            assert models.mean_gradient(spec, params, x, y, out=out) is out
            for i in range(s):
                alone = models.mean_gradient(spec, params[i], x[i, 0], y[i, 0])
                assert np.array_equal(got[i], alone)
                for j in range(m):
                    alone = models.mean_gradient(spec, params[i], x[i, j], y[i, j])
                    assert np.array_equal(out[i, j], alone)
            if kind == "logistic":
                continue
            for features in (x[0, 0], x[:, 0]):  # shared [n, d], then one per seed
                act = models.hidden_activations(spec, params, features)
                d_hidden = rng.standard_normal(act.shape)
                back = models.hidden_backward(spec, params, features, act, d_hidden)
                for i in range(s):
                    xi = features if features.ndim == 2 else features[i]
                    act_i = models.hidden_activations(spec, params[i], xi)
                    assert np.array_equal(act[i], act_i)
                    expect = models.hidden_backward(spec, params[i], xi, act_i, d_hidden[i])
                    assert np.array_equal(back[i], expect)
            if n < 2:
                continue
            # the edge penalty's Laplacian product over the whole stack, on a
            # random graph with repeated endpoints
            edges = rng.integers(0, n, size=(int(rng.integers(1, 3 * n)), 2))
            edges = edges[edges[:, 0] != edges[:, 1]]
            if len(edges) == 0:
                edges = np.array([[0, 1]])
            lap = training.edge_laplacian(edges, n)
            graph_widths.add(h)
            for features in (x[0, 0], x[:, 0]):
                got = training.gradient_with_penalties(
                    spec, params, x[:, 0], y[:, 0], 0.7, features, lap, 0.0, 0.0
                )
                for i in range(s):
                    xi = features if features.ndim == 2 else features[i]
                    alone = training.gradient_with_penalties(
                        spec, params[i], x[i, 0], y[i, 0], 0.7, xi, lap, 0.0, 0.0
                    )
                    assert np.array_equal(got[i], alone)
        if kind == "mlp1":
            assert {1, 5} <= graph_widths  # hidden widths that are not multiples of 4

    @pytest.mark.parametrize("kind", ["logistic", "mlp1"])
    def test_evaluation_of_a_stack_bit_identical_to_each_seed_alone(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(30):
            s = int(rng.integers(1, 5))
            n = int(rng.choice([1, 2, 7, 60, 129, 301]))
            d, h, k = (int(rng.choice(c)) for c in ([1, 4, 16, 33], [1, 5, 32], [2, 3, 8, 10]))
            spec = ModelSpec(kind, d, k, hidden_dim=h if kind == "mlp1" else 0)
            params = rng.standard_normal((s, models.param_count(spec))) * 10.0 ** rng.uniform(-2, 1)
            y = rng.integers(0, k, n)
            for x in (rng.standard_normal((n, d)), rng.standard_normal((s, n, d))):
                loss, accuracy = models.evaluate(spec, params, x, y)
                assert loss.shape == accuracy.shape == (s,)
                assert np.array_equal(models.forward_loss(spec, params, x, y), loss)
                for i in range(s):
                    alone = models.evaluate(spec, params[i], x if x.ndim == 2 else x[i], y)
                    assert loss[i] == alone[0] and accuracy[i] == alone[1]

    @pytest.mark.parametrize("k", [2, 3, 7, 8, 10, 16])
    def test_log_softmax_equals_the_max_reduction_formula(self, k):
        # the class max taken column by column is exact; the normalizer keeps
        # numpy's pairwise sum, which a column loop would leave from 8 classes
        rng = np.random.default_rng(k)
        z = rng.standard_normal((4, 129, k)) * 10.0 ** rng.uniform(-3, 3, (4, 129, 1))
        z[0, :3] = 0.0
        z[0, 3, : k // 2] = -0.0
        shifted = z - z.max(axis=-1, keepdims=True)
        expect = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        got = models._log_softmax(z)
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))

    def test_ten_class_loss_equals_the_mean_of_picked_log_probabilities(self):
        rng = np.random.default_rng(10)
        spec = ModelSpec("mlp1", 5, 10, hidden_dim=7)
        params = rng.standard_normal(models.param_count(spec))
        x, y = rng.standard_normal((200, 5)), rng.integers(0, 10, 200)
        z = models._forward(spec, params, x)[0]
        shifted = z - z.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        loss, accuracy = models.evaluate(spec, params, x, y)
        assert loss == models.forward_loss(spec, params, x, y) == -logp[np.arange(200), y].mean()
        assert accuracy == (z.argmax(axis=1) == y).mean()

    @pytest.mark.parametrize("steps", [1, 3])
    def test_diffusion_of_a_stack_bit_identical_to_each_seed_alone(self, steps):
        # one diffusion for the stack: a shared first step, then one product
        # with the seeds side by side; each seed draws its own noise in order
        rng = np.random.default_rng(4)
        edges = data.make_sbm_graph(60, 2, p_in=0.2, p_out=0.05, d=3, seed=1).edges
        a_norm = training.normalized_adjacency(edges, 60)
        x = rng.standard_normal((60, 3))
        scales = [0.0, 0.3, 1.7]
        stacked = x
        noise = [(scale, np.random.default_rng(i)) for i, scale in enumerate(scales)]
        for _ in range(steps):
            stacked = training.diffusion_update(stacked, a_norm, 0.4, 0.2, noise)
        assert stacked.shape == (3, 60, 3)
        for i, scale in enumerate(scales):
            alone = x
            seed_noise = [(scale, np.random.default_rng(i))]
            for _ in range(steps):
                alone = training.diffusion_update(alone, a_norm, 0.4, 0.2, seed_noise)
            assert np.array_equal(stacked[i], alone[0])
            if steps == 1:  # the step's formula, with the seed's own draw
                xi = np.random.default_rng(i).normal(0.0, scale, size=x.shape)
                assert np.array_equal(stacked[i], x + 0.4 * (a_norm @ x - x) + 0.2 * xi * x)
        # without noise, a stack diffuses each seed's features as they would alone
        plain = training.diffusion_update(stacked, a_norm, 0.4)
        for i in range(3):
            assert np.array_equal(plain[i], training.diffusion_update(stacked[i], a_norm, 0.4))

    def test_np_mean_sums_a_middle_axis_in_order_from_zero(self):
        # train_run sums no_noise_averaging's minibatch gradients this way, a
        # bounded chunk at a time, and must get np.mean's floats, signed zeros
        # included
        rng = np.random.default_rng(2)
        for trial in range(300):
            s, m = (int(v) for v in rng.integers(2, 9, size=2))
            p = int(rng.choice([2, 7, 131, 2000]))
            g = rng.standard_normal((s, m, p)) * 10.0 ** rng.uniform(-5, 5, (s, m, 1))
            if trial % 2:
                g[g < 0.1] = -0.0
            total = np.zeros((s, p))
            for j in range(m):
                total += g[:, j]
            expect = np.mean(g, axis=1)
            assert np.array_equal(total / m, expect)
            assert np.array_equal(np.signbit(total / m), np.signbit(expect))

    def test_sam_keeps_a_zero_gradient_row_and_perturbs_the_others(self):
        rng = np.random.default_rng(1)
        spec = ModelSpec("mlp1", 3, 2, hidden_dim=4)
        params = rng.standard_normal((3, models.param_count(spec)))
        x, y = rng.standard_normal((3, 6, 3)), rng.integers(0, 2, (3, 6))

        def grad_fn(rows):
            def fn(p):
                g = models.mean_gradient(spec, p, x[rows], y[rows])
                g[rows == 1] = 0.0  # seed 1's gradient is zero
                return g

            return fn

        got = training.sam_perturbed_gradient(grad_fn(np.arange(3)), params, 0.05)
        assert not got[1].any()
        for i in range(3):
            alone = training.sam_perturbed_gradient(grad_fn(np.array([i])), params[i : i + 1], 0.05)
            assert np.array_equal(got[i], alone[0])
        assert not np.array_equal(got[0], models.mean_gradient(spec, params[0], x[0], y[0]))


@pytest.fixture(scope="module")
def blobs():
    return data.make_blobs(150, 4, 3, separation=3.0, label_noise=0.1, seed=2)


@pytest.fixture(scope="module")
def sbm():
    return data.make_sbm_graph(90, 2, p_in=0.2, p_out=0.02, d=4, seed=3)


MLP = ModelSpec("mlp1", 4, 3, hidden_dim=6)
NOISY_GRAPH = ModelSpec(
    "graph_diffusion", 4, 2, hidden_dim=5, diffusion_alpha=0.3, diffusion_beta=0.1
)
NON_FINITE = "non-finite parameters"


class TestStackedTrainRun:
    @pytest.mark.parametrize(
        "settings",
        [
            dict(model=MLP, batch_size=16),
            dict(model=ModelSpec("logistic", 4, 3), batch_size=16),
            dict(model=MLP, batch_size=16, ablation=Ablation("sam", rho=0.05)),
            dict(model=MLP, batch_size=16, ablation=Ablation("inject_noise")),
            dict(model=MLP, batch_size=16, ablation=Ablation("l1l2", l1=1e-3, l2=1e-2)),
            # 90 train rows: 6 minibatches of 14 and a short one of 6
            dict(model=MLP, batch_size=14, ablation=Ablation("no_noise_averaging")),
            dict(model=MLP, batch_size=16, epochs=12, lr_schedule="halve_every_10"),
            dict(model=MLP, batch_size=32, lr_schedule="scaled_inverse_B"),
            dict(
                model=MLP,
                batch_size=8,
                epochs=6,
                batch_schedule=BatchSchedule("progressive", factor=3, every_epochs=2),
            ),
            dict(model=MLP, batch_size=16, optimizer="sgd", lr=0.05),
        ],
        ids=[
            "none",
            "logistic",
            "sam",
            "inject_noise",
            "l1l2",
            "no_noise_averaging_short_batch",
            "halve_every_10",
            "scaled_inverse_B",
            "progressive",
            "sgd",
        ],
    )
    def test_stack_of_three_equals_each_seed_alone(self, blobs, settings):
        settings = {"epochs": 3, "early_stop_patience": 100, **settings}
        records = train_alone_and_stacked(blobs, [0, 1, 2], **settings)
        assert [r.seed for r in records] == [0, 1, 2]
        assert len({r.train_loss[-1] for r in records}) == 3

    @pytest.mark.parametrize(
        "ablation",
        [Ablation(kind) for kind in ("none", "sam", "no_noise_averaging", "inject_noise")],
        ids=lambda a: a.kind,
    )
    def test_graph_model_with_diffusion_noise_and_edge_penalty(self, sbm, ablation):
        spec = ModelSpec(
            "graph_diffusion", 4, 2, hidden_dim=5, diffusion_alpha=0.3, diffusion_beta=0.1
        )
        train_alone_and_stacked(
            sbm, [0, 1, 2], model=spec, batch_size=16, epochs=3, lambda_causal=0.5,
            ablation=ablation,
        )

    def test_no_noise_averaging_takes_its_minibatches_in_bounded_calls(self, monkeypatch, blobs):
        # 90 train rows at batch 14: six full minibatches and a short one; with
        # room for 28 rows per call a stack of two takes one full minibatch
        # per call, and a seed alone two
        settings = dict(
            model=MLP, batch_size=14, epochs=3, ablation=Ablation("no_noise_averaging")
        )
        whole = train_alone_and_stacked(blobs, [0, 1], **settings)
        real, shapes = models.mean_gradient, []

        def recording(spec, params, x, y, out=None):
            shapes.append(x.shape[:-1])
            return real(spec, params, x, y, out=out)

        monkeypatch.setattr(models, "mean_gradient", recording)
        monkeypatch.setattr(training, "MAX_STACK_ROWS", 28)
        chunked = train_alone_and_stacked(blobs, [0, 1], **settings)
        assert canonical(chunked) == canonical(whole)
        assert (2, 1, 14) in shapes and (1, 2, 14) in shapes
        assert max(np.prod(s) for s in shapes if len(s) == 3) == 28

    @pytest.mark.parametrize(
        "settings, row, statuses",
        [
            # seed 3 diverges in its 4th epoch and seed 5 in its 7th, both
            # mid-epoch; seed 2 early-stops and seed 0 trains to the end
            (dict(), 5, [("completed", 8), ("early_stopped", 7), (NON_FINITE, 3), (NON_FINITE, 6)]),
            (
                dict(ablation=Ablation("sam", rho=0.05)),
                5,
                [("early_stopped", 8), ("early_stopped", 7), (NON_FINITE, 3), (NON_FINITE, 6)],
            ),
            (
                dict(ablation=Ablation("inject_noise")),
                5,
                [("completed", 8), ("early_stopped", 7), (NON_FINITE, 3), (NON_FINITE, 6)],
            ),
            # 90 train rows at batch 14: the [S, M, b, d] minibatches of one update
            (
                dict(batch_size=14, ablation=Ablation("no_noise_averaging")),
                6,
                [("completed", 8), ("completed", 8), (NON_FINITE, 6), (NON_FINITE, 7)],
            ),
            (
                dict(optimizer="sgd", lr=0.05),
                5,
                [("completed", 8), ("completed", 8), (NON_FINITE, 3), (NON_FINITE, 6)],
            ),
            (
                dict(model=NOISY_GRAPH, lambda_causal=0.5),
                11,
                [(NON_FINITE, 4), (NON_FINITE, 7), ("completed", 8), ("completed", 8)],
            ),
        ],
        ids=["none", "sam", "inject_noise", "no_noise_averaging", "sgd", "noisy_graph"],
    )
    def test_seeds_that_stop_or_diverge_leave_the_stack(
        self, monkeypatch, sbm, settings, row, statuses
    ):
        if "model" in settings:
            bundle = isolated_zero_node(sbm, row)
        else:
            bundle = data.make_blobs(150, 4, 2, separation=2.0, label_noise=0.3, seed=5)
        hits = poison_minibatches(monkeypatch, bundle, row, np.nan)
        model = ModelSpec("mlp1", 4, 2, hidden_dim=8)
        base = dict(model=model, batch_size=16, epochs=8, lr=0.01, early_stop_patience=2)
        records = train_alone_and_stacked(bundle, [0, 2, 3, 5], **{**base, **settings})
        assert sum(hits) > 0
        got = [(r.degenerate_reason or r.status, len(r.lr)) for r in records]
        assert got == statuses
        for r in records:  # a diverged seed logs nothing of the epoch it diverged in
            assert len(r.train_loss) == len(r.effective_batch) == len(r.epoch_wall_seconds) == len(r.lr)

    def test_a_seed_that_diverges_mid_epoch_leaves_at_the_epochs_end(self, monkeypatch):
        # seed 3 diverges in its 4th epoch, seed 5 in its 7th, as seed 2
        # early-stops: every update of an epoch takes the stack that began it
        bundle = data.make_blobs(150, 4, 2, separation=2.0, label_noise=0.3, seed=5)
        poison_minibatches(monkeypatch, bundle, 5, np.nan)
        poisoned, stack_sizes = models.mean_gradient, []

        def counting(spec, params, x, y, out=None):
            stack_sizes.append(len(params))
            return poisoned(spec, params, x, y, out=out)

        monkeypatch.setattr(models, "mean_gradient", counting)
        spec = ModelSpec("mlp1", 4, 2, hidden_dim=8)
        configs = [
            TrainConfig(model=spec, batch_size=16, epochs=8, lr=0.01, early_stop_patience=2, seed=s)
            for s in (0, 2, 3, 5)
        ]
        training.train_run(bundle, configs)
        # 90 train rows at batch 16: 6 updates, one gradient call each, per epoch
        assert len(stack_sizes) == 8 * 6
        epochs = [stack_sizes[i : i + 6] for i in range(0, 8 * 6, 6)]
        assert epochs == [[size] * 6 for size in (4, 4, 4, 4, 3, 3, 3, 1)]

    def test_noisy_graph_seed_with_a_non_finite_loss_leaves_the_stack(self, monkeypatch, sbm):
        # seed 1's first update spreads its output biases to -+1.5e308: its
        # parameters stay finite, but a logit difference overflows, so its
        # first train loss is inf; the poisoned update is found by the seed's
        # initial parameters, the same alone and in a stack
        spec = NOISY_GRAPH
        rng_init = np.random.default_rng(np.random.SeedSequence(1).spawn(3)[0])
        target = models.init_params(spec, rng_init)
        poison = np.zeros_like(target)
        poison[spec.layout.b2] = [1.5e308, -1.5e308]
        real = models.mean_gradient

        def poisoned(spec, params, x, y, out=None):
            g = real(spec, params, x, y, out=out)
            g[(params == target).all(axis=-1)] = poison
            return g

        monkeypatch.setattr(models, "mean_gradient", poisoned)
        settings = dict(model=spec, batch_size=16, epochs=3, lr=1.0, optimizer="sgd")
        with np.errstate(over="ignore", invalid="ignore"):
            records = train_alone_and_stacked(sbm, [0, 1, 2], **settings)
        statuses = [(r.status, r.degenerate_reason, len(r.lr)) for r in records]
        assert statuses[1] == ("degenerate", "non-finite loss", 1)
        assert records[1].train_loss == [np.inf]
        assert [s[0] for s in statuses[::2]] == ["completed", "completed"]

    def test_sam_seed_with_a_zero_gradient(self, monkeypatch, blobs):
        hits = poison_minibatches(monkeypatch, blobs, 5, 0.0)
        train_alone_and_stacked(
            blobs, [3, 4, 6], model=MLP, batch_size=16, epochs=4, ablation=Ablation("sam", rho=0.05)
        )
        assert sum(hits) > 0

    def test_configs_of_one_stack_differ_in_distinct_seeds_only(self, blobs):
        base = TrainConfig(model=MLP, batch_size=16, epochs=1)
        for configs in (
            [base, TrainConfig(model=MLP, batch_size=32, epochs=1, seed=1)],
            [base, TrainConfig(model=MLP, batch_size=16, epochs=1)],
        ):
            with pytest.raises(ValueError, match="distinct seeds only"):
                training.train_run(blobs, configs)


SWEEP = {
    "dataset": {"kind": "blobs", "n": 120, "d": 4, "num_classes": 2, "seed": 3},
    "model": {"kind": "mlp1", "hidden": 4},
    "batch_sizes": [16, 64],
    "seeds": [0, 1, 2],
    "train": {"epochs": 2},
    "ablations": [{"kind": "sam"}],
}


class TestSweepCells:
    def test_work_units_are_cells_split_by_seed_for_idle_workers(self):
        _, planned = sweep.plan_sweep(build_sweep_config(SWEEP))

        def keys(units):
            return [[(tc.batch_size, tc.ablation.kind, tc.seed) for tc in unit] for unit in units]

        cells = keys(sweep.work_units(planned, 1))
        assert cells == [
            [(b, kind, s) for s in (0, 1, 2)] for b in (16, 64) for kind in ("none", "sam")
        ]
        assert keys(sweep.work_units(planned, 4)) == cells
        six = keys(sweep.work_units(planned, 6))
        assert [len(u) for u in six] == [2, 1, 2, 1, 3, 3]
        assert sum(six, []) == sum(cells, [])
        assert [len(u) for u in sweep.work_units(planned, 100)] == [1] * 12
        assert sweep.work_units([], 3) == []

    def test_resume_stacks_only_a_cells_pending_seeds(self, tmp_path, monkeypatch):
        cfg = build_sweep_config(SWEEP)
        fresh = sweep.run_sweep(cfg, records_path=tmp_path / "fresh.jsonl", workers=1)
        path = tmp_path / "resumed.jsonl"
        sweep.run_sweep(build_sweep_config(dict(SWEEP, seeds=[1])), records_path=path, workers=1)
        stacks = []
        real = training.train_run

        def recording(dataset, configs):
            stacks.append([(tc.batch_size, tc.ablation.kind, tc.seed) for tc in configs])
            return real(dataset, configs)

        monkeypatch.setattr(training, "train_run", recording)
        resumed = sweep.run_sweep(cfg, records_path=path, workers=1)
        cells = [(b, kind) for b in (16, 64) for kind in ("none", "sam")]
        assert stacks == [[(b, kind, 0), (b, kind, 2)] for b, kind in cells]
        assert canonical(resumed) == canonical(fresh)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        # the half-finished cells' seed-1 records first, then each cell's new records together
        assert [(d["batch_size"], d["ablation"], d["seed"]) for d in lines[4:]] == sum(stacks, [])
