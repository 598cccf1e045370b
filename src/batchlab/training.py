"""Mini-batch training loop and the measurement of each finished run.

One ``train_run`` call owns an isolated RNG stream derived from its seed,
applies the configured optimizer / learning-rate schedule / ablation mode /
batch-size schedule, and finishes by measuring gradient noise, curvature,
complexity, and generalization on a fixed probe batch. The result is a
``RunRecord``: the observational unit all causal analysis is built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import scipy.sparse as sp

from . import data as datamod
from . import measures, models

ABLATION_KINDS = ("none", "no_noise_averaging", "sam", "l1l2", "inject_noise")
LR_SCHEDULES = ("fixed", "halve_every_10", "scaled_inverse_B")
OPTIMIZERS = ("adam", "sgd")
BATCH_SCHEDULE_KINDS = ("fixed", "progressive")
SCALED_LR_REFERENCE_B = 16


@dataclass(frozen=True)
class Ablation:
    """Single active ablation mode. A parameter the kind does not read must
    keep its default: ``rho`` belongs to ``sam``, ``l1``/``l2`` to ``l1l2``."""

    kind: str = "none"
    rho: float = 0.05
    l1: float = 0.0
    l2: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ABLATION_KINDS:
            raise ValueError(f"unknown ablation kind {self.kind!r}")
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("l1/l2 must be >= 0")
        if self.kind != "sam" and self.rho != Ablation.rho:
            raise ValueError(f"rho applies only to sam, not to {self.kind}")
        if self.kind != "l1l2" and (self.l1 or self.l2):
            raise ValueError(f"l1/l2 apply only to l1l2, not to {self.kind}")

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class BatchSchedule:
    """Fixed batch size, or progressive growth by ``factor`` every N epochs."""

    kind: str = "fixed"
    start: int | None = None
    factor: int = 2
    every_epochs: int = 10

    def __post_init__(self) -> None:
        if self.kind not in BATCH_SCHEDULE_KINDS:
            raise ValueError(f"unknown batch schedule {self.kind!r}")
        models.require_integers(self, "factor", "every_epochs")
        if self.start is not None:
            models.require_integers(self, "start")
        if self.factor < 1 or self.every_epochs < 1:
            raise ValueError("factor and every_epochs must be >= 1")
        if self.start is not None and self.start < 1:
            raise ValueError("start must be >= 1")

    def effective(self, nominal_b: int, epoch: int, n_train: int) -> int:
        if self.kind == "fixed":
            return min(nominal_b, n_train)
        b = self.start if self.start is not None else nominal_b
        b = b * self.factor ** (epoch // self.every_epochs)
        return min(b, n_train)

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class TrainConfig:
    model: models.ModelSpec
    batch_size: int
    epochs: int
    lr: float = 1e-3
    lr_schedule: str = "fixed"
    optimizer: str = "adam"
    lambda_causal: float = 0.0
    ablation: Ablation = field(default_factory=Ablation)
    batch_schedule: BatchSchedule = field(default_factory=BatchSchedule)
    early_stop_patience: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        models.require_integers(self, "batch_size", "epochs", "early_stop_patience", "seed")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lambda_causal < 0:
            raise ValueError("lambda_causal must be >= 0")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")

    def to_dict(self) -> dict:
        # the nested settings keep their field positions
        return {
            **vars(self),
            "model": self.model.to_dict(),
            "ablation": self.ablation.to_dict(),
            "batch_schedule": self.batch_schedule.to_dict(),
        }


def schedule_lr(config: TrainConfig, epoch: int) -> float:
    """Effective learning rate at an epoch under the configured schedule."""
    if config.lr_schedule == "fixed":
        return config.lr
    if config.lr_schedule == "halve_every_10":
        return config.lr * 2.0 ** (-(epoch // 10))
    return config.lr * SCALED_LR_REFERENCE_B / config.batch_size


# -- optimizer steps ----------------------------------------------------------


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray

    @staticmethod
    def zeros(dim: int) -> "AdamState":
        return AdamState(m=np.zeros(dim), v=np.zeros(dim))


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(
    params: np.ndarray, grad: np.ndarray, state: AdamState, lr: float, t: int
) -> tuple[np.ndarray, AdamState]:
    """Standard bias-corrected Adam update at step ``t`` >= 1; pure (returns
    new arrays). A non-finite gradient makes the parameters non-finite, which
    the training loop's divergence check catches."""
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), AdamState(m=m, v=v)


def noise_injected_gradient(
    grad: np.ndarray, noise_level: float, rng: np.random.Generator
) -> np.ndarray:
    """Gradient plus zero-mean Gaussian noise of std sqrt(noise_level).

    Draws nothing unless noise_level > 0, so a zero level leaves the noise
    stream untouched.
    """
    if noise_level > 0:
        grad = grad + rng.normal(0.0, math.sqrt(noise_level), size=grad.shape)
    return grad


def sam_perturbed_gradient(grad_fn, params: np.ndarray, rho: float) -> np.ndarray:
    """Gradient re-evaluated at params + rho * g/|g| (skipped when g = 0)."""
    g = grad_fn(params)
    norm = float(np.linalg.norm(g))
    if rho == 0.0 or norm == 0.0:
        return g
    return grad_fn(params + rho * g / norm)


# -- graph-specific pieces ----------------------------------------------------


@dataclass(frozen=True)
class EdgeOperators:
    """The edge regularizer's gradient as two fixed sparse operators.

    For an [m x 2] edge array (e0, e1) over n nodes, ``gather`` (m x n, entries
    +1 at e0 and -1 at e1) maps embeddings to the edge differences
    ``emb[e0] - emb[e1]``, and ``scatter`` (n x 2m, entries +2/m in the e0
    columns, then -2/m in the e1 columns) maps ``[diff; diff]`` to the
    embedding gradient of the edge regularizer, the mean over edges of
    ``|emb[e0] - emb[e1]|^2``. A CSR row sum runs in stored column order, so
    each node adds its e0 terms in edge order, then its e1 terms in edge
    order: the same order, and so the same floats, as scattering edge by edge.
    ``train_run`` builds them once per run, since the graph is fixed.
    """

    gather: sp.csr_matrix
    scatter: sp.csr_matrix

    @staticmethod
    def from_edges(edges: np.ndarray, n: int) -> "EdgeOperators":
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        m = e.shape[0]
        gather = sp.csr_matrix(
            (np.repeat([1.0, -1.0], m), (np.tile(np.arange(m), 2), e.T.ravel())), shape=(m, n)
        )
        coef = 2.0 / m
        scatter = sp.csr_matrix(
            (np.repeat([coef, -coef], m), (e.T.ravel(), np.arange(2 * m))), shape=(n, 2 * m)
        )
        return EdgeOperators(gather, scatter)


def _causal_regularizer_grad(embeddings: np.ndarray, ops: EdgeOperators) -> np.ndarray:
    """The edge regularizer's gradient in the embeddings, for a nonempty edge
    set, through the precomputed operators: one gather, one scatter,
    bit-identical to the edge-order scatter."""
    diff = ops.gather @ embeddings
    return ops.scatter @ np.vstack((diff, diff))


def diffusion_update(
    h: np.ndarray,
    adj_norm,
    alpha: float,
    beta: float,
    noise_scale: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One embedding-diffusion step with an optional multiplicative noise term.

    H' = H + alpha (A_norm H - H) + beta (xi ⊙ H), xi iid Normal(0, noise_scale).
    No random numbers are drawn when beta = 0, so the deterministic path is
    bit-identical regardless of the RNG passed. ``ModelSpec`` checks once that
    alpha and beta are finite; this per-step function does not.
    """
    h = np.asarray(h, dtype=np.float64)
    out = h + alpha * (adj_norm @ h - h)
    if beta != 0.0:
        out = out + beta * rng.normal(0.0, noise_scale, size=h.shape) * h
    return out


# -- penalized loss/gradient assembly ------------------------------------------


def gradient_with_penalties(
    spec,
    params: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    lambda_causal: float,
    reg_inputs: np.ndarray,
    edges: EdgeOperators | None,
    l1: float,
    l2: float,
) -> np.ndarray:
    """Analytic gradient of the cross-entropy on (x, y) plus the penalties.

    ``edges`` are the ``EdgeOperators`` of a nonempty edge set, which
    ``train_run`` builds once per run, and only when ``lambda_causal`` > 0;
    with them the gradient adds ``lambda_causal`` times that of the edge
    regularizer on the hidden embeddings of ``reg_inputs``, the whole-graph
    features the edges index. Its gradient runs through the operators,
    bit-identical to scattering ``±2/m * diff`` edge by edge. ``l1`` and
    ``l2`` weight the parameters' L1 norm and squared L2 norm.
    """
    g = models.mean_gradient(spec, params, x, y)
    if edges is not None:
        emb = models.hidden_activations(spec, params, reg_inputs)
        d_emb = _causal_regularizer_grad(emb, edges)
        g = g + lambda_causal * models.hidden_backward(spec, params, reg_inputs, emb, d_emb)
    if l1 > 0.0:
        g = g + l1 * np.sign(params)
    if l2 > 0.0:
        g = g + 2.0 * l2 * params
    return g


# -- run records ----------------------------------------------------------------

RECORD_WALL_FIELDS = ("epoch_wall_seconds", "wall_seconds")


@dataclass
class RunRecord:
    """Everything measured in one training run, JSON-serializable."""

    run_id: str
    dataset_id: str
    model_kind: str
    batch_size: int
    seed: int
    ablation: str
    config: dict
    train_loss: list[float]
    test_loss: list[float]
    test_acc: list[float]
    lr: list[float]
    effective_batch: list[int]
    epoch_wall_seconds: list[float]
    final: measures.Measurement | None
    status: str
    degenerate_reason: str | None = None
    wall_seconds: float = 0.0
    schema_version: int = 1

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "dataset_id": self.dataset_id,
            "model_kind": self.model_kind,
            "batch_size": int(self.batch_size),
            "seed": int(self.seed),
            "ablation": self.ablation,
            "config": self.config,
            "train_loss": [float(x) for x in self.train_loss],
            "test_loss": [float(x) for x in self.test_loss],
            "test_acc": [float(x) for x in self.test_acc],
            "lr": [float(x) for x in self.lr],
            "effective_batch": [int(x) for x in self.effective_batch],
            "epoch_wall_seconds": [float(x) for x in self.epoch_wall_seconds],
            "final": self.final.to_dict() if self.final is not None else None,
            "status": self.status,
            "degenerate_reason": self.degenerate_reason,
            "wall_seconds": float(self.wall_seconds),
        }

    @staticmethod
    def from_dict(d: dict) -> "RunRecord":
        d = dict(d)
        final = d.pop("final")
        return RunRecord(
            final=measures.Measurement.from_dict(final) if final is not None else None, **d
        )

    def canonical_dict(self) -> dict:
        """Record content with wall-clock fields stripped (for equality checks)."""
        out = self.to_dict()
        for key in RECORD_WALL_FIELDS:
            out.pop(key, None)
        return out


# -- the training loop ----------------------------------------------------------


def check_model_fits(spec: models.ModelSpec, dataset: datamod.DatasetBundle) -> None:
    """Raise ``ValueError`` unless the model can train on the dataset: its
    input width is the feature count, it has a class for every label, a
    graph_diffusion model has an adjacency to diffuse over, and the train
    split has the 2 rows that the gradient-noise estimate needs."""
    if spec.input_dim != dataset.features.shape[1] or spec.num_classes < dataset.num_classes:
        raise ValueError(
            f"model spec (input_dim {spec.input_dim}, num_classes {spec.num_classes}) does not "
            f"fit the dataset ({dataset.features.shape[1]} features, {dataset.num_classes} classes)"
        )
    if spec.kind == "graph_diffusion" and dataset.adjacency is None:
        raise ValueError("graph_diffusion model requires a graph dataset")
    if dataset.splits["train"].size < 2:
        raise ValueError("train split too small")


def train_run(dataset: datamod.DatasetBundle, config: TrainConfig) -> RunRecord:
    """Run one seeded training job and measure its final state.

    Deterministic given (dataset, config): all randomness flows from three
    child streams of the config seed (init, shuffling, noise). Wall-clock
    fields are the only nondeterministic outputs. A run is marked degenerate
    when the parameters or the loss leave the finite range or the final
    sharpness/noise leave the complexity domain; degenerate records carry no
    final measurement. The model spec is checked against the dataset once,
    here (``check_model_fits``); the kernels called per step check nothing.
    """
    t_start = perf_counter()
    spec = config.model
    abl = config.ablation
    check_model_fits(spec, dataset)
    train_idx = dataset.splits["train"]
    val_idx = dataset.splits["val"]
    test_idx = dataset.splits["test"]
    n_train = train_idx.size
    labels = dataset.labels

    seed_seq = np.random.SeedSequence(config.seed)
    rng_init, rng_shuffle, rng_noise = (np.random.default_rng(s) for s in seed_seq.spawn(3))
    params = models.init_params(spec, rng_init)

    def diffused(beta: float, noise_scale: float = 0.0) -> np.ndarray:
        # the features after spec.diffusion_steps diffusion steps
        h = dataset.features
        for _ in range(spec.diffusion_steps):
            h = diffusion_update(h, adj_norm, spec.diffusion_alpha, beta, noise_scale, rng_noise)
        return h

    is_graph = spec.kind == "graph_diffusion"
    if is_graph:
        adj_norm = models.normalized_adjacency(dataset.adjacency)
    det_features = diffused(0.0) if is_graph else dataset.features
    edge_ops = None
    if is_graph and config.lambda_causal > 0.0:
        edges = datamod.edge_list(dataset.adjacency)
        if len(edges):
            edge_ops = EdgeOperators.from_edges(edges, dataset.features.shape[0])

    probe_idx = train_idx[: min(256, n_train)]
    x_train, x_val, x_test, x_probe = (
        det_features[i] for i in (train_idx, val_idx, test_idx, probe_idx)
    )
    y_train, y_val, y_test, y_probe = (labels[i] for i in (train_idx, val_idx, test_idx, probe_idx))

    def probe_noise(x: np.ndarray, b: int) -> float:
        # gradient noise at batch size b of the probe rows of features x
        return measures.gradient_noise(models.per_sample_gradients(spec, params, x, y_probe), b)

    def grad_at(p: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # the edge term penalizes the whole graph under this epoch's features
        return gradient_with_penalties(
            spec,
            p,
            x,
            y,
            lambda_causal=config.lambda_causal,
            reg_inputs=train_features,
            edges=edge_ops,
            l1=abl.l1,
            l2=abl.l2,
        )

    def minibatch_gradient(idx: np.ndarray) -> np.ndarray:
        # the gradient the ablation takes on the minibatch rows idx
        xb, yb = train_features[idx], labels[idx]
        if abl.kind == "sam":
            return sam_perturbed_gradient(lambda p: grad_at(p, xb, yb), params, abl.rho)
        g = grad_at(params, xb, yb)
        if abl.kind == "inject_noise":
            g = noise_injected_gradient(g, inject_level, rng_noise)
        return g

    adam_state = AdamState.zeros(params.size)
    step_count = 0

    def apply_update(p: np.ndarray, g: np.ndarray, lr: float) -> np.ndarray:
        nonlocal adam_state, step_count
        step_count += 1
        if config.optimizer == "adam":
            new_p, adam_state = adam_step(p, g, adam_state, lr, t=step_count)
            return new_p
        return p - lr * g

    series: dict[str, list] = {k: [] for k in ("train_loss", "test_loss", "test_acc")}
    lr_log: list[float] = []
    batch_log: list[int] = []
    wall_log: list[float] = []
    status = "completed"
    reason = None
    best = {"val": math.inf, "params": params.copy(), "epoch": -1}
    bad_epochs = 0
    running_noise: float | None = None
    epochs_run = 0

    for epoch in range(config.epochs):
        epoch_t0 = perf_counter()
        lr = schedule_lr(config, epoch)
        eff_b = config.batch_schedule.effective(config.batch_size, epoch, n_train)

        train_features = det_features
        if is_graph and spec.diffusion_beta != 0.0:
            scale = math.sqrt(running_noise) if running_noise and running_noise > 0 else 0.0
            train_features = diffused(spec.diffusion_beta, scale)

        if abl.kind == "inject_noise":
            inject_level = probe_noise(train_features[probe_idx], eff_b)

        # one update per group: no_noise_averaging averages every minibatch
        # of the epoch into one, every other kind updates per minibatch
        order = rng_shuffle.permutation(n_train)
        batches = [train_idx[order[i : i + eff_b]] for i in range(0, n_train, eff_b)]
        groups = [batches] if abl.kind == "no_noise_averaging" else [[idx] for idx in batches]
        for group in groups:
            grads = [minibatch_gradient(idx) for idx in group]
            g = grads[0] if len(grads) == 1 else np.mean(grads, axis=0)
            params = apply_update(params, g, lr)
            if not np.isfinite(params).all():
                status, reason = "degenerate", "non-finite parameters"
                break
        if status == "degenerate":
            break

        train_loss = models.forward_loss(spec, params, x_train, y_train)
        test_loss = models.forward_loss(spec, params, x_test, y_test)
        val_loss = models.forward_loss(spec, params, x_val, y_val)
        series["train_loss"].append(train_loss)
        series["test_loss"].append(test_loss)
        series["test_acc"].append(models.predict_accuracy(spec, params, x_test, y_test))
        lr_log.append(lr)
        batch_log.append(eff_b)
        wall_log.append(perf_counter() - epoch_t0)
        epochs_run += 1

        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            status, reason = "degenerate", "non-finite loss"
            break

        if is_graph and spec.diffusion_beta != 0.0:
            running_noise = probe_noise(x_probe, eff_b)

        if val_loss < best["val"]:
            best = {"val": val_loss, "params": params.copy(), "epoch": epoch}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.early_stop_patience:
                status = "early_stopped"
                break

    if status == "early_stopped" and best["epoch"] >= 0:
        params = best["params"]
        final_epoch = best["epoch"]
    else:
        final_epoch = epochs_run - 1

    final = None
    if status != "degenerate":
        if abl.kind == "no_noise_averaging":
            divisor_b = config.batch_size * math.ceil(n_train / config.batch_size)
        elif config.batch_schedule.kind == "progressive":
            divisor_b = config.batch_schedule.effective(
                config.batch_size, max(epochs_run - 1, 0), n_train
            )
        else:
            divisor_b = config.batch_size
        try:
            noise = probe_noise(x_probe, divisor_b)
            sharpness, _ = measures.sharpness_lambda_max(
                models.hvp_operator(spec, params, x_probe, y_probe), dim=params.size
            )
            comp = measures.complexity(sharpness, noise)
            gen = measures.measure_generalization(
                models.forward_loss(spec, params, x_train, y_train),
                models.forward_loss(spec, params, x_test, y_test),
                models.predict_accuracy(spec, params, x_test, y_test),
            )
            final = measures.Measurement(
                grad_noise=noise,
                sharpness=sharpness,
                complexity=comp,
                test_accuracy=gen.accuracy,
                gen_gap=gen.gap,
                batch_size=config.batch_size,
                epoch=final_epoch,
            )
        except measures.ComplexityDomainError as exc:
            status, reason = "degenerate", f"complexity domain: {exc}"
        except ValueError as exc:
            status, reason = "degenerate", str(exc)

    return RunRecord(
        run_id=f"b{config.batch_size}-s{config.seed}-{abl.kind}",
        dataset_id=dataset.dataset_id,
        model_kind=spec.kind,
        batch_size=config.batch_size,
        seed=config.seed,
        ablation=abl.kind,
        config=config.to_dict(),
        train_loss=series["train_loss"],
        test_loss=series["test_loss"],
        test_acc=series["test_acc"],
        lr=lr_log,
        effective_batch=batch_log,
        epoch_wall_seconds=wall_log,
        final=final,
        status=status,
        degenerate_reason=reason,
        wall_seconds=perf_counter() - t_start,
    )
