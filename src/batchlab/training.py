"""Mini-batch training loop and the measurement of each finished run.

One ``train_run`` call trains the seeds of one sweep cell (runs whose
configs differ only in the seed) as one stacked computation: the parameters,
optimizer state and minibatches of the active seeds are ``[S, ...]`` arrays,
and each update is one call of the stack-aware kernels (``models``; a few
calls of at most ``MAX_STACK_ROWS`` rows under ``no_noise_averaging`` on a
large dataset). Each seed keeps its own RNG streams (initialization,
shuffling, noise), its early stop, its best-parameters restore and its
divergence exit; a seed that stops or diverges leaves the stack, and the
others go on. Each epoch evaluates the whole active stack in one call per
split, and a noisy graph model diffuses the stack's features in one call per
step; the gradient-noise probes and the final measurement of gradient noise,
curvature and complexity on a fixed probe batch run per seed. A seed's
``RunRecord``, the observational unit of all causal analysis, is built when
the cell starts and filled as the seed trains, its final accuracy and gap
read from its epoch log. It is bit-identical outside its wall-clock fields
whether the seed trains alone or in a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from . import data as datamod
from . import measures, models

if TYPE_CHECKING:
    import scipy.sparse as sp

ABLATION_KINDS = ("none", "no_noise_averaging", "sam", "l1l2", "inject_noise")
LR_SCHEDULES = ("fixed", "halve_every_10", "scaled_inverse_B")
OPTIMIZERS = ("adam", "sgd")
BATCH_SCHEDULE_KINDS = ("fixed", "progressive")
SCALED_LR_REFERENCE_B = 16
# rows of all seeds in one no_noise_averaging gradient call, which bounds a
# stack's per-call inputs and activations on large datasets
MAX_STACK_ROWS = 16384


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
        models.require_reals(rho=self.rho, l1=self.l1, l2=self.l2)
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("l1/l2 must be >= 0")
        models.require_unread_defaults(self, rho=("sam",), l1=("l1l2",), l2=("l1l2",))

    def to_dict(self) -> dict:
        return dict(vars(self))


DEFAULT_ABLATION = Ablation()


@dataclass(frozen=True)
class BatchSchedule:
    """Fixed batch size, or progressive growth by ``factor`` every N epochs.
    A parameter the kind does not read must keep its default: ``start``,
    ``factor`` and ``every_epochs`` belong to ``progressive``."""

    kind: str = "fixed"
    start: int | None = None
    factor: int = 2
    every_epochs: int = 10

    def __post_init__(self) -> None:
        if self.kind not in BATCH_SCHEDULE_KINDS:
            raise ValueError(f"unknown batch schedule {self.kind!r}")
        models.require_integers(factor=self.factor, every_epochs=self.every_epochs)
        if self.start is not None:
            models.require_integers(start=self.start)
        if self.factor < 1 or self.every_epochs < 1:
            raise ValueError("factor and every_epochs must be >= 1")
        if self.start is not None and self.start < 1:
            raise ValueError("start must be >= 1")
        readers = dict.fromkeys(("start", "factor", "every_epochs"), ("progressive",))
        models.require_unread_defaults(self, **readers)

    def effective(self, nominal_b: int, epoch: int, n_train: int) -> int:
        if self.kind == "fixed":
            return min(nominal_b, n_train)
        b = self.start if self.start is not None else nominal_b
        b = b * self.factor ** (epoch // self.every_epochs)
        return min(b, n_train)

    def to_dict(self) -> dict:
        return dict(vars(self))


DEFAULT_BATCH_SCHEDULE = BatchSchedule()


@dataclass(frozen=True)
class TrainConfig:
    """One run's training settings. The fields a sweep does not set per run
    (all but model, batch size, seed and ablation) are the ``train`` keys."""

    model: models.ModelSpec
    batch_size: int
    epochs: int = 50
    lr: float = 1e-3
    lr_schedule: str = "fixed"
    optimizer: str = "adam"
    lambda_causal: float = 0.0
    ablation: Ablation = DEFAULT_ABLATION  # frozen, so every config shares one
    batch_schedule: BatchSchedule = DEFAULT_BATCH_SCHEDULE
    early_stop_patience: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        models.require_integers(
            batch_size=self.batch_size,
            epochs=self.epochs,
            early_stop_patience=self.early_stop_patience,
            seed=self.seed,
        )
        models.require_reals(lr=self.lr, lambda_causal=self.lambda_causal)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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


def cell_key(config: TrainConfig) -> tuple:
    """Every field of ``config`` but the seed: runs with equal keys form one
    sweep cell, which ``train_run`` trains as one stack."""
    return tuple(value for name, value in vars(config).items() if name != "seed")


def run_name(batch_size: int, seed: int, ablation: str) -> str:
    """The record name of a run: ``b{B}-s{seed}-{ablation}``."""
    return f"b{batch_size}-s{seed}-{ablation}"


def run_id(config: TrainConfig) -> str:
    """The run's record name, by which a sweep resumes it."""
    return run_name(config.batch_size, config.seed, config.ablation.kind)


def schedule_lr(config: TrainConfig, epoch: int) -> float:
    """Effective learning rate at an epoch under the configured schedule."""
    if config.lr_schedule == "fixed":
        return float(config.lr)
    if config.lr_schedule == "halve_every_10":
        return config.lr * 2.0 ** (-(epoch // 10))
    return config.lr * SCALED_LR_REFERENCE_B / config.batch_size


# -- optimizer steps ----------------------------------------------------------


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(
    params: np.ndarray, grad: np.ndarray, moments: np.ndarray, lr: float, t: int
) -> None:
    """Standard bias-corrected Adam update at step ``t`` >= 1, in place on
    ``params`` (a vector or a stack of them) and ``moments``, the first and
    second moments stacked as ``[2, *params.shape]``. The float
    operations are those of ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2)
    g g`` and ``params - lr m_hat / (sqrt(v_hat) + eps)``, in that order. A
    non-finite gradient makes the parameters non-finite, which the training
    loop's divergence check catches."""
    m, v = moments
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    step = lr * (m / (1.0 - ADAM_BETA1**t))
    step /= np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS
    params -= step


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
    """Gradients of a stack of parameter vectors [S, P], each re-evaluated at
    its params + rho * g/|g|; a row whose gradient g is zero keeps g.

    ``grad_fn`` maps a stack to its gradients, in a new array per call. Each
    norm is a 1-D call per row: a norm along the stack's last axis differs
    from it in the last bit.
    """
    g = grad_fn(params)
    if rho == 0.0:
        return g
    norms = np.array([np.linalg.norm(row) for row in g])
    flat = norms == 0.0
    perturbed = grad_fn(params + rho * g / np.where(flat, 1.0, norms)[:, None])
    perturbed[flat] = g[flat]
    return perturbed


# -- graph-specific pieces ----------------------------------------------------


def adjacency(edges: np.ndarray, n: int) -> sp.csr_matrix:
    """The [n x n] CSR adjacency of an [m x 2] edge array: each edge counted
    once in both directions, duplicates summed. On a ``DatasetBundle``'s
    edges (unique pairs i < j) it is the symmetric 0/1 matrix of the graph,
    from which ``normalized_adjacency`` and ``edge_laplacian`` build the
    graph's operators, once per cell."""
    import scipy.sparse as sp

    ones = np.ones(2 * len(edges))
    return sp.csr_matrix((ones, (edges.ravel(), edges[:, ::-1].ravel())), shape=(n, n))


def normalized_adjacency(edges: np.ndarray, n: int) -> sp.csr_matrix:
    """Symmetric renormalization D^(-1/2) (A + I) D^(-1/2) of the graph's
    ``adjacency``: the operator each diffusion step averages features with."""
    import scipy.sparse as sp

    a = adjacency(edges, n) + sp.identity(n, format="csr")
    scale = sp.diags(1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel()))
    return scale @ a @ scale


def edge_laplacian(edges: np.ndarray, n: int) -> sp.csr_matrix:
    """The edge regularizer's gradient operator: ``(2/m)(D - A)`` for a
    nonempty [m x 2] edge array over n nodes.

    The regularizer is the mean over edges of ``|emb[e0] - emb[e1]|^2``, and
    its gradient in the embeddings is ``(2/m) L emb`` with ``L = D - A`` the
    graph Laplacian of the edge list: ``A`` is its ``adjacency`` and ``D``
    holds each node's degree counted the same way.
    """
    import scipy.sparse as sp

    degree = sp.diags(np.bincount(edges.ravel(), minlength=n).astype(np.float64))
    return (2.0 / len(edges)) * (degree - adjacency(edges, n)).tocsr()


def _seedwise_product(matrix, stack: np.ndarray) -> np.ndarray:
    """``matrix`` [n, n] times each seed's [n, c] of ``stack`` [..., n, c], as
    one product with the seeds side by side, [n, S*c]. A CSR product sums each
    column on its own, so every seed gets the floats of its product alone."""
    n, c = stack.shape[-2:]
    cols = np.moveaxis(stack.reshape(-1, n, c), 0, 1).reshape(n, -1)
    return np.moveaxis((matrix @ cols).reshape(n, -1, c), 1, 0).reshape(stack.shape)


def diffusion_update(
    h: np.ndarray, adj_norm, alpha: float, beta: float = 0.0, noise=()
) -> np.ndarray:
    """One embedding-diffusion step with an optional multiplicative noise term.

    H' = H + alpha (A_norm H - H) + beta (xi ⊙ H), on features ``h`` [n, d] or
    a seed stack [S, n, d], with one product of ``adj_norm`` for the whole
    stack (``_seedwise_product``). Under beta != 0, ``noise`` holds each
    seed's (scale, rng): the seed draws its xi [n, d] iid Normal(0, scale)
    from its own rng, and the result is the stack [S, n, d], to which a shared
    ``h`` broadcasts. No random numbers are drawn when beta = 0, so the
    deterministic path is bit-identical whatever ``noise`` holds. ``ModelSpec``
    checks once that alpha and beta are finite; this per-step function does not.
    """
    h = np.asarray(h, dtype=np.float64)
    out = h + alpha * (_seedwise_product(adj_norm, h) - h)
    if beta != 0.0:
        xi = np.stack([rng.normal(0.0, scale, size=h.shape[-2:]) for scale, rng in noise])
        out = out + beta * xi * h
    return out


# -- penalized loss/gradient assembly ------------------------------------------


def gradient_with_penalties(
    spec,
    params: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    lambda_causal: float,
    reg_inputs: np.ndarray,
    laplacian: sp.csr_matrix | None,
    l1: float,
    l2: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Analytic gradient of the cross-entropy on (x, y) plus the penalties,
    with the shapes of ``models.mean_gradient`` (a seed stack, minibatch
    axes), written into ``out`` when given.

    ``laplacian`` is the ``edge_laplacian`` of a nonempty edge set, which
    ``train_run`` builds once per cell, and only when ``lambda_causal`` > 0;
    with it the gradient adds ``lambda_causal`` times that of the edge
    regularizer on the hidden embeddings of ``reg_inputs``, the whole-graph
    features the edges index ([n, d], or one [S, n, d] per seed). The
    embeddings' gradient is one product of the Laplacian with the whole seed
    stack, each seed's floats those of its product alone. ``l1`` and ``l2``
    weight the parameters' L1 norm and squared L2 norm. A penalty depends on
    the parameters only, so every minibatch of a seed gets the same term.
    """
    g = models.mean_gradient(spec, params, x, y, out=out)
    if laplacian is not None:
        emb = models.hidden_activations(spec, params, reg_inputs)
        d_emb = _seedwise_product(laplacian, emb)
        term = lambda_causal * models.hidden_backward(spec, params, reg_inputs, emb, d_emb)
        g += models.with_minibatch_axes(term, g.ndim)
    if l1 > 0.0:
        g += models.with_minibatch_axes(l1 * np.sign(params), g.ndim)
    if l2 > 0.0:
        g += models.with_minibatch_axes(2.0 * l2 * params, g.ndim)
    return g


# -- run records ----------------------------------------------------------------

RECORD_WALL_FIELDS = ("epoch_wall_seconds", "wall_seconds")


@dataclass
class RunRecord:
    """Everything measured in one training run, filled as it trains. Its
    record line is ``schema_version``, then the other fields in declaration
    order, with ``final`` written as the ``Measurement``'s fields in theirs.
    A version 1 line, written before ``fingerprint`` existed, has every field
    but that one, and loads with ``fingerprint`` None."""

    run_id: str
    dataset_id: str
    fingerprint: str | None
    model_kind: str
    batch_size: int
    seed: int
    ablation: str
    config: dict
    train_loss: list[float] = field(default_factory=list)
    test_loss: list[float] = field(default_factory=list)
    test_acc: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    effective_batch: list[int] = field(default_factory=list)
    epoch_wall_seconds: list[float] = field(default_factory=list)
    final: measures.Measurement | None = None
    status: str = "completed"
    degenerate_reason: str | None = None
    wall_seconds: float = 0.0
    schema_version: int = 2

    def to_dict(self) -> dict:
        # a dict keeps its first insertion's place, so schema_version leads the line
        final = dict(vars(self.final)) if self.final is not None else None
        return {"schema_version": self.schema_version, **vars(self), "final": final}

    @staticmethod
    def from_dict(d) -> "RunRecord":
        # a line lacking a field of its version is corrupt: the constructor's
        # defaults are for train_run. The values analysis reads are type-checked
        # here, once; the per-epoch series are not, as checking each element
        # costs 15% of a report
        fields = RunRecord.__dataclass_fields__
        names = d.keys() if isinstance(d, dict) else ()
        version = 2 if "fingerprint" in names else 1
        if names != _LINE_FIELDS[version] or d["schema_version"] != version:
            raise TypeError(
                f"a record has the fields {list(fields)} (schema_version 2), "
                "or all of them but fingerprint (schema_version 1)"
            )
        d = dict(d)
        d.setdefault("fingerprint", None)
        final = d.pop("final")
        for name in ("schema_version", "batch_size", "seed"):
            if not models.is_integer(d[name]):
                raise TypeError(f"{name} must be an integer, got {d[name]!r}")
        if not isinstance(d["config"], dict):
            raise TypeError(f"config must be a JSON object, got {d['config']!r}")
        # a sweep resumes a run by its run_id, so the name must be the run's
        own = run_name(d["batch_size"], d["seed"], d["ablation"])
        if d["run_id"] != own:
            raise ValueError(f"run_id {d['run_id']!r} does not name the run {own}")
        if final is not None:
            final = measures.Measurement(**final)
            for name, value in vars(final).items():
                integer = name in ("batch_size", "epoch")
                if not (models.is_integer(value) if integer else models.is_real(value)):
                    kind = "an integer" if integer else "a finite number"
                    raise TypeError(f"final.{name} must be {kind}, got {value!r}")
        return RunRecord(final=final, **d)

    def canonical_dict(self) -> dict:
        """Record content with wall-clock fields stripped (for equality checks)."""
        out = self.to_dict()
        for key in RECORD_WALL_FIELDS:
            out.pop(key, None)
        return out


# the keys of a record line of each schema_version
_LINE_FIELDS = {2: RunRecord.__dataclass_fields__.keys()}
_LINE_FIELDS[1] = _LINE_FIELDS[2] - {"fingerprint"}


# -- the training loop ----------------------------------------------------------


def check_model_fits(spec: models.ModelSpec, dataset: datamod.DatasetBundle) -> None:
    """Raise ``ValueError`` unless the model can train on the dataset: its
    input width is the feature count, it has a class for every label, and a
    graph_diffusion model has a graph to diffuse over."""
    if spec.input_dim != dataset.features.shape[1] or spec.num_classes < dataset.num_classes:
        raise ValueError(
            f"model spec (input_dim {spec.input_dim}, num_classes {spec.num_classes}) does not "
            f"fit the dataset ({dataset.features.shape[1]} features, {dataset.num_classes} classes)"
        )
    if spec.kind == "graph_diffusion" and dataset.edges is None:
        raise ValueError("graph_diffusion model requires a graph dataset")


def check_train_split(dataset: datamod.DatasetBundle) -> None:
    """Raise ``ValueError`` unless the train split has the 2 rows that the
    gradient-noise estimate needs and the val and test splits, which early
    stopping and the final measurement read, are nonempty."""
    rows = dataset.splits["train"].size
    if rows < 2:
        raise ValueError(f"train split too small: the noise estimate needs 2 rows, got {rows}")
    for name in ("val", "test"):
        if dataset.splits[name].size == 0:
            raise ValueError(f"{name} split is empty")


@dataclass
class _Seed:
    """One seed's training state and the record it fills; ``params`` is set as it leaves."""

    record: RunRecord
    rng_shuffle: np.random.Generator
    rng_noise: np.random.Generator
    best_val: float = math.inf
    best_params: np.ndarray | None = None
    best_epoch: int = -1
    bad_epochs: int = 0
    running_noise: float | None = None
    inject_level: float = 0.0
    params: np.ndarray | None = None


def train_run(dataset: datamod.DatasetBundle, configs) -> list[RunRecord]:
    """Train the seeds of one sweep cell as one stack, and measure each one.

    ``configs`` are ``TrainConfig``s equal but for their distinct seeds; the
    records come back in their order. Each record is deterministic given
    (dataset, its config), whatever the stack: all randomness flows from three
    child streams of the seed (init, shuffling, noise), and the stacked
    kernels give each seed the floats it gets alone. Wall-clock fields are
    the only nondeterministic outputs: ``epoch_wall_seconds`` holds the
    cell's epoch time divided by the seeds that began the epoch, and
    ``wall_seconds`` the seed's share of the cell's time. A run is marked
    degenerate when the parameters or the loss leave the finite range or the
    final sharpness/noise leave the complexity domain; degenerate records
    carry no final measurement. The final gradient noise is divided by the
    batch of the measured epoch's updates: its ``effective_batch`` (epoch
    0's if none ran), times the ``ceil(n_train / eff)`` minibatches that
    ``no_noise_averaging`` averages per update; ``batch_size`` and the
    scaled learning rate keep the configured B. The model spec is checked
    against the dataset once, here (``check_model_fits``,
    ``check_train_split``); the kernels called per step check nothing. With
    ``lambda_causal`` > 0 on a graph with edges, the edge regularizer's
    ``edge_laplacian`` is built once, here, and each gradient applies it to
    the whole stack in one product.

    Each epoch scores the active stack with one call per split: the train and
    val losses by ``models.forward_loss``, the test loss and accuracy by
    ``models.evaluate``, in calls of whole seeds within ``MAX_STACK_ROWS``
    rows; a run with no epoch is scored by the same calls.
    Under ``diffusion_beta`` the stack's noisy features come from one
    ``diffusion_update`` per step, each seed drawing its own noise, scaled by
    its previous epoch's gradient noise, divided as the final noise is.
    """
    t_start = perf_counter()
    configs = list(configs)
    config = configs[0]
    seeds = [c.seed for c in configs]
    if len(set(seeds)) != len(seeds) or len({cell_key(c) for c in configs}) > 1:
        raise ValueError("the configs of one train_run must differ in distinct seeds only")
    spec = config.model
    abl = config.ablation
    check_model_fits(spec, dataset)
    check_train_split(dataset)
    train_idx = dataset.splits["train"]
    val_idx = dataset.splits["val"]
    test_idx = dataset.splits["test"]
    n_train = train_idx.size
    labels = dataset.labels

    active: list[_Seed] = []
    initial = []
    for c in configs:
        rng_init, rng_shuffle, rng_noise = (
            np.random.default_rng(s) for s in np.random.SeedSequence(c.seed).spawn(3)
        )
        initial.append(models.init_params(spec, rng_init))
        record = RunRecord(
            run_id(c), dataset.dataset_id, dataset.fingerprint, spec.kind, c.batch_size, c.seed,
            c.ablation.kind, c.to_dict(),
        )
        active.append(_Seed(record, rng_shuffle, rng_noise))
    runs = list(active)
    params = np.stack(initial)

    def diffused(beta: float = 0.0, noise=()) -> np.ndarray:
        # the features after spec.diffusion_steps diffusion steps: one noisy
        # copy per (scale, rng) of noise, [S, n, d], when beta is nonzero
        h = dataset.features
        for _ in range(spec.diffusion_steps):
            h = diffusion_update(h, adj_norm, spec.diffusion_alpha, beta, noise)
        return h

    is_graph = spec.kind == "graph_diffusion"
    noisy = is_graph and spec.diffusion_beta != 0.0
    if is_graph:
        adj_norm = normalized_adjacency(dataset.edges, dataset.n)
    det_features = diffused() if is_graph else dataset.features
    laplacian = None
    if is_graph and config.lambda_causal > 0.0 and len(dataset.edges):
        laplacian = edge_laplacian(dataset.edges, dataset.n)

    probe_idx = train_idx[: min(256, n_train)]
    x_train, x_val, x_test, x_probe = (
        det_features[i] for i in (train_idx, val_idx, test_idx, probe_idx)
    )
    y_train, y_val, y_test, y_probe = (labels[i] for i in (train_idx, val_idx, test_idx, probe_idx))

    def evaluate(p: np.ndarray) -> list[tuple[float, float, float, float]]:
        # (train loss, val loss, test loss, test accuracy) of each seed of the
        # stack p [S, P], one call per split; a call takes whole seeds, more
        # than one only within MAX_STACK_ROWS train rows, since splitting a
        # seed's rows would change its means
        step = max(1, MAX_STACK_ROWS // n_train)
        scores = []
        for i in range(0, len(p), step):
            q = p[i : i + step]
            train = models.forward_loss(spec, q, x_train, y_train)
            val = models.forward_loss(spec, q, x_val, y_val)
            test, accuracy = models.evaluate(spec, q, x_test, y_test)
            scores += zip(train.tolist(), val.tolist(), test.tolist(), accuracy.tolist())
        return scores

    def update_batch(epoch: int) -> int:
        # the batch one update averages: under no_noise_averaging, every minibatch of the epoch
        eff = config.batch_schedule.effective(config.batch_size, epoch, n_train)
        return eff * math.ceil(n_train / eff) if abl.kind == "no_noise_averaging" else eff

    def probe_noise(p: np.ndarray, x: np.ndarray, b: int) -> float:
        # gradient noise at batch size b of parameters p on the probe rows of features x
        return measures.gradient_noise(models.per_sample_gradients(spec, p, x, y_probe), b)

    def grad_at(p: np.ndarray, idx: np.ndarray, out=None) -> np.ndarray:
        # the stack's gradients on the minibatch rows idx [S, ..., b]; the
        # edge term penalizes the whole graph under this epoch's features
        if features.ndim == 2:
            xb = features[idx]
        else:
            xb = features[np.arange(len(idx)).reshape((-1,) + (1,) * (idx.ndim - 1)), idx]
        return gradient_with_penalties(
            spec,
            p,
            xb,
            labels[idx],
            lambda_causal=config.lambda_causal,
            reg_inputs=features,
            laplacian=laplacian,
            l1=abl.l1,
            l2=abl.l2,
            out=out,
        )

    def update_gradient(group: np.ndarray) -> np.ndarray:
        # the gradient of one update on the minibatch rows group [S, b], or
        # under no_noise_averaging on all the epoch's rows, [S, n_train]
        if abl.kind == "no_noise_averaging":
            # the mean of every minibatch gradient of the epoch, the short last
            # one included; the full ones go MAX_STACK_ROWS rows at a time
            full, short = divmod(n_train, eff_b)
            full_rows = group[:, : full * eff_b].reshape(len(active), full, eff_b)
            step = max(1, MAX_STACK_ROWS // (len(active) * eff_b))
            chunks = [full_rows[:, i : i + step] for i in range(0, full, step)]
            if short:
                chunks.append(group[:, None, full * eff_b :])
            # summed as np.mean sums an axis that is not the innermost: in order, from 0.0
            buf = np.empty((len(active), min(step, full), params.shape[1]))
            total = np.zeros_like(params)
            for rows in chunks:
                for g in grad_at(params, rows, buf[:, : rows.shape[1]]).swapaxes(0, 1):
                    total += g
            return total / (full + (short > 0))
        if abl.kind == "sam":
            return sam_perturbed_gradient(lambda p: grad_at(p, group), params, abl.rho)
        g = grad_at(params, group)
        if abl.kind == "inject_noise":
            for row, run in enumerate(active):
                g[row] = noise_injected_gradient(g[row], run.inject_level, run.rng_noise)
        return g

    def measure(run: _Seed) -> RunRecord:
        # the seed's record, measured unless it diverged; its final losses and
        # accuracy are the log's at final_epoch, evaluated only if no epoch ran
        t0 = perf_counter()
        rec = run.record
        final_epoch = run.best_epoch if rec.status == "early_stopped" else len(rec.lr) - 1
        if rec.status != "degenerate":
            params = run.params
            try:
                noise = probe_noise(params, x_probe, update_batch(max(final_epoch, 0)))
                sharpness, _ = measures.sharpness_lambda_max(
                    models.hvp_operator(spec, params, x_probe, y_probe), dim=params.size
                )
                comp = measures.complexity(sharpness, noise)
                if final_epoch >= 0:
                    logged = (rec.train_loss, rec.test_loss, rec.test_acc)
                    train_loss, test_loss, test_acc = (s[final_epoch] for s in logged)
                else:
                    train_loss, _, test_loss, test_acc = evaluate(params[None])[0]
                for name, value in (("train_loss", train_loss), ("test_loss", test_loss)):
                    if not np.isfinite(value):
                        raise ValueError(f"{name} must be finite")
                rec.final = measures.Measurement(
                    grad_noise=noise,
                    sharpness=sharpness,
                    complexity=comp,
                    test_accuracy=float(test_acc),
                    gen_gap=float(test_loss - train_loss),
                    batch_size=config.batch_size,
                    epoch=final_epoch,
                )
            except ValueError as exc:
                rec.status, rec.degenerate_reason = "degenerate", str(exc)
        rec.wall_seconds += perf_counter() - t0
        return rec

    moments = np.zeros((2, *params.shape))  # Adam's m and v
    step_count = 0

    def leave(keep: np.ndarray) -> None:
        # drop the seeds that left from every stacked array
        nonlocal active, params, moments, features, order
        active = [run for run, k in zip(active, keep) if k]
        params, order, moments = params[keep], order[keep], moments[:, keep]
        if features.ndim == 3:
            features = features[keep]

    for run in runs:
        run.record.wall_seconds = (perf_counter() - t_start) / len(runs)
    for epoch in range(config.epochs):
        if not active:
            break
        epoch_t0 = perf_counter()
        began = list(active)
        lr = schedule_lr(config, epoch)
        eff_b = config.batch_schedule.effective(config.batch_size, epoch, n_train)

        features = det_features  # or one noisy copy per seed, [S, n, d]
        if noisy:
            scales = [math.sqrt(r.running_noise) if r.running_noise else 0.0 for r in active]
            noise = [(s, run.rng_noise) for s, run in zip(scales, active)]
            features = diffused(spec.diffusion_beta, noise)

        if abl.kind == "inject_noise":
            for row, run in enumerate(active):
                x = features[row] if noisy else features
                run.inject_level = probe_noise(params[row], x[probe_idx], eff_b)

        # one update per group: no_noise_averaging averages every minibatch
        # of the epoch into one, every other kind updates per minibatch
        order = train_idx[np.stack([run.rng_shuffle.permutation(n_train) for run in active])]
        starts = [0] if abl.kind == "no_noise_averaging" else range(0, n_train, eff_b)
        for start in starts:
            group = order if abl.kind == "no_noise_averaging" else order[:, start : start + eff_b]
            g = update_gradient(group)
            step_count += 1
            if config.optimizer == "adam":
                adam_step(params, g, moments, lr, t=step_count)
            else:
                params -= lr * g
            finite = np.isfinite(params).all(axis=1)
            if not finite.all():
                for rec in (r.record for r, ok in zip(active, finite) if not ok):
                    rec.status, rec.degenerate_reason = "degenerate", "non-finite parameters"
                leave(finite)
                if not active:
                    break

        evaluated = list(active)
        stay = np.ones(len(active), dtype=bool)
        for row, (run, scores) in enumerate(zip(active, evaluate(params))):
            p, rec = params[row], run.record
            train_loss, val_loss, test_loss, test_acc = scores
            rec.train_loss.append(train_loss)
            rec.test_loss.append(test_loss)
            rec.test_acc.append(test_acc)
            rec.lr.append(lr)
            rec.effective_batch.append(eff_b)

            if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
                rec.status, rec.degenerate_reason = "degenerate", "non-finite loss"
                stay[row] = False
                continue

            if noisy:
                run.running_noise = probe_noise(p, x_probe, update_batch(epoch))

            if val_loss < run.best_val:
                run.best_val, run.best_params, run.best_epoch = val_loss, p.copy(), epoch
                run.bad_epochs = 0
            else:
                run.bad_epochs += 1
                if run.bad_epochs >= config.early_stop_patience:
                    rec.status, run.params = "early_stopped", run.best_params
                    stay[row] = False

        share = (perf_counter() - epoch_t0) / len(began)
        for run in began:
            run.record.wall_seconds += share
        for run in evaluated:
            run.record.epoch_wall_seconds.append(share)
        if not stay.all():
            leave(stay)

    for row, run in enumerate(active):
        run.params = params[row]
    return [measure(run) for run in runs]
