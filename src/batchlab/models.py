"""Differentiable model kernel with flat parameters and exact gradients.

Three small classifier families (softmax regression, a one-hidden-layer tanh
network, and the same network applied to graph-diffused features) share one
calling convention: parameters live in a single contiguous float64 vector
whose layout is given by ``param_slices``, inputs arrive as a
``DatasetBatch``, and every operation is a pure function of its arguments.
A graph_diffusion model runs as its ``head_spec`` (an mlp1) on features the
training loop diffuses over the whole graph; the forward and gradient
functions take no adjacency. Gradients are analytic (manual backprop);
Hessian-vector products (``hvp_operator``) use central finite differences of
the exact gradient, which is O(step^2) accurate for the smooth (tanh/softmax)
losses used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

MODEL_KINDS = ("logistic", "mlp1", "graph_diffusion")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; the parameter count is fully determined by dims.

    ``diffusion_alpha`` blends each feature row toward its normalized-adjacency
    neighborhood average, ``diffusion_steps`` times. ``diffusion_beta`` scales a
    multiplicative noise term in that diffusion. Both are applied by the
    training loop before the features reach the model; with alpha = beta = 0
    the graph model is exactly an mlp1 over raw features.
    """

    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0
    diffusion_alpha: float = 0.0
    diffusion_beta: float = 0.0
    diffusion_steps: int = 2

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.kind in ("mlp1", "graph_diffusion") and self.hidden_dim < 1:
            raise ValueError(f"{self.kind} requires hidden_dim >= 1")
        if self.diffusion_steps < 0:
            raise ValueError("diffusion_steps must be >= 0")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "input_dim": self.input_dim,
            "num_classes": self.num_classes,
            "hidden_dim": self.hidden_dim,
            "diffusion_alpha": self.diffusion_alpha,
            "diffusion_beta": self.diffusion_beta,
            "diffusion_steps": self.diffusion_steps,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        return ModelSpec(**d)


@dataclass
class DatasetBatch:
    """A batch of rows: features and integer class labels.

    Instances are treated as immutable by every operation in this package.
    """

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ValueError("inputs must be a nonempty [n x d] matrix")
        if not np.isfinite(self.inputs).all():
            raise ValueError("non-finite values in batch inputs")
        n = self.inputs.shape[0]
        if self.labels.shape != (n,):
            raise ValueError("labels must be a length-n vector")
        if self.labels.min() < 0:
            raise ValueError("labels must be nonnegative class indices")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


# -- parameter layout ---------------------------------------------------------


def param_slices(spec: ModelSpec) -> dict[str, slice]:
    """Offset map of the flat parameter vector, in storage order."""
    d, k, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if spec.kind == "logistic":
        return {"weights": slice(0, d * k), "bias": slice(d * k, d * k + k)}
    o1 = d * h
    o2 = o1 + h
    o3 = o2 + h * k
    return {
        "w1": slice(0, o1),
        "b1": slice(o1, o2),
        "w2": slice(o2, o3),
        "b2": slice(o3, o3 + k),
    }


def param_count(spec: ModelSpec) -> int:
    last = list(param_slices(spec).values())[-1]
    return last.stop


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Seeded Gaussian init, std 1/sqrt(fan_in) for weights, zero biases."""
    params = np.zeros(param_count(spec))
    sl = param_slices(spec)
    d, h = spec.input_dim, spec.hidden_dim
    if spec.kind == "logistic":
        params[sl["weights"]] = rng.standard_normal(sl["weights"].stop) / np.sqrt(d)
    else:
        params[sl["w1"]] = rng.standard_normal(d * h) / np.sqrt(d)
        params[sl["w2"]] = rng.standard_normal(h * spec.num_classes) / np.sqrt(h)
    return params


def head_spec(spec: ModelSpec) -> ModelSpec:
    """The mlp1 a graph_diffusion model applies to its diffused features.

    Parameter layout is shared, so the same flat vector works for both specs.
    """
    if spec.kind != "graph_diffusion":
        return spec
    return ModelSpec("mlp1", spec.input_dim, spec.num_classes, spec.hidden_dim)


def _check_params(spec: ModelSpec, params: np.ndarray) -> np.ndarray:
    if spec.kind == "graph_diffusion":
        raise ValueError("a graph_diffusion model runs as head_spec(spec) on diffused features")
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (param_count(spec),):
        raise ValueError(
            f"parameter vector has dim {params.shape}, expected ({param_count(spec)},)"
        )
    if not np.isfinite(params).all():
        raise ValueError("non-finite parameter values")
    return params


def _check_labels(spec: ModelSpec, batch: DatasetBatch) -> None:
    if batch.labels.max() >= spec.num_classes:
        raise ValueError("label out of range for model num_classes")


# -- graph feature diffusion --------------------------------------------------


def normalized_adjacency(adjacency):
    """Symmetric renormalization D^(-1/2) (A + I) D^(-1/2)."""
    if sp.issparse(adjacency):
        a = adjacency.tocsr().astype(np.float64) + sp.identity(
            adjacency.shape[0], format="csr"
        )
        deg = np.asarray(a.sum(axis=1)).ravel()
        inv_sqrt = 1.0 / np.sqrt(deg)
        scale = sp.diags(inv_sqrt)
        return scale @ a @ scale
    a = np.asarray(adjacency, dtype=np.float64) + np.eye(adjacency.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def diffuse_features(features: np.ndarray, adj_norm, alpha: float, steps: int) -> np.ndarray:
    """Deterministic diffusion: repeat H <- H + alpha (A_norm H - H)."""
    h = np.asarray(features, dtype=np.float64)
    if alpha == 0.0 or steps == 0:
        return h.copy()
    for _ in range(steps):
        h = h + alpha * (adj_norm @ h - h)
    return h


# -- forward / gradients ------------------------------------------------------


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _logits(spec: ModelSpec, params: np.ndarray, feats: np.ndarray):
    """Returns (logits, hidden activations or None)."""
    sl = param_slices(spec)
    d, k, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if spec.kind == "logistic":
        w = params[sl["weights"]].reshape(d, k)
        b = params[sl["bias"]]
        return feats @ w + b, None
    w1 = params[sl["w1"]].reshape(d, h)
    b1 = params[sl["b1"]]
    w2 = params[sl["w2"]].reshape(h, k)
    b2 = params[sl["b2"]]
    act = np.tanh(feats @ w1 + b1)
    return act @ w2 + b2, act


def forward_loss(spec: ModelSpec, params: np.ndarray, batch: DatasetBatch) -> float:
    """Mean cross-entropy of the batch under the model. Deterministic."""
    params = _check_params(spec, params)
    _check_labels(spec, batch)
    logp = _log_softmax(_logits(spec, params, batch.inputs)[0])
    return float(-logp[np.arange(batch.n), batch.labels].mean())


def predict_accuracy(spec: ModelSpec, params: np.ndarray, batch: DatasetBatch) -> float:
    """Fraction of argmax-correct labels; argmax ties go to the lowest class."""
    params = _check_params(spec, params)
    _check_labels(spec, batch)
    pred = np.argmax(_logits(spec, params, batch.inputs)[0], axis=1)
    return float((pred == batch.labels).mean())


def per_sample_gradients(spec: ModelSpec, params: np.ndarray, batch: DatasetBatch) -> np.ndarray:
    """Exact per-sample loss gradients, one row per sample, dim = params dim.

    Each row is the gradient of that sample's own cross-entropy, so the row
    mean equals the gradient of ``forward_loss``.
    """
    params = _check_params(spec, params)
    _check_labels(spec, batch)
    feats = batch.inputs
    n = batch.n
    logits, act = _logits(spec, params, feats)
    probs = np.exp(_log_softmax(logits))
    delta = probs.copy()
    delta[np.arange(n), batch.labels] -= 1.0
    if spec.kind == "logistic":
        gw = np.einsum("ni,nk->nik", feats, delta).reshape(n, -1)
        return np.concatenate([gw, delta], axis=1)
    sl = param_slices(spec)
    w2 = params[sl["w2"]].reshape(spec.hidden_dim, spec.num_classes)
    gw2 = np.einsum("nh,nk->nhk", act, delta).reshape(n, -1)
    delta1 = (delta @ w2.T) * (1.0 - act * act)
    gw1 = np.einsum("ni,nh->nih", feats, delta1).reshape(n, -1)
    return np.concatenate([gw1, delta1, gw2, delta], axis=1)


def mean_gradient(spec: ModelSpec, params: np.ndarray, batch: DatasetBatch) -> np.ndarray:
    """Gradient of ``forward_loss``; cheaper than averaging per-sample rows."""
    params = _check_params(spec, params)
    _check_labels(spec, batch)
    feats = batch.inputs
    n = batch.n
    logits, act = _logits(spec, params, feats)
    probs = np.exp(_log_softmax(logits))
    delta = probs
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n
    if spec.kind == "logistic":
        return np.concatenate([(feats.T @ delta).ravel(), delta.sum(axis=0)])
    sl = param_slices(spec)
    w2 = params[sl["w2"]].reshape(spec.hidden_dim, spec.num_classes)
    delta1 = (delta @ w2.T) * (1.0 - act * act)
    return np.concatenate(
        [
            (feats.T @ delta1).ravel(),
            delta1.sum(axis=0),
            (act.T @ delta).ravel(),
            delta.sum(axis=0),
        ]
    )


def hidden_activations(spec: ModelSpec, params: np.ndarray, batch: DatasetBatch) -> np.ndarray:
    """Post-tanh hidden layer (the embedding the edge regularizer penalizes)."""
    if spec.kind == "logistic":
        raise ValueError("logistic models have no hidden embedding")
    params = _check_params(spec, params)
    return _logits(spec, params, batch.inputs)[1]


def hidden_backward(
    spec: ModelSpec,
    params: np.ndarray,
    batch: DatasetBatch,
    act: np.ndarray,
    d_hidden: np.ndarray,
) -> np.ndarray:
    """Map a total derivative w.r.t. hidden activations to flat-parameter space.

    ``act`` is ``hidden_activations(spec, params, batch)``, passed in so the
    hidden layer is not computed twice.
    """
    if spec.kind == "logistic":
        raise ValueError("logistic models have no hidden embedding")
    dz1 = np.asarray(d_hidden, dtype=np.float64) * (1.0 - act * act)
    grad = np.zeros_like(params)
    sl = param_slices(spec)
    grad[sl["w1"]] = (batch.inputs.T @ dz1).ravel()
    grad[sl["b1"]] = dz1.sum(axis=0)
    return grad


# -- Hessian-vector products --------------------------------------------------


def default_hvp_step(params: np.ndarray) -> float:
    return 1e-4 * (1.0 + float(np.abs(params).max()))


def hvp_from_grad(grad_fn, params: np.ndarray, v: np.ndarray, step: float) -> np.ndarray:
    """Central finite difference of a gradient function: (g(p+sv) - g(p-sv)) / 2s."""
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    params = np.asarray(params, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != params.shape:
        raise ValueError("direction vector dim mismatch")
    if not np.isfinite(v).all():
        raise ValueError("non-finite direction vector")
    if not v.any():
        return np.zeros_like(params)
    return (grad_fn(params + step * v) - grad_fn(params - step * v)) / (2.0 * step)


def hvp_operator(spec: ModelSpec, params: np.ndarray, batch: DatasetBatch, step: float | None = None):
    """A pure callable v -> Hv, suitable for power iteration."""
    params = _check_params(spec, params).copy()
    if step is None:
        step = default_hvp_step(params)
    return lambda v: hvp_from_grad(lambda p: mean_gradient(spec, p, batch), params, v, step)
