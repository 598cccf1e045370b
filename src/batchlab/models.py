"""Differentiable model kernel with flat parameters and exact gradients.

Three small classifier families (softmax regression, a one-hidden-layer tanh
network, and the same network applied to graph-diffused features) share one
calling convention: parameters live in a single contiguous float64 vector
whose layout is given by ``param_slices``, inputs arrive as a float64 feature
matrix ``x`` [n x d] and int64 labels ``y`` [n], and every operation is a
pure function of its arguments. The kernels trust their inputs: data are
validated once, by ``data.DatasetBundle`` and ``training.check_model_fits``,
never per call. A graph_diffusion model is an mlp1 on features the training
loop diffuses over the whole graph: every kernel takes its spec as that mlp1,
and none takes an adjacency. Gradients are analytic (manual backprop);
Hessian-vector products (``hvp_operator``) use central finite differences of
the exact gradient, which is O(step^2) accurate for the smooth (tanh/softmax)
losses used here.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp

MODEL_KINDS = ("logistic", "mlp1", "graph_diffusion")


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool (JSON ``true``) is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_integers(settings, *names: str) -> None:
    """Raise ``ValueError`` naming the first of the fields ``names`` of
    ``settings`` that does not hold an integer (``is_integer``)."""
    for name in names:
        value = getattr(settings, name)
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; the parameter count is fully determined by dims.

    ``diffusion_alpha`` blends each feature row toward its normalized-adjacency
    neighborhood average, ``diffusion_steps`` times; ``diffusion_beta`` scales a
    multiplicative noise term in each step, so needs one. The training loop
    applies both (``training.diffusion_update``) before the features reach the
    model; with alpha = beta = 0 the graph model is exactly an mlp1.
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
        require_integers(self, "input_dim", "num_classes", "hidden_dim", "diffusion_steps")
        for name in ("diffusion_alpha", "diffusion_beta"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.kind in ("mlp1", "graph_diffusion") and self.hidden_dim < 1:
            raise ValueError(f"{self.kind} requires hidden_dim >= 1")
        if self.diffusion_steps < 0:
            raise ValueError("diffusion_steps must be >= 0")
        if self.diffusion_beta != 0.0 and self.diffusion_steps == 0:
            raise ValueError("diffusion_beta needs diffusion_steps >= 1")

    def to_dict(self) -> dict:
        return dict(vars(self))


# -- parameter layout ---------------------------------------------------------


@functools.cache
def param_slices(spec: ModelSpec) -> MappingProxyType:
    """Offset map of the flat parameter vector, in storage order.

    Cached per spec (specs are frozen), so the map is read-only: every caller
    shares it.
    """
    d, k, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if spec.kind == "logistic":
        return MappingProxyType({"weights": slice(0, d * k), "bias": slice(d * k, d * k + k)})
    o1 = d * h
    o2 = o1 + h
    o3 = o2 + h * k
    return MappingProxyType(
        {
            "w1": slice(0, o1),
            "b1": slice(o1, o2),
            "w2": slice(o2, o3),
            "b2": slice(o3, o3 + k),
        }
    )


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


# -- graph feature diffusion --------------------------------------------------


def normalized_adjacency(adjacency: sp.csr_matrix) -> sp.csr_matrix:
    """Symmetric renormalization D^(-1/2) (A + I) D^(-1/2) of a sparse adjacency."""
    a = adjacency + sp.identity(adjacency.shape[0], format="csr")
    scale = sp.diags(1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel()))
    return scale @ a @ scale


# -- forward / gradients ------------------------------------------------------


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _logits(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """Returns (logits, hidden activations or None)."""
    sl = param_slices(spec)
    d, k, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if spec.kind == "logistic":
        w = params[sl["weights"]].reshape(d, k)
        b = params[sl["bias"]]
        return x @ w + b, None
    w1 = params[sl["w1"]].reshape(d, h)
    b1 = params[sl["b1"]]
    w2 = params[sl["w2"]].reshape(h, k)
    b2 = params[sl["b2"]]
    act = np.tanh(x @ w1 + b1)
    return act @ w2 + b2, act


def forward_loss(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of the rows under the model. Deterministic."""
    logp = _log_softmax(_logits(spec, params, x)[0])
    return float(-logp[np.arange(x.shape[0]), y].mean())


def predict_accuracy(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of argmax-correct labels; argmax ties go to the lowest class."""
    pred = np.argmax(_logits(spec, params, x)[0], axis=1)
    return float((pred == y).mean())


def per_sample_gradients(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Exact per-sample loss gradients, one row per sample, dim = params dim.

    Each row is the gradient of that sample's own cross-entropy, so the row
    mean equals the gradient of ``forward_loss``.
    """
    n = x.shape[0]
    logits, act = _logits(spec, params, x)
    probs = np.exp(_log_softmax(logits))
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    if spec.kind == "logistic":
        gw = np.einsum("ni,nk->nik", x, delta).reshape(n, -1)
        return np.concatenate([gw, delta], axis=1)
    sl = param_slices(spec)
    w2 = params[sl["w2"]].reshape(spec.hidden_dim, spec.num_classes)
    gw2 = np.einsum("nh,nk->nhk", act, delta).reshape(n, -1)
    delta1 = (delta @ w2.T) * (1.0 - act * act)
    gw1 = np.einsum("ni,nh->nih", x, delta1).reshape(n, -1)
    return np.concatenate([gw1, delta1, gw2, delta], axis=1)


def mean_gradient(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of ``forward_loss``; cheaper than averaging per-sample rows."""
    n = x.shape[0]
    logits, act = _logits(spec, params, x)
    delta = np.exp(_log_softmax(logits))
    delta[np.arange(n), y] -= 1.0
    delta /= n
    if spec.kind == "logistic":
        return np.concatenate([(x.T @ delta).ravel(), delta.sum(axis=0)])
    sl = param_slices(spec)
    w2 = params[sl["w2"]].reshape(spec.hidden_dim, spec.num_classes)
    delta1 = (delta @ w2.T) * (1.0 - act * act)
    return np.concatenate(
        [
            (x.T @ delta1).ravel(),
            delta1.sum(axis=0),
            (act.T @ delta).ravel(),
            delta.sum(axis=0),
        ]
    )


def hidden_activations(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Post-tanh hidden layer (the embedding the edge regularizer penalizes)."""
    return _logits(spec, params, x)[1]


def hidden_backward(
    spec: ModelSpec,
    params: np.ndarray,
    x: np.ndarray,
    act: np.ndarray,
    d_hidden: np.ndarray,
) -> np.ndarray:
    """Map a total derivative w.r.t. hidden activations to flat-parameter space.

    ``act`` is ``hidden_activations(spec, params, x)``, passed in so the
    hidden layer is not computed twice.
    """
    dz1 = d_hidden * (1.0 - act * act)
    grad = np.zeros_like(params)
    sl = param_slices(spec)
    grad[sl["w1"]] = (x.T @ dz1).ravel()
    grad[sl["b1"]] = dz1.sum(axis=0)
    return grad


# -- Hessian-vector products --------------------------------------------------


def hvp_operator(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray):
    """A pure callable v -> Hv of the mean loss on (x, y), for power iteration:
    the central difference (g(p+sv) - g(p-sv)) / 2s of the exact gradient g."""
    params = params.copy()
    step = 1e-4 * (1.0 + float(np.abs(params).max()))
    return lambda v: (
        mean_gradient(spec, params + step * v, x, y) - mean_gradient(spec, params - step * v, x, y)
    ) / (2.0 * step)
