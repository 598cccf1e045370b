"""Differentiable model kernel with flat parameters and exact gradients.

Three small classifier families (softmax regression, a one-hidden-layer tanh
network, and the same network applied to graph-diffused features) share one
calling convention. A model is an optional tanh hidden layer feeding a softmax
output layer; its parameters live in one contiguous float64 vector whose
layout, ``ModelSpec.layout``, is worked out once when the spec is built.
Inputs arrive as a float64 feature matrix ``x`` [n x d] and int64 labels
``y`` [n], and every operation is a pure function of its arguments.

The training and evaluation kernels (``mean_gradient``,
``hidden_activations``, ``hidden_backward``, ``forward_loss`` and
``evaluate``) are stack-aware: parameters may carry a leading seed axis,
``[S, P]``, with inputs ``[S, n, d]`` or shared features ``[n, d]`` (the
whole graph, or a split's rows), which broadcast over the seeds.
``mean_gradient`` also takes extra minibatch axes after the seed axis, ``x``
[S, M, n, d], and returns ``[S, M, P]``. Every stacked row is bit-identical to the call on
that row alone: the kernels keep each seed's reductions in their own rows,
and ``np.matmul`` runs the same per-matrix routine on a stack as on one
matrix. A row's product can depend on how many rows its matrix has (BLAS
takes a row remainder with another kernel), so rows that a caller evaluates
apart, such as the train, val and test splits, stay apart. The probe kernels
(``per_sample_gradients``, ``hvp_operator``) take one parameter vector: a
seed's per-sample gradients alone fill hundreds of kilobytes, and a stack of
them runs slower than one call per seed.

The kernels trust their inputs: data are validated once, by
``data.DatasetBundle`` and ``training.check_model_fits``, never per call. A
graph_diffusion model is an mlp1 on features the training loop diffuses over
the whole graph: every kernel takes its spec as that mlp1, and none takes the
graph, whose sparse operators ``training`` builds. This module needs numpy
alone. Gradients are analytic (manual backprop), and so are
Hessian-vector products: ``hvp_operator`` differentiates the backward pass
in the direction of the vector (the R-op), with no step size.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

MODEL_KINDS = ("logistic", "mlp1", "graph_diffusion")


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool (JSON ``true``) is not. A
    builtin int is tested first: the ``numbers`` ABC check costs about 1 us."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def is_real(value) -> bool:
    """Whether ``value`` is a finite real number; a bool (JSON ``true``) is not.
    A builtin float or int is tested first, as in ``is_integer``."""
    if type(value) is float:
        return math.isfinite(value)
    if is_integer(value):
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def require_integers(**values) -> None:
    """Raise ``ValueError`` naming the first of ``values`` that is not an
    integer (``is_integer``)."""
    for name, value in values.items():
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def require_reals(**values) -> None:
    """Raise ``ValueError`` naming the first of ``values`` that is not a
    finite real number (``is_real``)."""
    for name, value in values.items():
        if not is_real(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def require_unread_defaults(obj, **readers) -> None:
    """Raise ``ValueError`` naming the first field of the dataclass ``obj``
    that its ``kind`` does not read but that differs from its default;
    ``readers`` gives each such field the kinds that read it."""
    for name, kinds in readers.items():
        if obj.kind not in kinds and getattr(obj, name) != getattr(type(obj), name):
            raise ValueError(f"{name} applies only to {' and '.join(kinds)}, not to {obj.kind}")


@dataclass(frozen=True)
class Layout:
    """Where each dense layer sits in the flat parameter vector.

    The tanh hidden layer's weights ``w1`` [d x h] and bias ``b1`` [h] come
    first, then the softmax output layer's weights ``w2`` [m x k] and bias
    ``b2`` [k], with ``m`` its input width: ``h``, or ``d`` for a model with
    no hidden layer (``h`` = 0, logistic).
    """

    d: int
    h: int
    k: int
    w1: slice
    b1: slice
    w2: slice
    b2: slice

    @staticmethod
    def of(d: int, k: int, h: int) -> "Layout":
        o1 = d * h
        o2 = o1 + h
        o3 = o2 + (h or d) * k
        return Layout(d, h, k, slice(0, o1), slice(o1, o2), slice(o2, o3), slice(o3, o3 + k))

    @property
    def m(self) -> int:
        return self.h or self.d

    @property
    def size(self) -> int:
        return self.b2.stop


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; the parameter count is fully determined by dims.

    ``diffusion_alpha`` blends each feature row toward its neighborhood
    average under ``training.normalized_adjacency``, ``diffusion_steps``
    times; ``diffusion_beta`` scales a multiplicative noise term in each
    step, so needs one. The training loop applies both
    (``training.diffusion_update``) before the features reach the model; with
    alpha = beta = 0 the graph model is exactly an mlp1. A field the kind
    does not read keeps its default (``require_unread_defaults``).
    The parameter ``layout`` is not a field: it is derived from them, once.
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
        require_integers(
            input_dim=self.input_dim,
            num_classes=self.num_classes,
            hidden_dim=self.hidden_dim,
            diffusion_steps=self.diffusion_steps,
        )
        require_reals(diffusion_alpha=self.diffusion_alpha, diffusion_beta=self.diffusion_beta)
        graph = ("graph_diffusion",)
        diffusion = dict(diffusion_alpha=graph, diffusion_beta=graph, diffusion_steps=graph)
        require_unread_defaults(self, hidden_dim=("mlp1", *graph), **diffusion)
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
        layout = Layout.of(self.input_dim, self.num_classes, self.hidden_dim)
        object.__setattr__(self, "layout", layout)

    def to_dict(self) -> dict:
        out = dict(vars(self))
        del out["layout"]  # derived from the fields
        return out


# -- parameter layout ---------------------------------------------------------


def param_count(spec: ModelSpec) -> int:
    return spec.layout.size


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Seeded Gaussian init, std 1/sqrt(fan_in) for weights, zero biases."""
    lay = spec.layout
    params = np.zeros(param_count(spec))
    if lay.h:
        params[lay.w1] = rng.standard_normal(lay.d * lay.h) / np.sqrt(lay.d)
    params[lay.w2] = rng.standard_normal(lay.m * lay.k) / np.sqrt(lay.m)
    return params


# -- forward / gradients ------------------------------------------------------


def with_minibatch_axes(a: np.ndarray, ndim: int) -> np.ndarray:
    """``a`` [..., P] with axes of length 1 inserted before its last, up to
    ``ndim`` axes: a seed's parameters, or a term of its gradient, shared by
    the minibatch axes that follow the seed axes."""
    return a.reshape(a.shape[:-1] + (1,) * (ndim - a.ndim) + a.shape[-1:])


def _weights(params: np.ndarray, where: slice, rows: int, cols: int) -> np.ndarray:
    """One layer's weight matrices, [..., rows, cols], of params [..., P]."""
    return params[..., where].reshape(params.shape[:-1] + (rows, cols))


def _hidden(lay: Layout, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.tanh(x @ _weights(params, lay.w1, lay.d, lay.h) + params[..., None, lay.b1])


def _forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """Returns (logits, the output layer's input: hidden activations or x)."""
    lay = spec.layout
    act = _hidden(lay, params, x) if lay.h else x
    return act @ _weights(params, lay.w2, lay.m, lay.k) + params[..., None, lay.b2], act


def _log_softmax(z: np.ndarray) -> np.ndarray:
    # the class max as k - 1 np.maximum calls over the class columns, cheaper
    # than a reduction over a short last axis and exact in any order; the
    # normalizer keeps numpy's pairwise sum, which a column loop matches only
    # below 8 classes
    top = z[..., 0]
    for j in range(1, z.shape[-1]):
        top = np.maximum(top, z[..., j])
    z = z - top[..., None]
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _mean_loss(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    # each seed's picked log-probabilities as one contiguous row, summed
    # pairwise as np.mean sums them, so a seed's loss is its call's alone
    picked = np.ascontiguousarray(_log_softmax(logits)[..., np.arange(len(y)), y])
    return -np.add.reduce(picked, axis=-1) / len(y)


def forward_loss(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy of the rows under the model. Deterministic.

    ``params`` is [P] or a stack [S, P], ``x`` [n, d] (shared by a stack) or
    [S, n, d], and ``y`` [n]; the result has the parameters' leading shape.
    """
    return _mean_loss(_forward(spec, params, x)[0], y)


def evaluate(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray):
    """``forward_loss`` and the fraction of argmax-correct labels (argmax
    ties go to the lowest class) from one forward pass, with its shapes."""
    logits = _forward(spec, params, x)[0]
    accuracy = np.count_nonzero(logits.argmax(axis=-1) == y, axis=-1) / len(y)
    return _mean_loss(logits, y), accuracy


def per_sample_gradients(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Exact per-sample loss gradients, one row per sample, dim = params dim.

    Each row is the gradient of that sample's own cross-entropy, so the row
    mean equals the gradient of ``forward_loss``.
    """
    lay = spec.layout
    n = x.shape[0]
    logits, act = _forward(spec, params, x)
    delta = np.exp(_log_softmax(logits))
    delta[np.arange(n), y] -= 1.0
    gw2 = np.einsum("nh,nk->nhk", act, delta).reshape(n, -1)
    if not lay.h:
        return np.concatenate([gw2, delta], axis=1)
    delta1 = (delta @ _weights(params, lay.w2, lay.h, lay.k).T) * (1.0 - act * act)
    gw1 = np.einsum("ni,nh->nih", x, delta1).reshape(n, -1)
    return np.concatenate([gw1, delta1, gw2, delta], axis=1)


def mean_gradient(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray, out=None
) -> np.ndarray:
    """Gradient of ``forward_loss``; cheaper than averaging per-sample rows.

    ``params`` is [P] or a stack [S, P]; ``x`` is [..., n, d] and ``y``
    [..., n], whose leading axes are the parameters' followed by any
    minibatch axes. Returns [..., P], written into ``out`` when given.
    """
    lay = spec.layout
    if x.ndim - 1 > params.ndim:
        params = with_minibatch_axes(params, x.ndim - 1)
    logits, act = _forward(spec, params, x)
    delta = np.exp(_log_softmax(logits))
    n, k = delta.shape[-2:]
    delta.reshape(-1)[np.arange(0, delta.size, k) + y.reshape(-1)] -= 1.0
    delta /= n
    if out is None:
        out = np.empty(delta.shape[:-2] + (lay.size,))
    lead = out.shape[:-1]
    out[..., lay.w2] = (act.swapaxes(-1, -2) @ delta).reshape(lead + (-1,))
    out[..., lay.b2] = delta.sum(axis=-2)
    if lay.h:
        delta1 = (delta @ _weights(params, lay.w2, lay.h, k).swapaxes(-1, -2)) * (1.0 - act * act)
        out[..., lay.w1] = (x.swapaxes(-1, -2) @ delta1).reshape(lead + (-1,))
        out[..., lay.b1] = delta1.sum(axis=-2)
    return out


def hidden_activations(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Post-tanh hidden layer (the embedding the edge regularizer penalizes),
    [..., n, h] for params [..., P]."""
    return _hidden(spec.layout, params, x)


def hidden_backward(
    spec: ModelSpec,
    params: np.ndarray,
    x: np.ndarray,
    act: np.ndarray,
    d_hidden: np.ndarray,
) -> np.ndarray:
    """Map a total derivative w.r.t. hidden activations to flat-parameter space.

    ``act`` is ``hidden_activations(spec, params, x)``, passed in so the
    hidden layer is not computed twice; the result has the shape of ``params``.
    """
    lay = spec.layout
    dz1 = d_hidden * (1.0 - act * act)
    grad = np.zeros_like(params)
    grad[..., lay.w1] = (x.swapaxes(-1, -2) @ dz1).reshape(params.shape[:-1] + (-1,))
    grad[..., lay.b1] = dz1.sum(axis=-2)
    return grad


# -- Hessian-vector products --------------------------------------------------


def hvp_operator(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray):
    """A pure callable v -> Hv of the mean loss on (x, y): the exact R-op of
    ``mean_gradient``'s backward pass in the direction v (Pearlmutter 1994).

    The forward pass at ``params`` is done once, here; each call then takes
    one directional-derivative forward pass and one backward pass.
    """
    lay = spec.layout
    n = x.shape[0]
    logits, act = _forward(spec, params, x)
    prob = np.exp(_log_softmax(logits))
    delta = prob.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    w2 = _weights(params, lay.w2, lay.m, lay.k).copy()
    if lay.h:
        slope = 1.0 - act * act
        back = delta @ w2.T

    def hvp(v: np.ndarray) -> np.ndarray:
        v2 = _weights(v, lay.w2, lay.m, lay.k)
        r_logits = act @ v2 + v[lay.b2]
        if lay.h:
            r_act = (x @ _weights(v, lay.w1, lay.d, lay.h) + v[lay.b1]) * slope
            r_logits += r_act @ w2
        r_delta = prob * (r_logits - (prob * r_logits).sum(axis=1, keepdims=True)) / n
        out = np.empty(lay.size)
        r_w2 = act.T @ r_delta
        out[lay.b2] = r_delta.sum(axis=0)
        if lay.h:
            r_w2 += r_act.T @ delta
            r_delta1 = (r_delta @ w2.T + delta @ v2.T) * slope - 2.0 * act * r_act * back
            out[lay.w1] = (x.T @ r_delta1).ravel()
            out[lay.b1] = r_delta1.sum(axis=0)
        out[lay.w2] = r_w2.ravel()
        return out

    return hvp
