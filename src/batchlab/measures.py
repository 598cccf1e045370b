"""Run-level measurements: gradient noise, top curvature, complexity, generalization.

All four quantities are defined on a model state (parameters plus a probe
batch) and are pure functions, so they can be recomputed or checked against
independent oracles at any time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ComplexityDomainError(ValueError):
    """Sharpness or noise outside the domain of the complexity index."""


def gradient_noise(per_sample_grads: np.ndarray, batch_size: int) -> float:
    """Mini-batch gradient estimator noise at the given batch size.

    The per-coordinate unbiased sample variance of the per-sample gradients is
    averaged over coordinates and divided by the batch size (the variance of a
    size-B mean is the per-sample variance over B). Dividing the per-coordinate
    average keeps the scale independent of parameter dimension and reduces to
    the scalar-gradient case at dim 1. ``per_sample_grads`` is [n x P] with
    n >= 2, and ``batch_size`` >= 1: ``train_run`` and ``TrainConfig`` ensure
    both.
    """
    if not np.isfinite(per_sample_grads).all():
        raise ValueError("non-finite gradient samples")
    return float(per_sample_grads.var(axis=0, ddof=1).mean() / batch_size)


def sharpness_lambda_max(
    hvp_oracle,
    dim: int,
    max_iters: int = 200,
    tol: float = 1e-6,
    seed: int = 0,
) -> tuple[float, int]:
    """Dominant Hessian eigenvalue by power iteration on an HVP oracle.

    Starts from a seeded point uniform on the sphere, normalizes each iterate,
    and stops when the Rayleigh quotient changes by less than ``tol`` relative.
    One restart from a second seeded start guards against a start vector
    orthogonal to the top eigenspace; the larger-magnitude Rayleigh quotient
    wins. Returns the signed quotient (negative for negative-definite
    operators) and total iterations used. ``dim``, ``max_iters`` >= 1 and
    ``tol`` > 0: ``train_run`` passes the parameter count and the defaults.
    """
    def one_start(start_seed: int):
        rng = np.random.default_rng(start_seed)
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        rayleigh = None
        used = 0
        for _ in range(max_iters):
            w = np.asarray(hvp_oracle(v), dtype=np.float64)
            used += 1
            if not np.isfinite(w).all():
                raise ValueError("HVP oracle returned non-finite values")
            current = float(v @ w)
            norm_w = float(np.linalg.norm(w))
            if norm_w == 0.0:
                return None, used
            v = w / norm_w
            if rayleigh is not None and abs(current - rayleigh) <= tol * max(1.0, abs(current)):
                return current, used
            rayleigh = current
        return rayleigh, used

    first, used_a = one_start(seed)
    second, used_b = one_start(seed + 1)
    used = used_a + used_b
    candidates = [c for c in (first, second) if c is not None]
    if not candidates:
        raise ValueError("HVP oracle returned the zero vector from every iterate")
    return max(candidates, key=abs), used


def complexity(sharpness: float, noise: float) -> float:
    """Composite complexity index 1/S + ln N, defined for S > 0 and N > 0."""
    if not (sharpness > 0.0):
        raise ComplexityDomainError(f"sharpness must be positive, got {sharpness}")
    if not (noise > 0.0):
        raise ComplexityDomainError(f"noise must be positive, got {noise}")
    return 1.0 / sharpness + float(np.log(noise))


@dataclass(frozen=True)
class GeneralizationMetrics:
    accuracy: float
    gap: float


def measure_generalization(
    train_loss: float, test_loss: float, test_accuracy: float
) -> GeneralizationMetrics:
    """Test accuracy plus the loss gap (test minus train)."""
    for name, value in (("train_loss", train_loss), ("test_loss", test_loss)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite")
    return GeneralizationMetrics(accuracy=float(test_accuracy), gap=float(test_loss - train_loss))


@dataclass(frozen=True)
class Measurement:
    """Final measured state of one training run."""

    grad_noise: float
    sharpness: float
    complexity: float
    test_accuracy: float
    gen_gap: float
    batch_size: int
    epoch: int

    def to_dict(self) -> dict:
        return dict(vars(self))

    @staticmethod
    def from_dict(d: dict) -> "Measurement":
        return Measurement(**d)
