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


# A Ritz pair counts as converged when its residual norm ||Hq - theta q||
# falls to this fraction of |theta|; the Ritz value's error is then about the
# residual squared over the gap to the next eigenvalue.
LANCZOS_TOL = 1e-8
# The Krylov space counts as invariant (breakdown) when the new direction is
# this small next to ||Hq||.
BREAKDOWN = 1e-12


def sharpness_lambda_max(hvp_oracle, dim: int) -> tuple[float, int]:
    """Dominant Hessian eigenvalue by Lanczos on an HVP oracle.

    Lanczos with full reorthogonalisation starts from one seeded point on the
    sphere and stops when the top-magnitude Ritz pair of the current Krylov
    block has a residual of at most ``LANCZOS_TOL`` times its value, or after
    ``dim`` steps. At a breakdown the block spans an invariant subspace and
    its Ritz values are exact eigenvalues; Lanczos then goes on from a fresh
    seeded vector orthogonal to every basis vector so far, so a start with no
    component along the top eigenvector still finds it. Returns the signed
    top-magnitude Ritz value of all blocks (negative for a negative-definite
    operator) and the oracle calls used. ``dim`` >= 1: ``train_run`` passes
    the parameter count.
    """
    rng = np.random.default_rng(0)

    def orthogonalise(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
        for _ in range(2):  # classical Gram-Schmidt twice is enough
            w -= basis.T @ (basis @ w)
        return w

    def fresh(basis: np.ndarray) -> np.ndarray:
        q = orthogonalise(rng.standard_normal(dim), basis)
        return q / np.linalg.norm(q)

    basis = np.empty((0, dim))
    q = fresh(basis)
    best = 0.0
    block = 0  # where the current Krylov block starts in the basis
    diag: list[float] = []
    off: list[float] = []
    for step in range(dim):
        basis = np.vstack([basis, q])
        w = np.array(hvp_oracle(q), dtype=np.float64)  # a copy: orthogonalised in place
        if not np.isfinite(w).all():
            raise ValueError("HVP oracle returned non-finite values")
        scale = float(np.linalg.norm(w))
        diag.append(float(q @ w))
        beta = float(np.linalg.norm(orthogonalise(w, basis)))
        t = np.diag(diag[block:]) + np.diag(off[block:], 1) + np.diag(off[block:], -1)
        theta, s = np.linalg.eigh(t)
        top = int(np.argmax(np.abs(theta)))
        if abs(theta[top]) > abs(best):
            best = float(theta[top])
        if step + 1 == dim:
            break
        if beta <= BREAKDOWN * scale:
            q = fresh(basis)
            off.append(0.0)
            block = step + 1
        elif beta * abs(s[-1, top]) <= LANCZOS_TOL * abs(theta[top]):
            break
        else:
            q = w / beta
            off.append(beta)
    if best == 0.0:
        raise ValueError("HVP oracle returned the zero vector on every Lanczos vector")
    return best, len(diag)


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
