"""Run-level measurements: gradient noise, top curvature and complexity.

All three quantities are defined on a model state (parameters plus a probe
batch) and are pure functions, so they can be recomputed or checked against
independent oracles at any time. ``training.train_run`` reads a run's test
accuracy and loss gap from its epoch log into its ``Measurement``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
# A largest Ritz value within dim * ROUNDOFF times the largest Ritz magnitude
# of 0 reads as 0: each tridiagonal entry is a length-dim dot product, whose
# rounding error is up to dim * eps * ||H|| (Higham's gamma_n), and the largest
# Ritz magnitude is a lower bound on ||H||, so such a value is roundoff.
ROUNDOFF = float(np.finfo(np.float64).eps)


def sharpness_lambda_max(hvp_oracle, dim: int) -> tuple[float, int]:
    """Largest Hessian eigenvalue by Lanczos on an HVP oracle.

    Lanczos with full reorthogonalisation starts from one seeded point on the
    sphere and stops when the largest Ritz pair of the current Krylov block
    has a residual of at most ``LANCZOS_TOL`` times its value, or after
    ``dim`` steps. At a breakdown the block spans an invariant subspace and
    its Ritz values are exact eigenvalues; Lanczos then goes on from a fresh
    seeded vector orthogonal to every basis vector so far, so a start with no
    component along the wanted eigenvector still finds it. Returns the largest
    Ritz value of all blocks (negative for a negative-definite operator),
    whatever the magnitude of a negative eigenvalue, and the oracle calls
    used; one within roundoff of 0 (``ROUNDOFF``) is 0, as for a negative
    semidefinite operator. ``dim`` >= 1: ``train_run`` passes the parameter count.
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
    best = -np.inf
    magnitude = 0.0  # the largest |Ritz value| of all blocks
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
        theta, s = np.linalg.eigh(t)  # ascending, so the largest is last
        best = max(best, float(theta[-1]))
        magnitude = max(magnitude, -float(theta[0]), float(theta[-1]))
        if step + 1 == dim:
            break
        if beta <= BREAKDOWN * scale:
            q = fresh(basis)
            off.append(0.0)
            block = step + 1
        elif beta * abs(s[-1, -1]) <= LANCZOS_TOL * abs(theta[-1]):
            break
        else:
            q = w / beta
            off.append(beta)
    if magnitude == 0.0:
        raise ValueError("HVP oracle returned the zero vector on every Lanczos vector")
    if abs(best) <= dim * ROUNDOFF * magnitude:
        best = 0.0
    return best, len(diag)


def complexity(sharpness: float, noise: float) -> float:
    """Composite complexity index 1/S + ln N, defined for S > 0 and N > 0."""
    if not (sharpness > 0.0):
        raise ValueError(f"complexity domain: sharpness must be positive, got {sharpness}")
    if not (noise > 0.0):
        raise ValueError(f"complexity domain: noise must be positive, got {noise}")
    return 1.0 / sharpness + float(np.log(noise))


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
