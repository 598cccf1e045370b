"""Significance tests and aggregation for seed-level results.

Welch's t (no equal-variance assumption) with the p-value from the regularized
incomplete beta function, and the Wilcoxon signed-rank test with an exact
small-sample null distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EXACT_WILCOXON_MAX_N = 20


@dataclass(frozen=True)
class Summary:
    mean: float
    std: float | None
    n: int


def summarize(values) -> Summary:
    """Arithmetic mean and unbiased (n-1) std; std is None when n < 2."""
    x = np.asarray(list(values), dtype=np.float64)
    if x.size == 0:
        raise ValueError("summarize needs at least one value")
    std = float(x.std(ddof=1)) if x.size >= 2 else None
    return Summary(mean=float(x.mean()), std=std, n=int(x.size))


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: float
    p: float


def welch_t_test(xs, ys) -> TTestResult:
    """Two-sided Welch t-test with Welch-Satterthwaite degrees of freedom.

    When both samples have zero variance the statistic degenerates: t is
    signed infinity with p = 0 if the means differ, and t = 0 with p = 1 if
    they are equal.
    """
    from scipy.special import betainc

    x = np.asarray(list(xs), dtype=np.float64)
    y = np.asarray(list(ys), dtype=np.float64)
    if x.size < 2 or y.size < 2:
        raise ValueError("welch_t_test needs at least 2 values per sample")
    vx, vy = x.var(ddof=1), y.var(ddof=1)
    diff = x.mean() - y.mean()
    if vx == 0.0 and vy == 0.0:
        if diff == 0.0:
            return TTestResult(t=0.0, df=float("inf"), p=1.0)
        return TTestResult(t=math.copysign(math.inf, diff), df=float("inf"), p=0.0)
    se2 = vx / x.size + vy / y.size
    t = diff / math.sqrt(se2)
    df = se2**2 / ((vx / x.size) ** 2 / (x.size - 1) + (vy / y.size) ** 2 / (y.size - 1))
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TTestResult(t=float(t), df=float(df), p=p)


@dataclass(frozen=True)
class WilcoxonResult:
    w: float
    p: float
    method: str
    n: int


def _exact_signed_rank_p(ranks: np.ndarray, w: float) -> float:
    # Null distribution of W = sum of "positive" ranks over all 2^n sign
    # assignments, via subset-sum counting on doubled ranks (ties give
    # half-integer average ranks, so doubling makes every rank integral).
    r2 = np.rint(2.0 * ranks).astype(np.int64)
    total = int(r2.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in r2:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total + 1 - r]
        counts = counts + shifted
    n_assignments = 2.0 ** len(ranks)
    w2 = int(np.rint(2.0 * w))
    p_low = counts[: w2 + 1].sum() / n_assignments
    p_high = counts[w2:].sum() / n_assignments
    return min(1.0, 2.0 * min(p_low, p_high))


def wilcoxon_signed_rank(diffs) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired differences.

    Zero differences are dropped; when none is left the result is W = 0,
    p = 1, method ``degenerate``. Tied magnitudes share average ranks. Up to
    20 nonzero differences the p-value comes from the exact null distribution
    over every sign assignment; beyond that a normal approximation with tie
    and continuity corrections is used.
    """
    d = np.asarray(list(diffs), dtype=np.float64)
    if not np.isfinite(d).all():
        raise ValueError("non-finite differences")
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return WilcoxonResult(w=0.0, p=1.0, method="degenerate", n=0)
    # average ranks of the magnitudes: a tie group of size c ending at
    # sorted position k (1-based) shares rank k - (c - 1) / 2
    _, inverse, tie_counts = np.unique(np.abs(d), return_inverse=True, return_counts=True)
    ranks = (np.cumsum(tie_counts) - (tie_counts - 1) / 2.0)[inverse]
    w = float(ranks[d > 0].sum())
    if n <= EXACT_WILCOXON_MAX_N:
        return WilcoxonResult(w=w, p=_exact_signed_rank_p(ranks, w), method="exact", n=n)
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    var -= ((tie_counts**3 - tie_counts) / 48.0).sum()  # under a quarter of var: it stays > 0
    centered = w - mu
    z = (centered - 0.5 * np.sign(centered)) / math.sqrt(var) if centered != 0 else 0.0
    p = float(math.erfc(abs(z) / math.sqrt(2.0)))
    return WilcoxonResult(w=w, p=min(1.0, p), method="normal", n=n)
