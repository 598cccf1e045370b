"""Discrete causal engine over a hypergraph of training-run variables.

A causal hypergraph maps tail variable sets to single head variables; fitting
one smoothed conditional probability table per hyperedge turns observed run
records into a discrete structural model. Interventions on the batch-size
variable are answered by truncated factorization (summing the product of the
remaining factors over every mediator bin). A query names a batch-size level
of the fitted discretization scheme, and its expected outcome weights the
scheme's generalization representatives; the average treatment effect is the
difference of the expected outcomes of two such answers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VAR_BATCH = "batch_size"
VAR_NOISE = "grad_noise"
VAR_SHARPNESS = "sharpness"
VAR_COMPLEXITY = "complexity"
VAR_GENERALIZATION = "generalization"
DEFAULT_VARIABLES = (VAR_BATCH, VAR_NOISE, VAR_SHARPNESS, VAR_COMPLEXITY, VAR_GENERALIZATION)

MODE_HYPERGRAPH = "hypergraph"
MODE_ALGORITHM1 = "algorithm1"


@dataclass(frozen=True)
class Hyperedge:
    tails: tuple[str, ...]
    head: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "tails", tuple(sorted(self.tails)))
        if self.head in self.tails:
            raise ValueError(f"self-loop on {self.head!r}")


@dataclass(frozen=True)
class CausalHypergraph:
    variables: tuple[str, ...]
    hyperedges: tuple[Hyperedge, ...]

    def __post_init__(self) -> None:
        validate_hypergraph(self)  # once, when built: queries and fits trust the structure

    @staticmethod
    def from_edges(variables, edges) -> "CausalHypergraph":
        return CausalHypergraph(
            variables=tuple(variables),
            hyperedges=tuple(Hyperedge(tuple(t), h) for t, h in edges),
        )


def default_hypergraph() -> CausalHypergraph:
    """Batch size drives noise, noise drives sharpness, noise and sharpness
    jointly drive complexity, complexity drives generalization."""
    return CausalHypergraph.from_edges(
        DEFAULT_VARIABLES,
        [
            ((VAR_BATCH,), VAR_NOISE),
            ((VAR_NOISE,), VAR_SHARPNESS),
            ((VAR_NOISE, VAR_SHARPNESS), VAR_COMPLEXITY),
            ((VAR_COMPLEXITY,), VAR_GENERALIZATION),
        ],
    )


def algorithm1_structure() -> CausalHypergraph:
    """Factor set of the alternate (algorithm1) engine mode: complexity has
    no incoming edge, so it gets no factor and is summed out, and the outcome
    conditions jointly on all mediators."""
    return CausalHypergraph.from_edges(
        DEFAULT_VARIABLES,
        [
            ((VAR_BATCH,), VAR_NOISE),
            ((VAR_NOISE,), VAR_SHARPNESS),
            ((VAR_NOISE, VAR_SHARPNESS, VAR_COMPLEXITY), VAR_GENERALIZATION),
        ],
    )


def validate_hypergraph(h: CausalHypergraph) -> list[str]:
    """Topological factorization order (tails always precede heads).

    Rejects variables with more than one incoming hyperedge, unknown
    variables, and cycles in the induced tail-to-head digraph.
    """
    known = set(h.variables)
    heads_seen: set[str] = set()
    for edge in h.hyperedges:
        if edge.head not in known or any(t not in known for t in edge.tails):
            raise ValueError(f"edge {edge} references unknown variable")
        if edge.head in heads_seen:
            raise ValueError(f"variable {edge.head!r} has two incoming hyperedges")
        heads_seen.add(edge.head)
    incoming = {e.head: set(e.tails) for e in h.hyperedges}
    order: list[str] = []
    remaining = set(h.variables)
    while remaining:
        ready = sorted(
            v for v in remaining if not (incoming.get(v, set()) & remaining)
        )
        if not ready:
            raise ValueError(f"cycle detected among {sorted(remaining)}")
        order.extend(ready)
        remaining -= set(ready)
    return order


# -- discretization -------------------------------------------------------------


@dataclass(frozen=True)
class ContinuousBinning:
    cuts: tuple[float, ...]
    representatives: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.representatives)

    def assign(self, values: np.ndarray) -> np.ndarray:
        # side="left": a value equal to a cut point goes to the lower bin
        return np.searchsorted(np.asarray(self.cuts), values, side="left").astype(np.int64)


@dataclass(frozen=True)
class DiscreteBinning:
    levels: tuple

    @property
    def k(self) -> int:
        return len(self.levels)

    def assign(self, values: np.ndarray) -> np.ndarray:
        index = {v: i for i, v in enumerate(self.levels)}
        return np.asarray([index[v] for v in values], dtype=np.int64)


@dataclass(frozen=True)
class DiscretizationScheme:
    bins: dict[str, ContinuousBinning | DiscreteBinning]

    def to_dict(self) -> dict:
        out = {}
        for var, b in self.bins.items():
            if isinstance(b, DiscreteBinning):
                out[var] = {"kind": "discrete", "levels": list(b.levels)}
            else:
                out[var] = {
                    "kind": "continuous",
                    "cuts": list(b.cuts),
                    "representatives": list(b.representatives),
                }
        return out


@dataclass
class BinnedRecords:
    """Each variable's bin index per record (``columns``) and bin count (``k``)."""

    columns: dict[str, np.ndarray]
    k: dict[str, int]


def _equal_frequency_binning(values: np.ndarray, k: int) -> ContinuousBinning:
    """``k`` equal-frequency bins, or one per distinct value when there are
    fewer (a constant column becomes a single bin)."""
    k = min(k, len(set(values.tolist())))
    if k == 1:
        return ContinuousBinning(cuts=(), representatives=(float(values.mean()),))
    cuts = np.quantile(values, [i / k for i in range(1, k)])
    if not np.all(np.diff(cuts) > 0):
        raise ValueError("quantile cut points are not strictly increasing")
    binning = ContinuousBinning(cuts=tuple(float(c) for c in cuts), representatives=())
    assigned = binning.assign(values)
    reps = []
    for b in range(k):
        members = values[assigned == b]
        if members.size:
            reps.append(float(members.mean()))
        elif b == 0:
            reps.append(float(values.min()))
        elif b == k - 1:
            reps.append(float(values.max()))
        else:
            reps.append(float((cuts[b - 1] + cuts[b]) / 2.0))
    return ContinuousBinning(cuts=binning.cuts, representatives=tuple(reps))


def discretize_records(columns, k: int, discrete) -> tuple[DiscretizationScheme, BinnedRecords]:
    """Bin each column of a nonempty observation table (``columns``, one value
    per record): a variable in ``discrete`` keeps its sorted unique values as
    its levels, and every other one gets at most ``k`` equal-frequency bins,
    whose representatives are within-bin means of the fitting records."""
    bins: dict[str, ContinuousBinning | DiscreteBinning] = {}
    for var in sorted(columns):
        if var in discrete:
            bins[var] = DiscreteBinning(levels=tuple(sorted(set(columns[var].tolist()))))
        else:
            bins[var] = _equal_frequency_binning(columns[var], k)
    binned = {var: binning.assign(columns[var]) for var, binning in bins.items()}
    k_map = {var: binning.k for var, binning in bins.items()}
    return DiscretizationScheme(bins=bins), BinnedRecords(columns=binned, k=k_map)


# -- conditional probability tables ----------------------------------------------


@dataclass
class ConditionalTable:
    """P(head | tails), probabilities indexed by (tail bins..., head bin)."""

    head: str
    tails: tuple[str, ...]
    probs: np.ndarray
    alpha: float

    def to_dict(self) -> dict:
        return {
            "head": self.head,
            "tails": list(self.tails),
            "shape": list(self.probs.shape),
            "probs": self.probs.ravel().tolist(),
            "alpha": self.alpha,
        }


def fit_cpts(h: CausalHypergraph, binned: BinnedRecords, alpha: float) -> list[ConditionalTable]:
    """One Laplace-smoothed table per hyperedge:
    P(head | tail) = (count + alpha) / (row_total + alpha * k_head),
    uniform where that denominator is 0 (a row never observed, alpha = 0).
    """
    tables = []
    for edge in h.hyperedges:
        k_head = binned.k[edge.head]
        shape = tuple(binned.k[t] for t in edge.tails) + (k_head,)
        counts = np.zeros(shape, dtype=np.float64)
        idx = tuple(binned.columns[t] for t in edge.tails) + (binned.columns[edge.head],)
        np.add.at(counts, idx, 1.0)
        denom = counts.sum(axis=-1, keepdims=True) + alpha * k_head
        seen = denom > 0
        probs = np.where(seen, (counts + alpha) / np.where(seen, denom, 1.0), 1.0 / k_head)
        tables.append(ConditionalTable(head=edge.head, tails=edge.tails, probs=probs, alpha=alpha))
    return tables


# -- interventional queries -------------------------------------------------------


@dataclass(frozen=True)
class InterventionResult:
    b: object
    mode: str
    distribution: np.ndarray
    expected: float

    def to_dict(self) -> dict:
        return {
            "b": self.b,
            "mode": self.mode,
            "distribution": [float(p) for p in self.distribution],
            "expected": float(self.expected),
        }


def interventional_distribution(
    h: CausalHypergraph,
    tables,
    b,
    scheme: DiscretizationScheme,
    mode: str = MODE_HYPERGRAPH,
) -> InterventionResult:
    """Generalization distribution under do(batch size = b), by truncated
    factorization, with ``b`` a batch-size level of the fitted ``scheme``.

    Every hyperedge of ``h`` except the one into the batch size contributes
    its table as one factor, with the batch-size axis fixed at the bin of
    ``b``; a single ``np.einsum`` sums the product over every other variable
    and the result is normalized. A variable with no incoming hyperedge
    (other than the batch size) has no factor and is summed out of the tables
    that condition on it. The expected outcome weights the scheme's
    generalization representatives. ``mode`` only labels the result with the
    name of the factor set.
    """
    levels = scheme.bins[VAR_BATCH].levels
    if b not in levels:
        raise ValueError(f"unknown intervention level {b!r}; known levels {list(levels)}")
    b_index = levels.index(b)

    by_head = {t.head: t for t in tables}
    axis = {v: i for i, v in enumerate(h.variables)}
    operands = []
    for edge in h.hyperedges:
        if edge.head == VAR_BATCH:
            continue
        table = by_head.get(edge.head)
        if table is None or table.tails != edge.tails:
            raise ValueError(f"missing table for variable {edge.head!r} given {edge.tails}")
        probs = table.probs
        if VAR_BATCH in edge.tails:
            probs = probs.take(b_index, axis=edge.tails.index(VAR_BATCH))
        tails = [axis[v] for v in edge.tails if v != VAR_BATCH]
        operands += [probs, tails + [axis[edge.head]]]
    dist = np.einsum(*operands, [axis[VAR_GENERALIZATION]])
    dist = dist / dist.sum()
    reps = np.asarray(scheme.bins[VAR_GENERALIZATION].representatives, dtype=np.float64)
    return InterventionResult(b=b, mode=mode, distribution=dist, expected=float(dist @ reps))


# -- back-door diagnostic ----------------------------------------------------------

MIN_STRATUM_RECORDS = 5


@dataclass(frozen=True)
class StratumDiagnostic:
    stratum: int
    n: int
    chi_square: float | None
    dof: int | None
    p_value: float | None
    skipped: bool
    reason: str | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))


def pearson_chi_square(table: np.ndarray) -> tuple[float, int]:
    """Pearson statistic and dof of a contingency table (empty margins dropped)."""
    obs = np.asarray(table, dtype=np.float64)
    obs = obs[obs.sum(axis=1) > 0][:, obs.sum(axis=0) > 0]
    r, c = obs.shape
    if r < 2 or c < 2:
        raise ValueError("contingency table needs two nonempty rows and columns")
    total = obs.sum()
    expected = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / total
    stat = float(((obs - expected) ** 2 / expected).sum())
    return stat, (r - 1) * (c - 1)


def backdoor_diagnostic(binned: BinnedRecords) -> list[StratumDiagnostic]:
    """Per-stratum chi-square tests of generalization-batch size independence.

    Diagnostic only: checks the conditional independence the back-door
    adjustment assumes, within each complexity stratum. Strata with fewer
    than ``MIN_STRATUM_RECORDS`` records (or degenerate tables) are skipped
    and reported as such.
    """
    from scipy.special import chdtrc

    results = []
    strata = binned.columns[VAR_COMPLEXITY]
    for s in range(binned.k[VAR_COMPLEXITY]):
        mask = strata == s
        n = int(mask.sum())
        if n < MIN_STRATUM_RECORDS:
            reason = f"fewer than {MIN_STRATUM_RECORDS} records"
            results.append(StratumDiagnostic(s, n, None, None, None, True, reason))
            continue
        table = np.zeros((binned.k[VAR_GENERALIZATION], binned.k[VAR_BATCH]))
        outcome, treatment = binned.columns[VAR_GENERALIZATION], binned.columns[VAR_BATCH]
        np.add.at(table, (outcome[mask], treatment[mask]), 1.0)
        try:
            stat, dof = pearson_chi_square(table)
        except ValueError as exc:
            results.append(StratumDiagnostic(s, n, None, None, None, True, str(exc)))
            continue
        p = float(chdtrc(dof, stat))
        results.append(StratumDiagnostic(s, n, stat, dof, p, False))
    return results
