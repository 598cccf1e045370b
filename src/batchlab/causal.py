"""Discrete causal engine over a hypergraph of training-run variables.

A causal hypergraph maps tail variable sets to single head variables; fitting
one smoothed conditional probability table per hyperedge turns observed run
records into a discrete structural model. Interventions on the batch-size
variable are answered by truncated factorization (summing the product of the
remaining factors over every mediator bin). After fitting, the engine is two
things: the discretization scheme, a dict from each variable to its binning,
and the table list, which is its own structure (each table names its head
and tails). A query names a batch-size level of the scheme, and its expected
outcome weights the scheme's generalization representatives; the average
treatment effect is the difference of the expected outcomes of two such
answers.
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

    def to_dict(self) -> dict:
        return {
            "kind": "continuous",
            "cuts": list(self.cuts),
            "representatives": list(self.representatives),
        }


@dataclass(frozen=True)
class DiscreteBinning:
    levels: tuple

    @property
    def k(self) -> int:
        return len(self.levels)

    def assign(self, values: np.ndarray) -> np.ndarray:
        index = {v: i for i, v in enumerate(self.levels)}
        return np.asarray([index[v] for v in values], dtype=np.int64)

    def to_dict(self) -> dict:
        return {"kind": "discrete", "levels": list(self.levels)}


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


def discretize_records(columns, k: int, discrete) -> tuple[dict, dict[str, np.ndarray]]:
    """Bin each column of a nonempty observation table (``columns``, one value
    per record): a variable in ``discrete`` keeps its sorted unique values as
    its levels, and every other one gets at most ``k`` equal-frequency bins,
    whose representatives are within-bin means of the fitting records.

    Returns the scheme (each variable's binning) and the binned table (each
    variable's bin index per record).
    """
    scheme: dict[str, ContinuousBinning | DiscreteBinning] = {}
    for var in sorted(columns):
        if var in discrete:
            scheme[var] = DiscreteBinning(levels=tuple(sorted(set(columns[var].tolist()))))
        else:
            scheme[var] = _equal_frequency_binning(columns[var], k)
    return scheme, {var: binning.assign(columns[var]) for var, binning in scheme.items()}


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


def fit_cpts(h: CausalHypergraph, scheme, binned, alpha: float) -> list[ConditionalTable]:
    """One Laplace-smoothed table per hyperedge of ``h``, over the bins of
    ``scheme`` and the bin indices of ``binned`` (``discretize_records``):
    P(head | tail) = (count + alpha) / (row_total + alpha * k_head),
    uniform where that denominator is 0 (a row never observed, alpha = 0).
    """
    tables = []
    for edge in h.hyperedges:
        k_head = scheme[edge.head].k
        shape = tuple(scheme[t].k for t in edge.tails) + (k_head,)
        counts = np.zeros(shape, dtype=np.float64)
        idx = tuple(binned[t] for t in edge.tails) + (binned[edge.head],)
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


def interventional_distribution(tables, b, scheme, mode: str) -> InterventionResult:
    """Generalization distribution under do(batch size = b), by truncated
    factorization, with ``b`` a batch-size level of the fitted ``scheme``.

    The tables are the structure: their edges must form a causal hypergraph
    (one table per head, no cycle) with a table into generalization. Every
    table except one into the batch size is one factor, with the batch-size
    axis fixed at the bin of ``b``; a single ``np.einsum`` sums the product
    over every other variable and the result is normalized. A variable that
    heads no table (other than the batch size) has no factor and is summed
    out of the tables that condition on it. The expected outcome weights the
    scheme's generalization representatives. ``mode`` only labels the result
    with the name of the factor set.
    """
    levels = scheme[VAR_BATCH].levels
    if b not in levels:
        raise ValueError(f"unknown intervention level {b!r}; known levels {list(levels)}")
    b_index = levels.index(b)

    axis: dict[str, int] = {}  # einsum labels, by first appearance over the tables
    for table in tables:
        for v in table.tails + (table.head,):
            axis.setdefault(v, len(axis))
    # the tables' edges must be a hypergraph: one table per head, no cycle
    CausalHypergraph.from_edges(axis, [(t.tails, t.head) for t in tables])
    if VAR_GENERALIZATION not in {t.head for t in tables}:
        raise ValueError(f"no table heads {VAR_GENERALIZATION!r}")
    operands = []
    for table in tables:
        if table.head == VAR_BATCH:
            continue
        probs = table.probs
        if VAR_BATCH in table.tails:
            probs = probs.take(b_index, axis=table.tails.index(VAR_BATCH))
        tails = [axis[v] for v in table.tails if v != VAR_BATCH]
        operands += [probs, tails + [axis[table.head]]]
    dist = np.einsum(*operands, [axis[VAR_GENERALIZATION]])
    dist = dist / dist.sum()
    reps = np.asarray(scheme[VAR_GENERALIZATION].representatives, dtype=np.float64)
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


def backdoor_diagnostic(scheme, binned) -> list[StratumDiagnostic]:
    """Per-stratum chi-square tests of generalization-batch size independence.

    Diagnostic only: checks the conditional independence the back-door
    adjustment assumes, within each complexity stratum. Strata with fewer
    than ``MIN_STRATUM_RECORDS`` records (or degenerate tables) are skipped
    and reported as such.
    """
    from scipy.special import chdtrc

    results = []
    strata = binned[VAR_COMPLEXITY]
    for s in range(scheme[VAR_COMPLEXITY].k):
        mask = strata == s
        n = int(mask.sum())
        if n < MIN_STRATUM_RECORDS:
            reason = f"fewer than {MIN_STRATUM_RECORDS} records"
            results.append(StratumDiagnostic(s, n, None, None, None, True, reason))
            continue
        table = np.zeros((scheme[VAR_GENERALIZATION].k, scheme[VAR_BATCH].k))
        outcome, treatment = binned[VAR_GENERALIZATION], binned[VAR_BATCH]
        np.add.at(table, (outcome[mask], treatment[mask]), 1.0)
        try:
            stat, dof = pearson_chi_square(table)
        except ValueError as exc:
            results.append(StratumDiagnostic(s, n, None, None, None, True, str(exc)))
            continue
        p = float(chdtrc(dof, stat))
        results.append(StratumDiagnostic(s, n, stat, dof, p, False))
    return results
