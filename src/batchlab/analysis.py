"""End-to-end causal analysis of a set of run records.

Extracts the five observed variables from completed, unablated runs, bins
them, fits one table set per engine mode (each mode is a factor set, given by
its own hypergraph structure), answers interventional queries for every
observed batch size, and bundles everything into one JSON document
(``analysis.json``, whose top-level keys are the ``AnalysisBundle`` fields)
that is written for other tools and never read back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import causal, models
from .training import RunRecord

# The factor set of each engine mode, as the hypergraph it is fitted and queried on.
STRUCTURES = {
    causal.MODE_HYPERGRAPH: causal.default_hypergraph(),
    causal.MODE_ALGORITHM1: causal.algorithm1_structure(),
}


@dataclass(frozen=True)
class AnalysisSettings:
    """Engine settings; treat/control of None resolve to the smallest and
    largest observed batch size."""

    bins: int = 3
    alpha: float = 1.0
    treat: int | None = None
    control: int | None = None

    def __post_init__(self) -> None:
        optional = {"treat": self.treat, "control": self.control}
        given = {name: value for name, value in optional.items() if value is not None}
        models.require_integers(bins=self.bins, **given)
        models.require_reals(alpha=self.alpha)
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")

    def to_dict(self) -> dict:
        return dict(vars(self))


def records_to_observations(records: list[RunRecord]) -> list[dict]:
    """One observation per usable run: unablated, non-degenerate, measured."""
    obs = []
    for r in records:
        if r.ablation != "none" or r.final is None:
            continue
        obs.append(
            {
                causal.VAR_BATCH: int(r.batch_size),
                causal.VAR_NOISE: float(r.final.grad_noise),
                causal.VAR_SHARPNESS: float(r.final.sharpness),
                causal.VAR_COMPLEXITY: float(r.final.complexity),
                causal.VAR_GENERALIZATION: float(r.final.test_accuracy),
            }
        )
    return obs


@dataclass
class AnalysisBundle:
    settings: AnalysisSettings
    treat: int
    control: int
    scheme: causal.DiscretizationScheme
    tables: dict[str, list[causal.ConditionalTable]]  # per engine mode
    interventions: dict[str, list[causal.InterventionResult]]  # per engine mode
    ate: dict[str, float]  # per engine mode
    backdoor: list[causal.StratumDiagnostic]
    n_observations: int

    def save(self, path) -> None:
        """Write the bundle as ``analysis.json``: its fields, in order, are the
        top-level keys, and each nested result is written by its own ``to_dict``."""
        Path(path).write_text(json.dumps(vars(self), indent=2, default=lambda o: o.to_dict()))


def analyze_observations(observations: list[dict], settings: AnalysisSettings) -> AnalysisBundle:
    """Fit both engine modes on the observations and answer every do() query;
    a mode's ATE is the difference of its do(treat) and do(control) answers.

    Variables with fewer distinct values than the requested bin count are
    binned at their distinct-value count (a constant column becomes a single
    bin), so degenerate sweeps still analyze cleanly.
    """
    if not observations:
        raise ValueError("no usable observations (completed, unablated runs)")
    scheme, binned = causal.discretize_records(observations, k=settings.bins)

    tables = {
        mode: causal.fit_cpts(graph, binned, alpha=settings.alpha)
        for mode, graph in STRUCTURES.items()
    }

    levels = scheme.bins[causal.VAR_BATCH].levels
    treat = settings.treat if settings.treat is not None else min(levels)
    control = settings.control if settings.control is not None else max(levels)
    for name, level in (("treat", treat), ("control", control)):
        if level not in levels:
            raise ValueError(f"unknown {name} level {level}; observed levels {list(levels)}")

    interventions: dict[str, list[causal.InterventionResult]] = {}
    ate_by_mode: dict[str, float] = {}
    for mode, graph in STRUCTURES.items():
        interventions[mode] = [
            causal.interventional_distribution(graph, tables[mode], b, scheme, mode=mode)
            for b in levels
        ]
        expected = {res.b: res.expected for res in interventions[mode]}
        ate_by_mode[mode] = expected[treat] - expected[control]

    return AnalysisBundle(
        settings=settings,
        treat=treat,
        control=control,
        scheme=scheme,
        tables=tables,
        interventions=interventions,
        ate=ate_by_mode,
        backdoor=causal.backdoor_diagnostic(binned),
        n_observations=len(observations),
    )


def analyze_records(records: list[RunRecord], settings: AnalysisSettings) -> AnalysisBundle:
    return analyze_observations(records_to_observations(records), settings)
