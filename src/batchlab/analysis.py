"""End-to-end causal analysis of a set of run records.

Extracts the observed variables declared in ``VARIABLES`` from completed,
unablated runs, bins them, fits one table set per engine mode (each mode is a
factor set, given by its own hypergraph structure), answers interventional
queries for every observed batch size, and bundles everything into one JSON
document (``analysis.json``, whose top-level keys are the ``AnalysisBundle``
fields) that is written for other tools and never read back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import causal, models
from .training import RunRecord

# The causal variables, each declared here once: its reader of a usable run
# record, and whether its observed values are its levels (the batch size) or
# are binned into equal-frequency bins.
VARIABLES = {
    causal.VAR_BATCH: (lambda r: r.batch_size, True),
    causal.VAR_NOISE: (lambda r: r.final.grad_noise, False),
    causal.VAR_SHARPNESS: (lambda r: r.final.sharpness, False),
    causal.VAR_COMPLEXITY: (lambda r: r.final.complexity, False),
    causal.VAR_GENERALIZATION: (lambda r: r.final.test_accuracy, False),
}

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


def usable_runs(records: list[RunRecord]) -> list[RunRecord]:
    """The runs the causal analysis and the report's sharpness and
    significance tables read: unablated and measured (not degenerate)."""
    return [r for r in records if r.ablation == "none" and r.final is not None]


def treat_control(batch_sizes, settings: AnalysisSettings) -> tuple[int, int]:
    """The (treat, control) that the engine and the significance tests compare: the
    settings' levels, else the smallest and largest observed ``batch_sizes``."""
    levels = sorted(set(batch_sizes))
    if not levels:
        raise ValueError("no usable observations (completed, unablated runs)")
    treat = settings.treat if settings.treat is not None else min(levels)
    control = settings.control if settings.control is not None else max(levels)
    for name, level in (("treat", treat), ("control", control)):
        if level not in levels:
            raise ValueError(f"unknown {name} level {level}; observed levels {levels}")
    return treat, control


def records_to_observations(records: list[RunRecord]) -> dict[str, np.ndarray]:
    """The observation table: one column per ``VARIABLES`` entry, one row per
    ``usable_runs`` entry."""
    usable = usable_runs(records)
    return {
        name: np.asarray([read(r) for r in usable], dtype=None if levels else np.float64)
        for name, (read, levels) in VARIABLES.items()
    }


@dataclass
class AnalysisBundle:
    settings: AnalysisSettings
    treat: int
    control: int
    scheme: dict[str, causal.ContinuousBinning | causal.DiscreteBinning]
    tables: dict[str, list[causal.ConditionalTable]]  # per engine mode
    interventions: dict[str, list[causal.InterventionResult]]  # per engine mode
    ate: dict[str, float]  # per engine mode
    backdoor: list[causal.StratumDiagnostic]
    n_observations: int

    def save(self, path) -> None:
        """Write the bundle as ``analysis.json``: its fields, in order, are the
        top-level keys, and each nested result is written by its own ``to_dict``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(vars(self), indent=2, default=lambda o: o.to_dict()))


def analyze_observations(observations: dict, settings: AnalysisSettings) -> AnalysisBundle:
    """Fit both engine modes on the observation table of ``records_to_observations``
    and answer every do() query; a mode's ATE is the difference of its
    do(treat) and do(control) answers.

    Variables with fewer distinct values than the requested bin count are
    binned at their distinct-value count (a constant column becomes a single
    bin), so degenerate sweeps still analyze cleanly.
    """
    treat, control = treat_control(observations[causal.VAR_BATCH].tolist(), settings)
    discrete = {name for name, (_, levels) in VARIABLES.items() if levels}
    scheme, binned = causal.discretize_records(observations, settings.bins, discrete)

    tables: dict[str, list[causal.ConditionalTable]] = {}
    interventions: dict[str, list[causal.InterventionResult]] = {}
    ate_by_mode: dict[str, float] = {}
    for mode, graph in STRUCTURES.items():
        tables[mode] = causal.fit_cpts(graph, scheme, binned, alpha=settings.alpha)
        interventions[mode] = [
            causal.interventional_distribution(tables[mode], b, scheme, mode)
            for b in scheme[causal.VAR_BATCH].levels
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
        backdoor=causal.backdoor_diagnostic(scheme, binned),
        n_observations=len(observations[causal.VAR_BATCH]),
    )


def analyze_records(records: list[RunRecord], settings: AnalysisSettings) -> AnalysisBundle:
    return analyze_observations(records_to_observations(records), settings)
