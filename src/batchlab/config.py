"""Declarative sweep configuration: parsing, validation, defaults.

Config files are JSON. Every section but ``dataset`` and ``model`` is declared
once, by the dataclass it builds (``SweepConfig``, ``TrainTemplate``,
``training.BatchSchedule``, ``training.Ablation``,
``analysis.AnalysisSettings``): its fields are the section's keys and
defaults, and its constructor checks the values. Unknown keys are rejected by
name at every nesting level, so typos fail loudly instead of silently using a
default. The dataset and model values are checked where a sweep builds them,
in ``sweep.plan_sweep``.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from . import analysis, models, training

DEFAULT_BATCH_SIZES = (16, 32, 64, 128, 256, 512)
DEFAULT_SEED_COUNT = 10


class ConfigError(ValueError):
    """Invalid sweep configuration."""


DATASET_KEYS = {
    "blobs": {"kind", "n", "d", "num_classes", "separation", "label_noise", "seed", "fractions"},
    "sbm": {"kind", "n", "num_classes", "p_in", "p_out", "d", "feature_signal", "seed", "fractions"},
    "files": {"kind", "nodes", "edges", "seed", "fractions"},
}
DATASET_REQUIRED = {
    "blobs": {"n", "d", "num_classes"},
    "sbm": {"n", "num_classes", "p_in", "p_out", "d"},
    "files": {"nodes", "edges"},
}
MODEL_KEYS = {"kind", "hidden", "diffusion_alpha", "diffusion_beta", "diffusion_steps"}


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r} in {where}")


def _require(obj: dict, required: set, where: str) -> None:
    for key in sorted(required):
        if key not in obj:
            raise ConfigError(f"missing required key {key!r} in {where}")


def _section(cls, obj, where: str, **parsers):
    """Build dataclass ``cls`` from the config object ``obj`` at ``where``.

    The dataclass is the one declaration of the section: its fields are the
    allowed keys, the fields without a default the required ones, and its
    constructor checks the values. ``parsers`` convert the given values of
    nested sections first.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    declared = fields(cls)
    _reject_unknown(obj, {f.name for f in declared}, where)
    _require(
        obj,
        {f.name for f in declared if f.default is MISSING and f.default_factory is MISSING},
        where,
    )
    kwargs = {key: parsers[key](value) if key in parsers else value for key, value in obj.items()}
    return checked(where, cls, **kwargs)


def checked(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ``TypeError`` (a mistyped value) or
    ``ValueError`` turned into a ``ConfigError`` that names the section."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where} settings: {exc}") from exc


# A model the train settings are checked against before the sweep's is known.
_PLACEHOLDER_MODEL = models.ModelSpec("logistic", 1, 2)


@dataclass(frozen=True)
class TrainTemplate:
    """The ``train`` section: every run's training settings but its model,
    batch size, seed and ablation."""

    epochs: int = 50
    lr: float = 1e-3
    lr_schedule: str = "fixed"
    optimizer: str = "adam"
    lambda_causal: float = 0.0
    early_stop_patience: int = 10
    batch_schedule: training.BatchSchedule = field(default_factory=training.BatchSchedule)

    def __post_init__(self) -> None:
        # the template's values are checked where every run's are
        self.train_config(_PLACEHOLDER_MODEL, batch_size=1, seed=0)

    def train_config(
        self, model: models.ModelSpec, batch_size: int, seed: int, ablation=training.Ablation()
    ) -> training.TrainConfig:
        """The ``TrainConfig`` of one run; ``TrainConfig`` validates the settings."""
        return training.TrainConfig(
            model=model, batch_size=batch_size, seed=seed, ablation=ablation, **vars(self)
        )


@dataclass(frozen=True)
class SweepConfig:
    """The whole config file; a key that is absent or ``null`` takes the
    default declared here."""

    dataset: dict
    model: dict
    batch_sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES
    seeds: tuple[int, ...] = tuple(range(DEFAULT_SEED_COUNT))
    train: TrainTemplate = field(default_factory=TrainTemplate)
    ablations: tuple[training.Ablation, ...] = ()
    causal: analysis.AnalysisSettings = field(default_factory=analysis.AnalysisSettings)
    out_dir: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError("workers must be a positive integer")


def _parse_dataset(obj) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("dataset must be an object")
    kind = obj.get("kind")
    if kind not in DATASET_KEYS:
        raise ConfigError(f"dataset kind must be one of {sorted(DATASET_KEYS)}, got {kind!r}")
    _reject_unknown(obj, DATASET_KEYS[kind], "dataset")
    _require(obj, DATASET_REQUIRED[kind], "dataset")
    return dict(obj)


def _parse_model(obj) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("model must be an object")
    _reject_unknown(obj, MODEL_KEYS, "model")
    kind = obj.get("kind")
    if kind not in models.MODEL_KINDS:
        raise ConfigError(f"model kind must be one of {models.MODEL_KINDS}, got {kind!r}")
    return dict(obj)


def _parse_batch_sizes(value) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError("batch_sizes must be a nonempty list")
    for b in value:
        if not isinstance(b, int) or b < 1:
            raise ConfigError(f"batch sizes must be positive integers, got {b!r}")
    if len(set(value)) != len(value):
        raise ConfigError("batch sizes must be distinct")
    return tuple(value)


def _parse_seeds(value) -> tuple[int, ...]:
    if isinstance(value, int):
        if value < 1:
            raise ConfigError("seeds count must be >= 1")
        return tuple(range(value))
    if not isinstance(value, list) or not value:
        raise ConfigError("seeds must be a count or a nonempty list")
    for s in value:
        if not isinstance(s, int) or s < 0:
            raise ConfigError(f"seeds must be nonnegative integers, got {s!r}")
    if len(set(value)) != len(value):
        raise ConfigError("seeds must be distinct")
    return tuple(value)


def _parse_train(obj) -> TrainTemplate:
    return _section(
        TrainTemplate,
        obj,
        "train",
        batch_schedule=lambda v: _section(training.BatchSchedule, v, "train.batch_schedule"),
    )


def _parse_ablations(value) -> tuple[training.Ablation, ...]:
    if not isinstance(value, list):
        raise ConfigError("ablations must be a list")
    out = tuple(_section(training.Ablation, obj, "ablations[]") for obj in value)
    if any(abl.kind == "none" for abl in out):
        raise ConfigError("ablation list must not contain 'none' (it always runs)")
    tags = [a.tag for a in out]
    if len(set(tags)) != len(tags):
        raise ConfigError("duplicate ablation kinds")
    return out


def build_sweep_config(obj: dict) -> SweepConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    return _section(
        SweepConfig,
        {key: value for key, value in obj.items() if value is not None},
        "config",
        dataset=_parse_dataset,
        model=_parse_model,
        batch_sizes=_parse_batch_sizes,
        seeds=_parse_seeds,
        train=_parse_train,
        ablations=_parse_ablations,
        causal=lambda v: _section(analysis.AnalysisSettings, v, "causal"),
    )


def parse_config(path) -> SweepConfig:
    """Load, validate, and default-fill a JSON sweep config."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return build_sweep_config(obj)
