"""Declarative sweep configuration: parsing, validation, defaults.

Config files are JSON. Every section is declared once, by the code that
builds it: its parameters are the section's keys and defaults (``_check_keys``).
Unknown keys are rejected by name at every nesting level, so typos fail loudly
instead of silently using a default. The top level, ``train.batch_schedule``,
the ablations and ``causal`` are built and checked here. The dataset
(``data.BUILDERS``), model (``models.ModelSpec``) and train
(``training.TrainConfig``, less the fields a sweep sets per run) sections stay
dicts of the given keys; their values are checked where a sweep builds them,
in ``sweep.plan_sweep``.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import analysis, data, models, training

DEFAULT_BATCH_SIZES = (16, 32, 64, 128, 256, 512)
DEFAULT_SEED_COUNT = 10


class ConfigError(ValueError):
    """Invalid sweep configuration."""


# The config key of each field named otherwise; None for the ModelSpec fields
# the dataset fixes and the TrainConfig fields a sweep sets per run.
MODEL_KEY_OF_FIELD = {"hidden_dim": "hidden", "input_dim": None, "num_classes": None}
TRAIN_KEY_OF_FIELD = dict.fromkeys(("model", "batch_size", "seed", "ablation"))


def _check_keys(build, obj, where: str, key_of=None) -> None:
    """Check the keys of the config object ``obj`` at ``where`` against the
    parameters of ``build``, a dataclass or a function and the section's one
    declaration: its parameters are the allowed keys, and those without a
    default the required ones. ``key_of`` renames a parameter, or drops one
    the program supplies (None).
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    params = inspect.signature(build).parameters.values()
    is_required = {(key_of or {}).get(p.name, p.name): p.default is p.empty for p in params}
    is_required.pop(None, None)
    for key in obj:
        if key not in is_required:
            raise ConfigError(f"unknown config key {key!r} in {where}")
    for key in sorted(key for key, required in is_required.items() if required):
        if key not in obj:
            raise ConfigError(f"missing required key {key!r} in {where}")


def _given(build, obj, where: str, key_of=None, **parsers) -> dict:
    """The config object ``obj`` at ``where``, its keys checked against
    ``build`` (``_check_keys``) and its nested sections parsed by ``parsers``."""
    _check_keys(build, obj, where, key_of)
    return {key: parsers[key](value) if key in parsers else value for key, value in obj.items()}


def _section(cls, obj, where: str, **parsers):
    """Build dataclass ``cls``, whose constructor checks the values, from the
    config object ``obj`` at ``where`` (``_given``)."""
    return checked(where, cls, **_given(cls, obj, where, **parsers))


def checked(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ``TypeError`` (a mistyped value) or
    ``ValueError`` turned into a ``ConfigError`` that names the section."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where} settings: {exc}") from exc


@dataclass(frozen=True)
class SweepConfig:
    """The whole config file; a key that is absent or ``null`` takes the
    default declared here."""

    dataset: dict
    model: dict
    batch_sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES
    seeds: tuple[int, ...] = tuple(range(DEFAULT_SEED_COUNT))
    train: dict = field(default_factory=dict)
    ablations: tuple[training.Ablation, ...] = ()
    causal: analysis.AnalysisSettings = field(default_factory=analysis.AnalysisSettings)
    out_dir: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if not models.is_integer(self.workers) or self.workers < 1:
            raise ValueError("workers must be a positive integer")


def _parse_dataset(obj) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("dataset must be an object")
    kind = obj.get("kind")
    if kind not in data.BUILDERS:
        raise ConfigError(f"dataset kind must be one of {sorted(data.BUILDERS)}, got {kind!r}")
    _check_keys(data.BUILDERS[kind], {k: v for k, v in obj.items() if k != "kind"}, "dataset")
    return dict(obj)


def _parse_batch_sizes(value) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError("batch_sizes must be a nonempty list")
    for b in value:
        if not models.is_integer(b) or b < 1:
            raise ConfigError(f"batch sizes must be positive integers, got {b!r}")
    if len(set(value)) != len(value):
        raise ConfigError("batch sizes must be distinct")
    return tuple(value)


def _parse_seeds(value) -> tuple[int, ...]:
    if models.is_integer(value):
        if value < 1:
            raise ConfigError("seeds count must be >= 1")
        return tuple(range(value))
    if not isinstance(value, list) or not value:
        raise ConfigError("seeds must be a count or a nonempty list")
    for s in value:
        if not models.is_integer(s) or s < 0:
            raise ConfigError(f"seeds must be nonnegative integers, got {s!r}")
    if len(set(value)) != len(value):
        raise ConfigError("seeds must be distinct")
    return tuple(value)


def _parse_ablations(value) -> tuple[training.Ablation, ...]:
    if not isinstance(value, list):
        raise ConfigError("ablations must be a list")
    out = tuple(_section(training.Ablation, obj, "ablations[]") for obj in value)
    if any(abl.kind == "none" for abl in out):
        raise ConfigError("ablation list must not contain 'none' (it always runs)")
    kinds = [a.kind for a in out]
    if len(set(kinds)) != len(kinds):
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
        model=lambda v: _given(models.ModelSpec, v, "model", MODEL_KEY_OF_FIELD),
        batch_sizes=_parse_batch_sizes,
        seeds=_parse_seeds,
        train=lambda v: _given(
            training.TrainConfig,
            v,
            "train",
            TRAIN_KEY_OF_FIELD,
            batch_schedule=lambda w: _section(training.BatchSchedule, w, "train.batch_schedule"),
        ),
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
