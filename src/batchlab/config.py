"""Declarative sweep configuration: parsing, validation, defaults.

Config files are JSON. Unknown keys are rejected by name at every nesting
level, so typos fail loudly instead of silently using a default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
TRAIN_KEYS = {
    "epochs",
    "lr",
    "lr_schedule",
    "optimizer",
    "lambda_causal",
    "early_stop_patience",
    "batch_schedule",
}
BATCH_SCHEDULE_KEYS = {"kind", "start", "factor", "every_epochs"}
ABLATION_KEYS = {"kind", "rho", "l1", "l2"}
CAUSAL_KEYS = {"bins", "alpha", "treat", "control"}
TOP_KEYS = {
    "dataset",
    "model",
    "batch_sizes",
    "seeds",
    "train",
    "ablations",
    "causal",
    "out_dir",
    "workers",
}


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r} in {where}")


def _require(obj: dict, required: set, where: str) -> None:
    for key in sorted(required):
        if key not in obj:
            raise ConfigError(f"missing required key {key!r} in {where}")


@dataclass(frozen=True)
class TrainTemplate:
    epochs: int = 50
    lr: float = 1e-3
    lr_schedule: str = "fixed"
    optimizer: str = "adam"
    lambda_causal: float = 0.0
    early_stop_patience: int = 10
    batch_schedule: training.BatchSchedule = field(default_factory=training.BatchSchedule)

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "lr": self.lr,
            "lr_schedule": self.lr_schedule,
            "optimizer": self.optimizer,
            "lambda_causal": self.lambda_causal,
            "early_stop_patience": self.early_stop_patience,
            "batch_schedule": self.batch_schedule.to_dict(),
        }


@dataclass(frozen=True)
class SweepConfig:
    dataset: dict
    model: dict
    batch_sizes: tuple[int, ...]
    seeds: tuple[int, ...]
    train: TrainTemplate
    ablations: tuple[training.Ablation, ...]
    causal: analysis.AnalysisSettings
    out_dir: str | None = None
    workers: int = 1

    def to_dict(self) -> dict:
        return {
            "dataset": dict(self.dataset),
            "model": dict(self.model),
            "batch_sizes": list(self.batch_sizes),
            "seeds": list(self.seeds),
            "train": self.train.to_dict(),
            "ablations": [a.to_dict() for a in self.ablations],
            "causal": self.causal.to_dict(),
            "out_dir": self.out_dir,
            "workers": self.workers,
        }


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
    if kind in ("mlp1", "graph_diffusion") and "hidden" not in obj:
        raise ConfigError(f"model kind {kind!r} requires 'hidden'")
    return dict(obj)


def _parse_batch_sizes(value) -> tuple[int, ...]:
    if value is None:
        return DEFAULT_BATCH_SIZES
    if not isinstance(value, list) or not value:
        raise ConfigError("batch_sizes must be a nonempty list")
    sizes = []
    for b in value:
        if not isinstance(b, int) or b < 1:
            raise ConfigError(f"batch sizes must be positive integers, got {b!r}")
        sizes.append(b)
    if len(set(sizes)) != len(sizes):
        raise ConfigError("batch sizes must be distinct")
    return tuple(sizes)


def _parse_seeds(value) -> tuple[int, ...]:
    if value is None:
        return tuple(range(DEFAULT_SEED_COUNT))
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
    if obj is None:
        return TrainTemplate()
    if not isinstance(obj, dict):
        raise ConfigError("train must be an object")
    _reject_unknown(obj, TRAIN_KEYS, "train")
    kwargs = dict(obj)
    if "batch_schedule" in kwargs:
        bs = kwargs["batch_schedule"]
        _reject_unknown(bs, BATCH_SCHEDULE_KEYS, "train.batch_schedule")
        kwargs["batch_schedule"] = training.BatchSchedule(**bs)
    try:
        return TrainTemplate(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid train settings: {exc}") from exc


def _parse_ablations(value) -> tuple[training.Ablation, ...]:
    if value is None:
        return ()
    if not isinstance(value, list):
        raise ConfigError("ablations must be a list")
    out = []
    for obj in value:
        if not isinstance(obj, dict):
            raise ConfigError("each ablation must be an object")
        _reject_unknown(obj, ABLATION_KEYS, "ablations[]")
        try:
            abl = training.Ablation(**obj)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid ablation: {exc}") from exc
        if abl.kind == "none":
            raise ConfigError("ablation list must not contain 'none' (it always runs)")
        out.append(abl)
    tags = [a.tag for a in out]
    if len(set(tags)) != len(tags):
        raise ConfigError("duplicate ablation kinds")
    return tuple(out)


def _parse_causal(obj) -> analysis.AnalysisSettings:
    if obj is None:
        return analysis.AnalysisSettings()
    if not isinstance(obj, dict):
        raise ConfigError("causal must be an object")
    _reject_unknown(obj, CAUSAL_KEYS, "causal")
    try:
        return analysis.AnalysisSettings(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid causal settings: {exc}") from exc


def build_sweep_config(obj: dict) -> SweepConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(obj, TOP_KEYS, "config")
    _require(obj, {"dataset", "model"}, "config")
    workers = obj.get("workers", 1)
    if not isinstance(workers, int) or workers < 1:
        raise ConfigError("workers must be a positive integer")
    return SweepConfig(
        dataset=_parse_dataset(obj["dataset"]),
        model=_parse_model(obj["model"]),
        batch_sizes=_parse_batch_sizes(obj.get("batch_sizes")),
        seeds=_parse_seeds(obj.get("seeds")),
        train=_parse_train(obj.get("train")),
        ablations=_parse_ablations(obj.get("ablations")),
        causal=_parse_causal(obj.get("causal")),
        out_dir=obj.get("out_dir"),
        workers=workers,
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


def serialize_config(config: SweepConfig, path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2))
