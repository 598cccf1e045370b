"""Sweep execution: batch sizes x seeds x ablations, with resumable JSONL records.

The record file is append-only JSON Lines, one self-contained record per
line. On resume, a truncated (unparseable) final line is moved to a
``.quarantine`` sidecar; runs already present (by ``training.run_id``) are
skipped, and one whose recorded config or dataset id differs from the
planned run's raises instead of being reused.

The unit of work is a cell: the pending runs that differ only in the seed
(equal ``training.cell_key``), which ``training.train_run`` trains as one
stack. Cells execute serially or in a process pool; when the pool has
more workers than there are cells, cells are split by seed until no worker
idles. Every run is a pure function of (dataset, train config), whatever
its stack, so the record set is identical either way. A single writer
appends each cell's records together as the cell completes, and the
returned list is always sorted by (batch size, seed, ablation).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from contextlib import nullcontext
from pathlib import Path

from . import data as datamod
from . import models, training
from .config import MODEL_KEY_OF_FIELD, SweepConfig, checked

ENV_OUT_DIR = "BATCHLAB_OUT"
DEFAULT_OUT_DIR = "batchlab_runs"


def default_records_path(config: SweepConfig, out_dir=None) -> Path:
    """The record file a sweep writes when none is named: ``records.jsonl``
    in ``out_dir`` when given, else in the config's ``out_dir``, else in
    ``$BATCHLAB_OUT``, else in ``batchlab_runs``."""
    if out_dir is None:
        out_dir = config.out_dir or os.environ.get(ENV_OUT_DIR, DEFAULT_OUT_DIR)
    return Path(out_dir) / "records.jsonl"


def build_dataset(config: SweepConfig) -> datamod.DatasetBundle:
    """The sweep's dataset, from the builder its ``kind`` names."""
    spec = dict(config.dataset)
    return datamod.BUILDERS[spec.pop("kind")](**spec)


def build_model_spec(config: SweepConfig, bundle: datamod.DatasetBundle) -> models.ModelSpec:
    """The sweep's ``ModelSpec``, checked to fit the dataset; the model keys
    given in the config are passed on as the fields they name, so
    ``ModelSpec`` holds the defaults and the rules."""
    field_of_key = {key: name for name, key in MODEL_KEY_OF_FIELD.items() if key}
    given = {field_of_key.get(k, k): v for k, v in config.model.items()}
    spec = models.ModelSpec(
        input_dim=bundle.features.shape[1], num_classes=bundle.num_classes, **given
    )
    training.check_model_fits(spec, bundle)
    return spec


def plan_sweep(config: SweepConfig) -> tuple[datamod.DatasetBundle, list[training.TrainConfig]]:
    """The dataset and every run's ``TrainConfig``, ordered by (batch size,
    seed, ablation): all that a sweep checks before it trains.

    ``batchlab validate`` runs this too, so it accepts exactly the configs a
    sweep can start. Each run's ``TrainConfig`` is built and checked here,
    once. An invalid or mistyped dataset, model or train value raises
    ``ConfigError``.
    """
    bundle = checked("dataset", build_dataset, config)
    checked("dataset", training.check_train_split, bundle)
    model_spec = checked("model", build_model_spec, config, bundle)
    ablations = (training.Ablation(),) + config.ablations
    planned = [
        checked("train", training.TrainConfig, model_spec, b, **config.train, seed=s, ablation=a)
        for b in sorted(config.batch_sizes)
        for s in sorted(config.seeds)
        for a in ablations
    ]
    return bundle, planned


def load_records(path) -> list[training.RunRecord]:
    """Parse a JSONL record file, quarantining a truncated final line.

    A malformed line anywhere but the end means the file was edited or
    corrupted, and raises. A malformed *final* line is assumed to be an
    interrupted append: it is moved to ``<path>.quarantine`` and the record
    file is rewritten without it.
    """
    path = Path(path)
    if not path.exists():
        return []
    raw_lines = path.read_text().splitlines()
    records: list[training.RunRecord] = []
    for i, line in enumerate(raw_lines):
        if not line.strip():
            continue
        try:
            records.append(training.RunRecord.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            if i == len(raw_lines) - 1:
                quarantine = path.with_suffix(path.suffix + ".quarantine")
                with quarantine.open("a") as fh:
                    fh.write(line + "\n")
                tmp = path.with_suffix(path.suffix + ".tmp")
                tmp.write_text("".join(l + "\n" for l in raw_lines[:-1]))
                tmp.replace(path)
                break
            raise ValueError(f"{path}:{i + 1}: corrupt record line ({exc})") from exc
    return records


def append_record(path, record: training.RunRecord) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(record.to_dict()) + "\n")


def _check_resumable(path, record, tc, bundle) -> None:
    """Raise unless ``record`` was made by the planned run ``tc`` on ``bundle``."""
    want = tc.to_dict()
    keys = want.keys() | record.config.keys()
    fields = sorted(k for k in keys if record.config.get(k) != want.get(k))
    if record.dataset_id != bundle.dataset_id:
        fields.append("dataset_id")
    if fields:
        raise ValueError(
            f"{path}: record {record.run_id} was made under another config "
            f"(differs in {', '.join(fields)}); sweep into a new record file"
        )


def work_units(
    pending: list[training.TrainConfig], workers: int
) -> list[list[training.TrainConfig]]:
    """The pending runs grouped into cells (configs equal but for the seed),
    in plan order; while there are fewer units than ``workers``, the largest
    unit is split in two by seed."""
    cells: dict[tuple, list[training.TrainConfig]] = {}
    for tc in pending:
        cells.setdefault(training.cell_key(tc), []).append(tc)
    units = list(cells.values())
    while len(units) < workers and any(len(unit) > 1 for unit in units):
        i = max(range(len(units)), key=lambda j: len(units[j]))
        half = (len(units[i]) + 1) // 2
        units[i : i + 1] = [units[i][:half], units[i][half:]]
    return units


def run_sweep(
    config: SweepConfig,
    records_path=None,
    workers: int | None = None,
) -> list[training.RunRecord]:
    """Execute all missing runs of the sweep, appending each cell's records
    as the cell finishes (``work_units``; on a resume only a cell's pending
    seeds train).

    Returns every record (pre-existing plus new) sorted by
    (batch size, seed, ablation), independent of execution order. The sweep
    is planned (``plan_sweep``) before the record file is read. Raises
    ``ValueError`` before training anything when a present record of a
    planned run carries another config or dataset id. ``workers``, when
    given, replaces the config's and must pass the same rule.
    """
    records_path = Path(records_path) if records_path else default_records_path(config)
    if workers is not None:
        config = dataclasses.replace(config, workers=workers)  # SweepConfig checks it
    workers = config.workers

    bundle, planned = plan_sweep(config)
    existing = load_records(records_path)
    done = {r.run_id: r for r in existing}
    pending = []
    for tc in planned:
        record = done.get(training.run_id(tc))
        if record is None:
            pending.append(tc)
        else:
            _check_resumable(records_path, record, tc, bundle)

    new_records: list[training.RunRecord] = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    else:
        pool = nullcontext()
    with pool:
        run_map = pool.map if workers > 1 else map
        # looked up per sweep, so that a wrapped train_run is the one that runs
        units = work_units(pending, workers)
        for records in run_map(training.train_run, itertools.repeat(bundle), units):
            for record in records:
                append_record(records_path, record)
            new_records.extend(records)

    return sorted(existing + new_records, key=lambda r: (r.batch_size, r.seed, r.ablation))
