"""Sweep execution: batch sizes x seeds x ablations, with resumable JSONL records.

The record file is append-only JSON Lines, one self-contained record per
line. On resume, a truncated (unparseable) final line is moved to a
``.quarantine`` sidecar (elsewhere ``load_records`` only reads the file);
runs already present (by ``training.run_id``) are skipped, and one whose
recorded config or data differs from the planned run's raises instead of
being reused. A record's data is its ``fingerprint`` (``data.fingerprint``
of the config's dataset section), or for a version 1 record, which has
none, its dataset id. The fingerprint needs no dataset, so a resume plans
the run configs with the dims of a record on the same data when one is
present, and builds the dataset only when it cannot, or when a planned run
is missing or is a version 1 record. A resume with every planned run
present as a version 2 record builds none, and one with nothing pending
starts no process pool.

The unit of work is a cell: the pending runs that differ only in the seed
(equal ``training.cell_key``), which ``training.train_run`` trains as one
stack. Cells execute serially or in a process pool; when the pool has
more workers than there are cells, cells are split by seed until no worker
idles. Every run is a pure function of (dataset, train config), whatever
its stack, so the record set is identical either way. A single writer
appends each cell's records together as the cell completes. The plan lists
each (batch size, seed)'s runs unablated first, then the config's ablations
as listed; the returned list is sorted by (batch size, seed, ablation name).
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
from .config import MODEL_KEY_OF_FIELD, ConfigError, SweepConfig, checked

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


def _model_spec(config: SweepConfig, input_dim: int, num_classes: int) -> models.ModelSpec:
    # the model keys given in the config are passed on as the fields they
    # name, so ModelSpec holds the defaults and the rules
    field_of_key = {key: name for name, key in MODEL_KEY_OF_FIELD.items() if key}
    given = {field_of_key.get(k, k): v for k, v in config.model.items()}
    return models.ModelSpec(input_dim=input_dim, num_classes=num_classes, **given)


def _plan_runs(config: SweepConfig, model_spec: models.ModelSpec) -> list[training.TrainConfig]:
    # each TrainConfig checks its values before the sort reads them; the sort
    # is stable, so a (batch size, seed) keeps its runs' ablation order
    ablations = (training.DEFAULT_ABLATION,) + config.ablations
    built = [
        checked("train", training.TrainConfig, model_spec, b, **config.train, seed=s, ablation=a)
        for b in config.batch_sizes
        for s in config.seeds
        for a in ablations
    ]
    planned = sorted(built, key=lambda tc: (tc.batch_size, tc.seed))
    if not planned:
        raise ConfigError("the sweep plans no runs: batch_sizes and seeds must be nonempty")
    names = set()
    for tc in planned:
        name = training.run_id(tc)
        if name in names:
            raise ConfigError(
                f"run {name} is planned twice: batch sizes, seeds and ablation kinds "
                "must be distinct, and ablation 'none' always runs"
            )
        names.add(name)
    return planned


def plan_sweep(config: SweepConfig) -> tuple[datamod.DatasetBundle, list[training.TrainConfig]]:
    """The dataset and every run's ``TrainConfig``, by batch size, then seed,
    then the unablated run and the config's ablations as listed: all that a
    sweep checks before it trains.

    ``batchlab validate`` runs this too, so it accepts exactly the configs a
    sweep can start. Each run's ``TrainConfig`` is built and checked here,
    once. An invalid or mistyped dataset, model, train value, batch size or
    seed raises ``ConfigError``, and so does a plan that is empty or names a
    run twice (``training.run_id``): the one rule that keeps batch sizes,
    seeds and ablation kinds distinct and ``none``, which always runs, out
    of the ablations. The bundle carries no fingerprint; ``run_sweep`` sets
    the one it computed.
    """
    bundle = checked("dataset", build_dataset, config)
    checked("dataset", training.check_train_split, bundle)
    model_spec = checked("model", _model_spec, config, bundle.features.shape[1], bundle.num_classes)
    checked("model", training.check_model_fits, model_spec, bundle)
    return bundle, _plan_runs(config, model_spec)


def load_records(path, quarantine: bool = False) -> list[training.RunRecord]:
    """Parse a JSONL record file; a malformed line raises ``ValueError``
    naming it, and the file is only read.

    With ``quarantine`` (a sweep's resume), a malformed *final* line is
    assumed to be an interrupted append instead: it is moved to
    ``<path>.quarantine`` and the record file is rewritten without it. A
    malformed line anywhere else means the file was edited or corrupted.
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
        except (TypeError, ValueError) as exc:  # a JSONDecodeError is a ValueError
            if quarantine and i == len(raw_lines) - 1:
                sidecar = path.with_suffix(path.suffix + ".quarantine")
                with sidecar.open("a") as fh:
                    fh.write(line + "\n")
                tmp = path.with_suffix(path.suffix + ".tmp")
                tmp.write_text("".join(l + "\n" for l in raw_lines[:-1]))
                tmp.replace(path)
                break
            raise ValueError(f"{path}:{i + 1}: corrupt record line ({exc})") from exc
    return records


def read_records(path) -> list[training.RunRecord]:
    """``load_records`` for the commands that only read: the file must exist
    and hold at least one record."""
    if not Path(path).exists():
        raise ValueError(f"record file not found: {path}")
    records = load_records(path)
    if not records:
        raise ValueError(f"record file {path} is empty")
    return records


def append_record(path, record: training.RunRecord) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(record.to_dict()) + "\n")


def _check_resumable(path, record, tc, fingerprint: str, dataset_id: str | None) -> None:
    """Raise unless ``record`` was made by the planned run ``tc`` on the data
    ``fingerprint`` identifies: a version 2 record by its config and
    fingerprint, a version 1 record, which has no fingerprint, by its config
    and ``dataset_id`` (the built dataset's; never read for a version 2 record)."""
    want = tc.to_dict()
    keys = want.keys() | record.config.keys()
    fields = sorted(k for k in keys if record.config.get(k) != want.get(k))
    if record.schema_version == 1:
        if record.dataset_id != dataset_id:
            fields.append("dataset_id")
    elif record.fingerprint != fingerprint:
        fields.append("fingerprint")
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
    (batch size, seed, ablation name), independent of execution order. Raises
    ``ValueError`` before training anything when a present record of a
    planned run carries another config, or was made on other data (another
    fingerprint; for a version 1 record, another dataset id). ``workers``,
    when given, replaces the config's and must pass the same rule.

    The fingerprint is computed once, before the record file is read. The
    runs are planned with the model dims of a record that carries it (equal
    fingerprints mean equal data), else on the built dataset (``plan_sweep``),
    which is also built when a planned run is missing or is a version 1
    record, to check its dataset id. One loop checks every present record
    and collects the pending runs; a process pool starts only when some are.
    """
    records_path = Path(records_path) if records_path else default_records_path(config)
    if workers is not None:
        config = dataclasses.replace(config, workers=workers)  # SweepConfig checks it
    workers = config.workers

    fingerprint = checked("dataset", datamod.fingerprint, config.dataset)
    existing = load_records(records_path, quarantine=True)
    done = {r.run_id: r for r in existing}
    same_data = next((r for r in existing if r.fingerprint == fingerprint), None)
    spec = None
    if same_data is not None:
        try:
            dims = same_data.config["model"]
            spec = _model_spec(config, dims["input_dim"], dims["num_classes"])
        except (KeyError, TypeError, ValueError):
            pass  # an edited record or an invalid model section: plan_sweep names it
    planned = [] if spec is None else _plan_runs(config, spec)
    found = [done.get(training.run_id(tc)) for tc in planned]
    bundle = dataset_id = None
    if spec is None or any(record is None or record.schema_version == 1 for record in found):
        bundle, planned = plan_sweep(config)
        bundle.fingerprint, dataset_id = fingerprint, bundle.dataset_id
        found = [done.get(training.run_id(tc)) for tc in planned]

    pending = []
    for tc, record in zip(planned, found):
        if record is None:
            pending.append(tc)
        else:
            _check_resumable(records_path, record, tc, fingerprint, dataset_id)

    new_records: list[training.RunRecord] = []
    parallel = workers > 1 and bool(pending)
    if parallel:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    else:
        pool = nullcontext()
    with pool:
        run_map = pool.map if parallel else map
        # looked up per sweep, so that a wrapped train_run is the one that runs
        units = work_units(pending, workers)
        for records in run_map(training.train_run, itertools.repeat(bundle), units):
            for record in records:
                append_record(records_path, record)
            new_records.extend(records)

    # by ablation name, not in plan order
    return sorted(existing + new_records, key=lambda r: (r.batch_size, r.seed, r.ablation))
