"""Tests of the benchmark's own checks, generator and tracing.

    python3 -m pytest -q bench

Each correctness check must pass on the program's real output and reject a
deliberately corrupted copy of it; the traced run must survive a public
function that the program no longer has.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

import run  # first: puts the program's src/ on the import path
import checks
import records as generator
from batchlab import config, models, report, sweep, training
from tracing import Tracer


def tiny_config(seed: int) -> dict:
    return {
        "dataset": {"kind": "blobs", "n": 120, "d": 4, "num_classes": 3, "seed": seed},
        "model": {"kind": "logistic"},  # convex: sharpness is always positive
        "batch_sizes": [8, 16],
        "seeds": [2 * seed, 2 * seed + 1, 2 * seed + 2],
        "train": {"epochs": 2, "lr": 0.01, "early_stop_patience": 3},
        "ablations": [{"kind": "sam", "rho": 0.05}],
        "causal": {"bins": 3, "alpha": 1.0, "treat": 8, "control": 16},
    }


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "records.jsonl"
    cfg_json = tiny_config(1)
    sweep.run_sweep(config.build_sweep_config(cfg_json), records_path=path, workers=1)
    return cfg_json, path


@pytest.fixture(scope="module")
def large_report(tmp_path_factory):
    base = tmp_path_factory.mktemp("large")
    path = base / "records.jsonl"
    generator.write_records(path, seed=5, seeds=40)
    cfg = config.build_sweep_config(generator.sweep_config(5, 40))
    report.emit_report(path, cfg.causal, base / "report")
    return base, [json.loads(line) for line in path.read_text().splitlines()], cfg.causal.to_dict()


def _lines(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


# -- sweep checks -----------------------------------------------------------------


def test_sweep_check_accepts_real_output(tiny_sweep):
    cfg_json, path = tiny_sweep
    checks.check_sweep_records(cfg_json, _lines(path), run.n_train(cfg_json))


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda recs: recs[1:], id="dropped"),
        pytest.param(lambda recs: recs + [recs[0]], id="duplicated"),
        pytest.param(lambda recs: [_edit(recs[0], "final", "complexity", 1e-9)] + recs[1:], id="complexity"),
        pytest.param(lambda recs: [_edit(recs[0], "final", "test_accuracy", 2.0)] + recs[1:], id="accuracy"),
        pytest.param(lambda recs: [dict(recs[0], final=None, status="degenerate")] + recs[1:], id="degenerate"),
        pytest.param(lambda recs: [dict(recs[0], lr=[0.02] * len(recs[0]["lr"]))] + recs[1:], id="lr"),
        pytest.param(lambda recs: [dict(recs[0], effective_batch=[3] * 2)] + recs[1:], id="effective-batch"),
    ],
)
def test_sweep_check_rejects_corruption(tiny_sweep, corrupt):
    cfg_json, path = tiny_sweep
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep_records(cfg_json, corrupt(_lines(path)), run.n_train(cfg_json))


def _edit(record: dict, part: str, key: str, value) -> dict:
    out = json.loads(json.dumps(record))
    if key == "complexity":
        value = out[part][key] * (1 + value)
    out[part][key] = value
    return out


def test_resume_check(tiny_sweep):
    _, path = tiny_sweep
    data = path.read_bytes()
    recs = sweep.load_records(path)
    checks.check_resume(data, data, recs, sweep.load_records(path))
    with pytest.raises(checks.CheckFailed):
        checks.check_resume(data, data + b"\n", recs, recs)
    with pytest.raises(checks.CheckFailed):
        checks.check_resume(data, data, recs, recs[1:])
    changed = sweep.load_records(path)
    changed[0].final = None
    with pytest.raises(checks.CheckFailed):
        checks.check_resume(data, data, recs, changed)


def test_sharpness_check():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 6))
    a = (m + m.T) / 2
    eigs = np.linalg.eigvalsh(a)
    top = float(eigs[np.argmax(np.abs(eigs))])
    checks.check_sharpness(lambda v: a @ v, 6, top)
    with pytest.raises(checks.CheckFailed):
        checks.check_sharpness(lambda v: a @ v, 6, top * 1.01)


# -- report checks -----------------------------------------------------------------


def test_report_check_accepts_real_output(large_report):
    base, recs, settings = large_report
    checks.check_report(base / "report", recs, settings, positive_ate=True)


def _corrupt_json(out, edit) -> None:
    bundle = json.loads((out / "analysis.json").read_text())
    edit(bundle)
    (out / "analysis.json").write_text(json.dumps(bundle))


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda b: b["ate"].update(hypergraph=b["ate"]["hypergraph"] + 1e-6), id="ate"),
        pytest.param(lambda b: b["ate"].update(hypergraph=-b["ate"]["hypergraph"]), id="ate-sign"),
        pytest.param(lambda b: b["tables"]["hypergraph"][0]["probs"].__setitem__(0, 0.5), id="table"),
        pytest.param(lambda b: b["scheme"]["sharpness"]["cuts"].__setitem__(0, 0.1), id="cuts"),
        pytest.param(
            lambda b: b["interventions"]["algorithm1"][0]["distribution"].reverse(), id="intervention"
        ),
    ],
)
def test_report_check_rejects_corrupted_bundle(large_report, tmp_path, edit):
    base, recs, settings = large_report
    out = tmp_path / "report"
    shutil.copytree(base / "report", out)
    _corrupt_json(out, edit)
    with pytest.raises(checks.CheckFailed):
        checks.check_report(out, recs, settings, positive_ate=True)


def test_report_check_rejects_dropped_record(large_report):
    base, recs, settings = large_report
    usable = [i for i, r in enumerate(recs) if r["final"] is not None and r["batch_size"] == 16]
    with pytest.raises(checks.CheckFailed):
        checks.check_report(base / "report", recs[: usable[0]] + recs[usable[0] + 1 :], settings)


def test_report_check_rejects_wrong_welch_p(large_report, tmp_path):
    base, recs, settings = large_report
    out = tmp_path / "report"
    shutil.copytree(base / "report", out)
    text = (out / "significance.csv").read_text().splitlines()
    header, row = text[0].split(","), text[1].split(",")
    p = header.index("welch_p")
    row[p] = repr(float(row[p]) * 1.001)
    (out / "significance.csv").write_text("\n".join([text[0], ",".join(row)]) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_report(out, recs, settings)


# -- generator ---------------------------------------------------------------------------


def test_generator_is_seeded_and_readable(tmp_path):
    a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    generator.write_records(a, seed=3, seeds=10)
    generator.write_records(b, seed=3, seeds=10)
    generator.write_records(c, seed=4, seeds=10)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    recs = sweep.load_records(a)
    assert len(recs) == 10 * len(generator.BATCH_SIZES)
    assert all(r.schema_version == 1 for r in recs)


def test_generated_file_is_a_finished_sweep(tmp_path):
    path = tmp_path / "r.jsonl"
    generator.write_records(path, seed=3, seeds=4)
    before = path.read_bytes()
    cfg = config.build_sweep_config(generator.sweep_config(3, 4))
    assert len(sweep.run_sweep(cfg, records_path=path, workers=1)) == 4 * len(generator.BATCH_SIZES)
    assert path.read_bytes() == before


# -- stale-resume probe ---------------------------------------------------------------


def test_stale_probe_outcomes(tmp_path, monkeypatch):
    base, stale = run.probe_configs("blobs-small-batch")
    base["dataset"]["n"] = stale["dataset"]["n"] = 200
    fixture = tmp_path / "fixture.jsonl"
    sweep.run_sweep(config.build_sweep_config(base), records_path=fixture, workers=1)
    stale_cfg = config.build_sweep_config(stale)
    # The shipped sweep resumes onto records of another config.
    assert run.stale_probe(fixture, stale_cfg, tmp_path) is False

    def reject(*args, **kwargs):
        raise config.ConfigError("record file holds runs with epochs 2, config asks for 1")

    monkeypatch.setattr(sweep, "run_sweep", reject)
    assert run.stale_probe(fixture, stale_cfg, tmp_path) is True


# -- tracing ------------------------------------------------------------------------------


def test_tracer_self_time_and_restore():
    tracer = Tracer(targets=(("models.param_count", ("models.param_count",)),))
    original = models.param_count
    spec = models.ModelSpec("logistic", 2, 2)
    with tracer.installed():
        with tracer.span("outer"):
            models.param_count(spec)
            models.param_count(spec)
    assert models.param_count is original
    stats = tracer.summarize()
    assert stats["models.param_count"].calls == 2
    inner = stats["models.param_count"].s
    assert stats["outer"].self_s == pytest.approx(stats["outer"].s - inner)


def _tiny_workload(monkeypatch):
    monkeypatch.setitem(run.SWEEPS, "blobs-small-batch", tiny_config)
    monkeypatch.setattr(run, "setup_start", lambda ctx: 1.0)
    monkeypatch.setattr(run, "measure_imports", lambda: (1.0, 0.5))


def test_traced_run_survives_missing_function(monkeypatch, tmp_path, capsys):
    _tiny_workload(monkeypatch)
    monkeypatch.delattr(training, "diffusion_update")
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "blobs-small-batch", "--seed", "1", "--seconds", "0",
                     "--trace", "1"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert "absent: training.diffusion_update" in out
    assert result["correct"] is True
    assert result["metrics"]["training.diffusion_update.self_s"]["value"] == 0.0
    assert result["metrics"]["models.mean_gradient.calls"]["value"] > 0
    names = {m["name"] for m in run.load_spec()["per_layer"]}
    assert set(result["metrics"]) == names


def test_untraced_run_prints_every_end_to_end_metric(monkeypatch, tmp_path, capsys):
    _tiny_workload(monkeypatch)
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "blobs-small-batch", "--seed", "2", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    rounds = result["attempted"] // (len(checks.planned_runs(tiny_config(2))) + 2 * 5 + 1)
    assert result["failed"] == rounds  # the stale-resume probe, once per round
    names = {m["name"] for m in run.load_spec()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_records_large_run(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(generator, "RECORDS_SEEDS", 40)
    monkeypatch.setattr(run, "setup_start", lambda ctx: 1.0)
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "records-large", "--seed", "5", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    per_round = len(generator.BATCH_SIZES) * run.RECORDS_SWEEP_SEEDS + 2 * 2
    assert result["attempted"] % per_round == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())
