import concurrent.futures
import json

import numpy as np
import pytest
from helpers import DATA_CHANGES, as_version_1, changed_dataset

from batchlab import measures, sweep, training
from batchlab.config import ConfigError, build_sweep_config

BASE = {
    "dataset": {"kind": "blobs", "n": 120, "d": 4, "num_classes": 2, "seed": 3},
    "model": {"kind": "mlp1", "hidden": 4},
    "batch_sizes": [16, 64],
    "seeds": [0, 1],
    "train": {"epochs": 2, "early_stop_patience": 10},
}


def make_config(tmp_path, **overrides):
    obj = dict(BASE, out_dir=str(tmp_path / "out"), **overrides)
    return build_sweep_config(obj)


class TestRunSweep:
    def test_counting(self, tmp_path):
        cfg = make_config(tmp_path)
        records = sweep.run_sweep(cfg)
        assert len(records) == 4  # 2 batch sizes x 2 seeds, no ablations
        keys = [(r.batch_size, r.seed, r.ablation) for r in records]
        assert keys == sorted(keys)

    def test_plan_and_returned_orders(self, tmp_path):
        # the plan lists each (B, seed)'s runs unablated first, then the
        # config's ablations as listed; run_sweep sorts by ablation name
        cfg = make_config(tmp_path, ablations=[{"kind": "sam"}, {"kind": "inject_noise"}])
        cells = [(b, s) for b in (16, 64) for s in (0, 1)]
        _, planned = sweep.plan_sweep(cfg)
        assert [(tc.batch_size, tc.seed, tc.ablation.kind) for tc in planned] == [
            (b, s, a) for b, s in cells for a in ("none", "sam", "inject_noise")
        ]
        records = sweep.run_sweep(cfg)
        assert [(r.batch_size, r.seed, r.ablation) for r in records] == [
            (b, s, a) for b, s in cells for a in ("inject_noise", "none", "sam")
        ]

    def test_plan_order_does_not_depend_on_the_axes_order(self, tmp_path):
        ablations = [{"kind": "sam"}, {"kind": "inject_noise"}]
        _, planned = sweep.plan_sweep(make_config(tmp_path, ablations=ablations))
        shuffled = make_config(tmp_path, batch_sizes=[64, 16], seeds=[1, 0], ablations=ablations)
        assert sweep.plan_sweep(shuffled)[1] == planned

    def test_resume_checks_the_distinct_runs_rule(self, tmp_path):
        # a finished resume plans from a record's dims without building the
        # dataset, and still rejects a run planned twice
        sweep.run_sweep(make_config(tmp_path))
        twice = make_config(tmp_path, batch_sizes=[16, 64, 16])
        with pytest.raises(ConfigError, match="run b16-s0-none is planned twice"):
            sweep.run_sweep(twice)

    def test_ablation_multiplies_grid(self, tmp_path):
        cfg = make_config(tmp_path, ablations=[{"kind": "no_noise_averaging"}])
        records = sweep.run_sweep(cfg)
        assert len(records) == 8

    def test_resume_is_idempotent(self, tmp_path):
        cfg = make_config(tmp_path)
        first = sweep.run_sweep(cfg)
        path = tmp_path / "out" / "records.jsonl"
        before = path.read_text()
        second = sweep.run_sweep(cfg)
        assert path.read_text() == before  # zero new runs appended
        assert [r.canonical_dict() for r in first] == [r.canonical_dict() for r in second]

    def test_partial_resume_fills_missing(self, tmp_path):
        cfg_small = make_config(tmp_path, batch_sizes=[16])
        sweep.run_sweep(cfg_small)
        cfg_full = make_config(tmp_path)
        records = sweep.run_sweep(cfg_full)
        assert len(records) == 4
        # the 16-batch records were not recomputed: file has exactly 4 lines
        path = tmp_path / "out" / "records.jsonl"
        assert len(path.read_text().splitlines()) == 4

    def test_stale_resume_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        one_run = dict(batch_sizes=[16], seeds=[0])
        sweep.run_sweep(make_config(tmp_path, **one_run), records_path=path, workers=1)
        before = path.read_bytes()
        stale = make_config(tmp_path, train=dict(BASE["train"], epochs=1), **one_run)
        with pytest.raises(ValueError, match=r"b16-s0-none.*config") as exc:
            sweep.run_sweep(stale, records_path=path, workers=1)
        assert "(differs in epochs)" in str(exc.value)
        assert path.read_bytes() == before  # nothing trained or appended

    def test_resume_on_another_dataset_rejected(self, tmp_path):
        cfg = make_config(tmp_path, batch_sizes=[16], seeds=[0])
        sweep.run_sweep(cfg)
        other = make_config(
            tmp_path, dataset=dict(BASE["dataset"], seed=4), batch_sizes=[16], seeds=[0]
        )
        with pytest.raises(ValueError, match=r"b16-s0-none.*config.*fingerprint"):
            sweep.run_sweep(other)

    def test_parallel_equals_serial(self, tmp_path):
        cfg = make_config(tmp_path)
        serial = sweep.run_sweep(cfg, records_path=tmp_path / "serial.jsonl", workers=1)
        parallel = sweep.run_sweep(cfg, records_path=tmp_path / "parallel.jsonl", workers=4)
        a = [json.dumps(r.canonical_dict(), sort_keys=True) for r in serial]
        b = [json.dumps(r.canonical_dict(), sort_keys=True) for r in parallel]
        assert set(a) == set(b) and len(a) == len(b)

    def test_final_sharpness_matches_dense_eigensolver(self, tmp_path, monkeypatch):
        # every final sharpness against dense eigvalsh of the exact Hessian,
        # assembled from the same run's HVP oracle on the basis vectors
        calls = []
        solve = measures.sharpness_lambda_max

        def recording(hvp_oracle, dim):
            result = solve(hvp_oracle, dim)
            calls.append((hvp_oracle, dim, result[0]))
            return result

        monkeypatch.setattr(measures, "sharpness_lambda_max", recording)
        cfg = make_config(
            tmp_path, ablations=[{"kind": "no_noise_averaging"}], train={"epochs": 6}
        )
        records = sweep.run_sweep(cfg, workers=1)
        assert len(calls) == len(records) == 8
        # at 6 epochs some Hessians have a negative eigenvalue larger in
        # magnitude than the largest one, which must not make a run degenerate
        assert all(r.final for r in records)
        assert {r.final.sharpness for r in records} <= {c[2] for c in calls}
        for hvp_oracle, dim, value in calls:
            dense = np.stack([hvp_oracle(e) for e in np.eye(dim)], axis=1)
            eigs = np.linalg.eigvalsh((dense + dense.T) / 2.0)
            assert value == pytest.approx(eigs[-1], rel=1e-8)

    def test_record_renamed_to_another_run_is_corrupt(self, tmp_path):
        # a resume finds a run by its run_id: a renamed record is not reused
        # under its new name while its own run trains again
        path = tmp_path / "records.jsonl"
        cfg = make_config(tmp_path, batch_sizes=[16])
        sweep.run_sweep(cfg, records_path=path, workers=1)
        lines = path.read_text().splitlines()
        first, second = (json.loads(line) for line in lines)
        assert (first["run_id"], second["run_id"]) == ("b16-s0-none", "b16-s1-none")
        path.write_text("\n".join([json.dumps(dict(first, run_id="renamed")), lines[1]]) + "\n")
        before = path.read_bytes()
        with pytest.raises(ValueError, match=r"records\.jsonl:1: corrupt record line \(run_id "
                           "'renamed' does not name the run b16-s0-none"):
            sweep.run_sweep(cfg, records_path=path, workers=1)
        assert path.read_bytes() == before
        # as the last line it is quarantined, and its run trains once
        path.write_text("\n".join([lines[0], json.dumps(dict(second, run_id="renamed"))]) + "\n")
        records = sweep.run_sweep(cfg, records_path=path, workers=1)
        assert [r.run_id for r in records] == ["b16-s0-none", "b16-s1-none"]
        assert "renamed" in path.with_suffix(".jsonl.quarantine").read_text()

    def test_truncated_final_line_quarantined(self, tmp_path):
        cfg = make_config(tmp_path)
        sweep.run_sweep(cfg)
        path = tmp_path / "out" / "records.jsonl"
        with path.open("a") as fh:
            fh.write('{"schema_version": 1, "run_id": "b64-s1-none", "trunc')
        # a plain read names the line and leaves the file as it is
        before = path.read_bytes()
        with pytest.raises(ValueError, match=r"records\.jsonl:5: corrupt record line"):
            sweep.load_records(path)
        assert path.read_bytes() == before
        records = sweep.load_records(path, quarantine=True)
        assert len(records) == 4
        quarantine = path.with_suffix(".jsonl.quarantine")
        assert quarantine.exists() and "trunc" in quarantine.read_text()
        # the file itself was healed: reloading is clean and appendable
        assert len(sweep.load_records(path)) == 4
        # a last line that is JSON but not a record object is quarantined too
        lines = path.read_text().splitlines()
        final_5 = json.dumps(dict(json.loads(lines[0]), final=5))
        for bad in ("[1, 2]", "42", final_5):
            path.write_text("\n".join(lines + [bad]) + "\n")
            assert len(sweep.load_records(path, quarantine=True)) == 4
            assert path.read_text().splitlines() == lines
            assert quarantine.read_text().splitlines()[-1] == bad
        # and a sweep's resume quarantines it
        path.write_text("\n".join(lines + ["[1, 2]"]) + "\n")
        assert len(sweep.run_sweep(cfg)) == 4
        assert path.read_text().splitlines() == lines

    def test_corrupt_middle_line_raises(self, tmp_path):
        cfg = make_config(tmp_path)
        sweep.run_sweep(cfg)
        path = tmp_path / "out" / "records.jsonl"
        lines = path.read_text().splitlines()
        lines.insert(1, "{broken")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt record line"):
            sweep.load_records(path)
        # a line that lacks a field is corrupt too, though RunRecord defaults it
        record = json.loads(lines[2])
        del record["status"]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"corrupt record line \(a record has the fields"):
            sweep.load_records(path)
        # so is JSON that is not a record object, or whose final is not an object
        final_5 = json.dumps(dict(json.loads(lines[2]), final=5))
        for bad in ("[1, 2]", "42", final_5):
            lines[1] = bad
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match="corrupt record line"):
                sweep.load_records(path)

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sweep.ENV_OUT_DIR, str(tmp_path / "envout"))
        cfg = build_sweep_config(dict(BASE))  # no out_dir in config
        assert sweep.default_records_path(cfg) == tmp_path / "envout" / "records.jsonl"

    def test_missing_records_file_loads_empty(self, tmp_path):
        assert sweep.load_records(tmp_path / "absent.jsonl") == []


def counting_builds(monkeypatch) -> list:
    """Wrap ``sweep.build_dataset`` to log each config it builds."""
    built, build = [], sweep.build_dataset

    def counting(config):
        built.append(config)
        return build(config)

    monkeypatch.setattr(sweep, "build_dataset", counting)
    return built


def refuse(what: str):
    def refused(*args, **kwargs):
        raise AssertionError(f"{what} was called")

    return refused


class TestFingerprintedResume:
    @pytest.mark.parametrize("change", DATA_CHANGES)
    def test_resume_on_changed_data_rejected(self, tmp_path, monkeypatch, change):
        # a change the dataset id leaves out: a generator argument, the split
        # seed of CSV data, or one byte of its nodes.csv
        before, edit = changed_dataset(change, tmp_path)
        path = tmp_path / "records.jsonl"
        one_run = dict(dataset=before, batch_sizes=[16], seeds=[0])
        sweep.run_sweep(make_config(tmp_path, **one_run), records_path=path)
        recorded = path.read_bytes()
        changed = make_config(tmp_path, **dict(one_run, dataset=edit()))
        monkeypatch.setattr(training, "train_run", refuse("train_run"))
        with pytest.raises(ValueError, match=r"b16-s0-none.*\(differs in fingerprint\)"):
            sweep.run_sweep(changed, records_path=path)
        assert path.read_bytes() == recorded

    def test_finished_resume_builds_nothing(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path)
        path = tmp_path / "out" / "records.jsonl"
        first = sweep.run_sweep(cfg)
        recorded = path.read_bytes()
        monkeypatch.setattr(sweep, "build_dataset", refuse("build_dataset"))
        again = sweep.run_sweep(cfg)
        assert [r.to_dict() for r in again] == [r.to_dict() for r in first]
        assert path.read_bytes() == recorded

    def test_finished_resume_starts_no_pool(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path)
        first = sweep.run_sweep(cfg, workers=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse("the process pool"))
        monkeypatch.setattr(sweep, "build_dataset", refuse("build_dataset"))
        assert len(sweep.run_sweep(cfg, workers=2)) == len(first) == 4

    def test_partial_resume_builds_once(self, tmp_path, monkeypatch):
        sweep.run_sweep(make_config(tmp_path, batch_sizes=[16]))
        built = counting_builds(monkeypatch)
        assert len(sweep.run_sweep(make_config(tmp_path))) == 4
        assert len(built) == 1

    def test_stale_train_config_rejected_without_building(self, tmp_path, monkeypatch):
        sweep.run_sweep(make_config(tmp_path))
        monkeypatch.setattr(sweep, "build_dataset", refuse("build_dataset"))
        stale = make_config(tmp_path, train=dict(BASE["train"], epochs=1))
        with pytest.raises(ValueError, match=r"b16-s0-none.*\(differs in epochs\)"):
            sweep.run_sweep(stale)

    def test_edited_record_dims_rejected_by_the_built_check(self, tmp_path):
        # the build-free path plans with a record's dims; a record whose dims
        # are gone is rejected by the built check, naming the model
        cfg = make_config(tmp_path, batch_sizes=[16], seeds=[0])
        path = tmp_path / "out" / "records.jsonl"
        sweep.run_sweep(cfg)
        record = json.loads(path.read_text())
        del record["config"]["model"]["input_dim"]
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=r"b16-s0-none.*\(differs in model\)"):
            sweep.run_sweep(cfg)

    def test_version_1_records_resume_by_dataset_id(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path)
        path = tmp_path / "out" / "records.jsonl"
        first = sweep.run_sweep(cfg)
        as_version_1(path)
        recorded = path.read_bytes()
        built = counting_builds(monkeypatch)
        again = sweep.run_sweep(cfg)
        assert len(built) == 1  # a version 1 record is checked against the built data
        assert path.read_bytes() == recorded
        assert [(r.schema_version, r.fingerprint) for r in again] == [(1, None)] * 4
        versioned = ("schema_version", "fingerprint")
        content = [
            [{k: v for k, v in r.canonical_dict().items() if k not in versioned} for r in recs]
            for recs in (first, again)
        ]
        assert content[0] == content[1]
        other = make_config(tmp_path, dataset=dict(BASE["dataset"], seed=4))
        with pytest.raises(ValueError, match=r"b16-s0-none.*\(differs in dataset_id\)"):
            sweep.run_sweep(other)
        assert path.read_bytes() == recorded

    def test_finished_version_1_resume_builds_once_and_starts_no_pool(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path)
        path = tmp_path / "out" / "records.jsonl"
        sweep.run_sweep(cfg, workers=1)
        as_version_1(path)
        recorded = path.read_bytes()
        built = counting_builds(monkeypatch)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse("the process pool"))
        assert len(sweep.run_sweep(cfg, workers=2)) == 4
        assert len(built) == 1
        assert path.read_bytes() == recorded


class TestBuildPieces:
    def test_build_dataset_kinds(self, tmp_path):
        bundle, planned = sweep.plan_sweep(make_config(tmp_path))
        assert bundle.n == 120 and len(planned) == 4
        sbm_cfg = build_sweep_config(
            {
                "dataset": {"kind": "sbm", "n": 60, "num_classes": 2, "p_in": 0.2, "p_out": 0.05, "d": 3},
                "model": {"kind": "graph_diffusion", "hidden": 4, "diffusion_alpha": 0.3},
            }
        )
        sbm_bundle, planned = sweep.plan_sweep(sbm_cfg)
        assert sbm_bundle.edges is not None
        spec = planned[0].model
        assert spec.kind == "graph_diffusion" and spec.input_dim == 3

    def test_graph_model_needs_graph_dataset(self, tmp_path):
        cfg = build_sweep_config(
            {
                "dataset": {"kind": "blobs", "n": 50, "d": 4, "num_classes": 2},
                "model": {"kind": "graph_diffusion", "hidden": 4},
            }
        )
        with pytest.raises(ConfigError, match="invalid model settings: graph_diffusion model"):
            sweep.plan_sweep(cfg)
