import json

import numpy as np
import pytest

from batchlab import measures, sweep
from batchlab.config import build_sweep_config

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
        with pytest.raises(ValueError, match=r"b16-s0-none.*config.*dataset_id"):
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

    def test_truncated_final_line_quarantined(self, tmp_path):
        cfg = make_config(tmp_path)
        sweep.run_sweep(cfg)
        path = tmp_path / "out" / "records.jsonl"
        with path.open("a") as fh:
            fh.write('{"schema_version": 1, "run_id": "b64-s1-none", "trunc')
        records = sweep.load_records(path)
        assert len(records) == 4
        quarantine = path.with_suffix(".jsonl.quarantine")
        assert quarantine.exists() and "trunc" in quarantine.read_text()
        # the file itself was healed: reloading is clean and appendable
        assert len(sweep.load_records(path)) == 4

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

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sweep.ENV_OUT_DIR, str(tmp_path / "envout"))
        cfg = build_sweep_config(dict(BASE))  # no out_dir in config
        assert sweep.default_records_path(cfg) == tmp_path / "envout" / "records.jsonl"

    def test_missing_records_file_loads_empty(self, tmp_path):
        assert sweep.load_records(tmp_path / "absent.jsonl") == []


class TestBuildPieces:
    def test_build_dataset_kinds(self, tmp_path):
        cfg = make_config(tmp_path)
        bundle = sweep.build_dataset(cfg)
        assert bundle.n == 120
        sbm_cfg = build_sweep_config(
            {
                "dataset": {"kind": "sbm", "n": 60, "num_classes": 2, "p_in": 0.2, "p_out": 0.05, "d": 3},
                "model": {"kind": "graph_diffusion", "hidden": 4, "diffusion_alpha": 0.3},
            }
        )
        sbm_bundle = sweep.build_dataset(sbm_cfg)
        assert sbm_bundle.adjacency is not None
        spec = sweep.build_model_spec(sbm_cfg, sbm_bundle)
        assert spec.kind == "graph_diffusion" and spec.input_dim == 3

    def test_graph_model_needs_graph_dataset(self, tmp_path):
        cfg = build_sweep_config(
            {
                "dataset": {"kind": "blobs", "n": 50, "d": 4, "num_classes": 2},
                "model": {"kind": "graph_diffusion", "hidden": 4},
            }
        )
        bundle = sweep.build_dataset(cfg)
        with pytest.raises(Exception, match="graph"):
            sweep.build_model_spec(cfg, bundle)
