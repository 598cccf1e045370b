import json

import pytest

from batchlab.cli import main

CONFIG = {
    "dataset": {"kind": "blobs", "n": 120, "d": 4, "num_classes": 2, "seed": 3},
    "model": {"kind": "mlp1", "hidden": 4},
    "batch_sizes": [16, 64],
    "seeds": [0, 1],
    "train": {"epochs": 2},
    "causal": {"treat": 16, "control": 64},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(CONFIG, out_dir=str(tmp_path / "out"))))
    return path


class TestCli:
    def test_validate_config(self, config_path, capsys):
        assert main(["validate", str(config_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_config_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dataset": {"kind": "blobs"}}))
        assert main(["validate", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_sweep_analyze_report_pipeline(self, config_path, tmp_path, capsys):
        assert main(["sweep", str(config_path)]) == 0
        records = tmp_path / "out" / "records.jsonl"
        assert records.exists()
        assert len(records.read_text().splitlines()) == 4

        assert main(["validate", str(records)]) == 0
        assert (
            main(
                [
                    "analyze",
                    str(records),
                    "--treat",
                    "16",
                    "--control",
                    "64",
                    "--out",
                    str(tmp_path / "analysis.json"),
                ]
            )
            == 0
        )
        assert (tmp_path / "analysis.json").exists()
        out = capsys.readouterr().out
        assert "ate" in out

        assert (
            main(
                [
                    "report",
                    str(records),
                    "--out",
                    str(tmp_path / "report"),
                    "--treat",
                    "16",
                    "--control",
                    "64",
                ]
            )
            == 0
        )
        assert (tmp_path / "report" / "report.txt").exists()
        assert (tmp_path / "report" / "accuracy.csv").exists()

    def test_stale_resume_exit_1(self, config_path, tmp_path, capsys):
        assert main(["sweep", str(config_path)]) == 0
        stale = json.loads(config_path.read_text())
        stale["train"]["epochs"] = 1
        config_path.write_text(json.dumps(stale))
        assert main(["sweep", str(config_path)]) == 1
        assert "config" in capsys.readouterr().err

    def test_sweep_missing_config_exit_1(self, tmp_path, capsys):
        assert main(["sweep", str(tmp_path / "absent.json")]) == 1

    def test_no_mode_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", str(tmp_path / "records.jsonl"), "--mode", "hypergraph"])
        assert "--mode" in capsys.readouterr().err

    def test_analyze_empty_records_exit_1(self, tmp_path):
        empty = tmp_path / "records.jsonl"
        empty.write_text("")
        assert main(["analyze", str(empty)]) == 1

    def test_analyze_unknown_level_exit_1(self, config_path, tmp_path):
        main(["sweep", str(config_path)])
        records = tmp_path / "out" / "records.jsonl"
        assert main(["analyze", str(records), "--treat", "512", "--control", "64"]) == 1
