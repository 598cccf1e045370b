import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import DATA_CHANGES, changed_dataset

import batchlab
from batchlab import data
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


def loaded(*argvs) -> set[str]:
    """scipy and process-pool modules loaded in a fresh interpreter by
    importing the CLI and running ``main`` on each argv in turn."""
    src = str(Path(batchlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import json, sys\nfrom batchlab.cli import main\n"
        f"for argv in {[list(map(str, a)) for a in argvs]!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " or m == 'concurrent.futures.process')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


class TestCli:
    def test_validate_config(self, config_path, capsys):
        assert main(["validate", str(config_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_config_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dataset": {"kind": "blobs"}}))
        assert main(["validate", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("train", {"lr": -1}, "train"),
            ("train", {"optimizer": "rmsprop"}, "train"),
            ("train", {"lr_schedule": "cosine"}, "train"),
            ("train", {"early_stop_patience": 0}, "train"),
            ("train", {"epochs": "ten"}, "train"),
            ("train", {"batch_schedule": 5}, "train"),
            ("train", {"batch_schedule": {"factor": "x"}}, "train"),
            ("train", {"batch_schedule": {"kind": "progressive", "start": -4}}, "train"),
            ("train", {"epochs": 2.5}, "epochs must be an integer"),
            ("train", {"epochs": True}, "epochs must be an integer"),
            ("batch_sizes", [True], "invalid train settings: batch_size must be an integer, got True"),
            ("seeds", [True], "invalid train settings: seed must be an integer, got True"),
            ("seeds", True, "seeds must be a count or a list"),
            ("seeds", [0, 1, 0], "run b16-s0-none is planned twice"),
            ("ablations", [{"kind": "sam"}, {"kind": "sam", "rho": 0.1}], "run b16-s0-sam is planned twice"),
            ("seeds", 0, "the sweep plans no runs"),
            ("batch_sizes", [], "the sweep plans no runs"),
            ("batch_sizes", [16, "32"], "invalid train settings: batch_size must be an integer, got '32'"),
            ("train", {"batch_schedule": {"kind": "progressive", "factor": 1.5}}, "factor"),
            ("train", {"batch_schedule": {"kind": "progressive", "start": 16.5}}, "start"),
            ("dataset", dict(CONFIG["dataset"], separation=-1), "separation"),
            ("dataset", dict(CONFIG["dataset"], label_noise=0.7), "label_noise"),
            ("dataset", dict(CONFIG["dataset"], fractions=[0.5, 0.5]), "fractions"),
            ("dataset", dict(CONFIG["dataset"], n="60"), "invalid dataset settings"),
            (
                "dataset",
                dict(CONFIG["dataset"], n=10, fractions=[0.1, 0.45, 0.45]),
                "invalid dataset settings: train split too small",
            ),
            (
                "dataset",
                dict(CONFIG["dataset"], fractions=[0.9, 0.001, 0.099]),
                "invalid dataset settings: val split is empty",
            ),
            (
                "dataset",
                dict(CONFIG["dataset"], fractions=[0.9, 0.099, 0.001]),
                "invalid dataset settings: test split is empty",
            ),
            ("train", {"lr": True}, "invalid train settings: lr must be a finite number"),
            ("train", {"lambda_causal": False}, "lambda_causal must be a finite number"),
            ("train", {"lr": float("inf")}, "lr must be a finite number"),
            ("causal", {"alpha": True}, "invalid causal settings: alpha must be a finite number"),
            ("ablations", [{"kind": "sam", "rho": True}], "rho must be a finite number"),
            ("ablations", [{"kind": "l1l2", "l2": True}], "l2 must be a finite number"),
            ("model", {"kind": "logistic", "diffusion_alpha": True}, "diffusion_alpha"),
            (
                "dataset",
                dict(CONFIG["dataset"], seed=True),
                "invalid dataset settings: seed must be an integer",
            ),
            ("dataset", dict(CONFIG["dataset"], separation=True), "separation must be a finite"),
            (
                "dataset",
                dict(CONFIG["dataset"], fractions=[True, 0.2, 0.2]),
                "fractions[0] must be a finite number",
            ),
            (
                "dataset",
                {"kind": "sbm", "n": 60, "num_classes": 2, "p_in": True, "p_out": 0.0, "d": 3},
                "p_in must be a finite number",
            ),
            (
                "dataset",
                {"kind": "sbm", "n": 60, "num_classes": 2, "p_in": 0.05, "p_out": 0.2, "d": 3},
                "p_out < p_in",
            ),
            ("model", {"kind": "mlp1", "hidden": 0}, "hidden_dim"),
            ("model", {"kind": "mlp1", "hidden": "8"}, "hidden_dim must be an integer"),
            ("model", {"kind": "mlp1", "hidden": 8.5}, "hidden_dim must be an integer"),
            ("model", {"kind": "mlp1", "hidden": True}, "hidden_dim must be an integer"),
            ("model", {"kind": "logistic", "diffusion_alpha": "x"}, "diffusion_alpha"),
            ("model", {"kind": "logistic", "diffusion_beta": float("inf")}, "diffusion_beta"),
            (
                "model",
                {"kind": "graph_diffusion", "hidden": 4, "diffusion_steps": 0,
                 "diffusion_beta": 0.1},
                "diffusion_beta needs diffusion_steps >= 1",
            ),
            ("model", {"kind": "rnn", "hidden": 4}, "unknown model kind 'rnn'"),
            ("model", {"kind": "graph_diffusion", "hidden": 4}, "requires a graph dataset"),
            (
                "model",
                {"kind": "logistic", "hidden": 32},
                "invalid model settings: hidden_dim applies only to mlp1 and graph_diffusion,"
                " not to logistic",
            ),
            (
                "model",
                {"kind": "mlp1", "hidden": 16, "diffusion_alpha": 0.3, "diffusion_beta": 0.5},
                "invalid model settings: diffusion_alpha applies only to graph_diffusion,"
                " not to mlp1",
            ),
            ("ablations", [{"kind": "inject_noise", "rho": 0.5}], "rho applies only to sam"),
            ("ablations", [{"kind": "sam", "l2": 0.1}], "l2 applies only to l1l2, not to sam"),
            ("causal", {"bins": 2.5}, "bins must be an integer"),
            ("causal", {"bins": True}, "bins must be an integer"),
            (
                "train",
                {"batch_schedule": {"kind": "fixed", "start": 4}},
                "invalid train.batch_schedule settings: start applies only to progressive,"
                " not to fixed",
            ),
        ],
        ids=[
            "lr",
            "optimizer",
            "lr_schedule",
            "patience",
            "epochs",
            "schedule",
            "factor",
            "start",
            "epochs_float",
            "epochs_bool",
            "batch_size_bool",
            "seed_bool",
            "seed_count_bool",
            "seed_twice",
            "sam_twice",
            "seed_count_zero",
            "batch_sizes_empty",
            "batch_size_string",
            "factor_float",
            "start_float",
            "separation",
            "label_noise",
            "fractions",
            "n_string",
            "train_one_row",
            "val_empty",
            "test_empty",
            "lr_bool",
            "lambda_bool",
            "lr_inf",
            "alpha_bool",
            "rho_bool",
            "l2_bool",
            "diffusion_alpha_bool",
            "dataset_seed_bool",
            "separation_bool",
            "fractions_bool",
            "p_in_bool",
            "sbm_p_out",
            "hidden_zero",
            "hidden_string",
            "hidden_float",
            "hidden_bool",
            "alpha_string",
            "beta_inf",
            "beta_without_steps",
            "model_kind",
            "graph_model_without_graph",
            "logistic_hidden_unread",
            "mlp1_diffusion_unread",
            "rho_unread",
            "l2_unread",
            "bins_float",
            "bins_bool",
            "start_unread",
        ],
    )
    def test_validate_rejects_what_sweep_rejects(self, tmp_path, capsys, section, value, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(CONFIG, **{section: value}, out_dir=str(tmp_path / "out"))))
        assert main(["validate", str(path)]) == 1
        validate_err = capsys.readouterr().err
        assert main(["sweep", str(path)]) == 1
        assert message in validate_err and capsys.readouterr().err == validate_err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_sweep_workers_flag_obeys_the_config_rule(self, config_path, tmp_path, capsys, workers):
        assert main(["sweep", str(config_path), "--workers", workers]) == 1
        assert "workers must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_on_non_finite_csv_feature_exit_1(self, tmp_path, capsys):
        (tmp_path / "nodes.csv").write_text("id,f1,label\n0,0.5,0\n1,nan,1\n2,0.1,0\n3,0.2,1\n")
        (tmp_path / "edges.csv").write_text("src,dst\n0,1\n2,3\n")
        files = {"nodes": str(tmp_path / "nodes.csv"), "edges": str(tmp_path / "edges.csv")}
        config = dict(
            CONFIG,
            dataset=dict(files, kind="files"),
            train={"epochs": 0},
            out_dir=str(tmp_path / "out"),
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["validate", str(path)]) == 1
        assert main(["sweep", str(path)]) == 1
        assert capsys.readouterr().err.count("non-finite feature value in row 1") == 2
        assert not (tmp_path / "out").exists()

    def test_cli_import_leaves_scipy_stats_out(self, config_path, tmp_path):
        # A cold start loads numpy only: scipy.sparse loads when a graph
        # model trains, scipy.special with analyze and report, and the process pool
        # only for workers > 1. scipy.stats alone once cost most of a cold
        # start; scipy.sparse.linalg (an eigsh route to sharpness) costs about
        # 50 ms of it and 8 MB. Each check runs in a fresh interpreter.
        imported = loaded()
        assert "scipy.stats" not in imported
        assert "scipy.sparse.linalg" not in imported
        assert imported == set()

        sweep_args = ["sweep", config_path, "--workers", 1]
        assert loaded(["validate", config_path], sweep_args, sweep_args) == set()
        records = tmp_path / "out" / "records.jsonl"
        assert len(records.read_text().splitlines()) == 4

        imported = loaded(["report", records, "--out", tmp_path / "report"])
        assert "scipy.special" in imported
        assert "scipy.sparse" not in imported

    def test_validate_graph_configs_load_no_scipy(self, tmp_path):
        # a dataset stores its graph as an edge array: only training builds
        # the sparse operators, so validating a graph model loads no scipy
        nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
        data.save_tabular_graph(data.make_sbm_graph(60, 2, 0.2, 0.02, 3, seed=1), nodes, edges)
        sections = [
            {"kind": "sbm", "n": 60, "num_classes": 2, "p_in": 0.2, "p_out": 0.02, "d": 3},
            {"kind": "files", "nodes": str(nodes), "edges": str(edges)},
        ]
        model = {"kind": "graph_diffusion", "hidden": 4, "diffusion_alpha": 0.3}
        argvs = []
        for i, dataset in enumerate(sections):
            path = tmp_path / f"graph{i}.json"
            path.write_text(json.dumps(dict(CONFIG, dataset=dataset, model=model)))
            argvs.append(["validate", path])
        assert loaded(*argvs) == set()

    def test_validate_and_sweep_leave_numpy_ma_out(self, config_path, tmp_path):
        # numpy.ma costs 11-22 ms of a cold start; numpy's plain np.unique (and
        # so np.quantile) imports it. analyze and report are not checked: the
        # scipy.special they load for the back-door p-values imports it too.
        src = str(Path(batchlab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

        def loads_numpy_ma(code):
            code += "\nprint('numpy.ma' in sys.modules)"
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
            ).stdout
            return out.splitlines()[-1] == "True"

        if loads_numpy_ma("import sys, numpy"):
            pytest.skip("import numpy alone loads numpy.ma")
        records = tmp_path / "out" / "records.jsonl"
        sweep_args = ["sweep", config_path, "--workers", 1]
        for argv in (["validate", config_path], sweep_args, ["validate", records]):
            code = f"import sys\nfrom batchlab.cli import main\nassert main({list(map(str, argv))!r}) == 0"
            assert not loads_numpy_ma(code), argv
        assert len(records.read_text().splitlines()) == 4

    def test_sweep_analyze_report_pipeline(self, config_path, tmp_path, capsys):
        assert main(["sweep", str(config_path)]) == 0
        records = tmp_path / "out" / "records.jsonl"
        assert records.exists()
        assert len(records.read_text().splitlines()) == 4

        assert main(["validate", str(records)]) == 0
        # analyze --out makes the directories it writes into
        bundle = tmp_path / "new" / "dir" / "analysis.json"
        assert (
            main(["analyze", str(records), "--treat", "16", "--control", "64", "--out", str(bundle)])
            == 0
        )
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
        assert bundle.read_bytes() == (tmp_path / "report" / "analysis.json").read_bytes()

    def test_stale_resume_exit_1(self, config_path, tmp_path, capsys):
        assert main(["sweep", str(config_path)]) == 0
        stale = json.loads(config_path.read_text())
        stale["train"]["epochs"] = 1
        config_path.write_text(json.dumps(stale))
        assert main(["sweep", str(config_path)]) == 1
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("change", DATA_CHANGES)
    def test_resume_on_changed_data_exit_1(self, tmp_path, capsys, change):
        before, edit = changed_dataset(change, tmp_path)
        path = tmp_path / "config.json"
        config = dict(CONFIG, batch_sizes=[16], seeds=[0], out_dir=str(tmp_path / "out"))
        path.write_text(json.dumps(dict(config, dataset=before)))
        assert main(["sweep", str(path)]) == 0
        records = tmp_path / "out" / "records.jsonl"
        recorded = records.read_bytes()
        path.write_text(json.dumps(dict(config, dataset=edit())))
        assert main(["sweep", str(path)]) == 1
        assert "record b16-s0-none was made under another config (differs in fingerprint)" in (
            capsys.readouterr().err
        )
        assert records.read_bytes() == recorded

    def test_files_csvs_read_once_per_plan(self, tmp_path, monkeypatch):
        # validate reads each CSV once, to build the dataset; a fresh sweep
        # twice, to fingerprint and to build; a finished resume once, to
        # fingerprint
        section, _ = changed_dataset("files_split_seed", tmp_path)
        path = tmp_path / "files.json"
        one_run = dict(batch_sizes=[16], seeds=[0], out_dir=str(tmp_path / "out"))
        path.write_text(json.dumps(dict(CONFIG, dataset=section, **one_run)))
        reads, read_bytes = [], Path.read_bytes

        def counting(self):
            reads.append(self.name)
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", counting)
        for command, times in (("validate", 1), ("sweep", 2), ("sweep", 1)):
            reads.clear()
            assert main([command, str(path)]) == 0
            assert sorted(reads) == ["edges.csv"] * times + ["nodes.csv"] * times

    def test_finished_graph_resume_loads_no_scipy(self, tmp_path):
        # a resume with nothing pending builds no dataset, so a finished sbm
        # sweep resumes on numpy alone
        dataset = {"kind": "sbm", "n": 60, "num_classes": 2, "p_in": 0.2, "p_out": 0.02, "d": 3}
        path = tmp_path / "sbm.json"
        path.write_text(json.dumps(dict(CONFIG, dataset=dataset, out_dir=str(tmp_path / "out"))))
        assert main(["sweep", str(path)]) == 0
        records = tmp_path / "out" / "records.jsonl"
        recorded = records.read_bytes()
        src = str(Path(batchlab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys\nfrom batchlab.cli import main\n"
            f"assert main(['sweep', {str(path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out.splitlines()[-1] == "[]"
        assert records.read_bytes() == recorded

    def test_sweep_missing_config_exit_1(self, tmp_path, capsys):
        assert main(["sweep", str(tmp_path / "absent.json")]) == 1

    def test_no_mode_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", str(tmp_path / "records.jsonl"), "--mode", "hypergraph"])
        assert "--mode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "analyze", "report"])
    def test_read_only_command_on_missing_record_file_exit_1(self, tmp_path, capsys, command):
        # only a sweep's resume reads a missing record file as empty
        missing, out = tmp_path / "missing.jsonl", tmp_path / "report"
        flags = ["--out", str(out)] if command == "report" else []
        assert main([command, str(missing), *flags]) == 1
        assert f"record file not found: {missing}" in capsys.readouterr().err
        assert not missing.exists() and not out.exists()

    @pytest.mark.parametrize("command", ["validate", "analyze", "report"])
    def test_read_only_command_on_empty_record_file_exit_1(self, tmp_path, capsys, command):
        empty, out = tmp_path / "empty.jsonl", tmp_path / "report"
        empty.write_text("\n")
        flags = ["--out", str(out)] if command == "report" else []
        assert main([command, str(empty), *flags]) == 1
        assert capsys.readouterr().err == f"error: record file {empty} is empty\n"
        assert not out.exists()

    def test_analyze_empty_records_exit_1(self, tmp_path):
        empty = tmp_path / "records.jsonl"
        empty.write_text("")
        assert main(["analyze", str(empty)]) == 1

    def test_analyze_unknown_level_exit_1(self, config_path, tmp_path):
        main(["sweep", str(config_path)])
        records = tmp_path / "out" / "records.jsonl"
        assert main(["analyze", str(records), "--treat", "512", "--control", "64"]) == 1

    @pytest.mark.parametrize("bad", ["[1, 2]", '{"schema_version": 1, "run_id": "b16-s0-'])
    def test_validate_leaves_a_malformed_last_line_and_exits_1(
        self, config_path, tmp_path, capsys, bad
    ):
        # only a sweep's resume quarantines a malformed last line
        assert main(["sweep", str(config_path)]) == 0
        swept = (tmp_path / "out" / "records.jsonl").read_text().splitlines()
        for lines in ([bad], swept + [bad]):
            path = tmp_path / f"{len(lines)}.jsonl"
            path.write_text("\n".join(lines) + "\n")
            before = path.read_bytes()
            assert main(["validate", str(path)]) == 1
            assert f"{path}:{len(lines)}: corrupt record line" in capsys.readouterr().err
            assert path.read_bytes() == before
            assert not path.with_suffix(".jsonl.quarantine").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("batch_size", "16"),
            ("seed", True),
            ("final.sharpness", "x"),
            ("final.grad_noise", None),
            ("final.test_accuracy", float("nan")),
            ("final.epoch", 2.5),
            ("final.batch_size", True),
            ("config", [1, 2]),
        ],
    )
    def test_record_value_of_the_wrong_type_names_its_line(
        self, config_path, tmp_path, capsys, key, value
    ):
        assert main(["sweep", str(config_path)]) == 0
        path = tmp_path / "out" / "records.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        *outer, name = key.split(".")
        (record[outer[0]] if outer else record)[name] = value
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        report = ["report", str(path), "--out", str(tmp_path / "report")]
        for command in (
            ["validate", str(path)], ["analyze", str(path)], report, ["sweep", str(config_path)]
        ):
            assert main(command) == 1
            err = capsys.readouterr().err
            assert f"{path}:2: corrupt record line ({key} must be" in err

    def test_record_renamed_to_another_run_names_its_line(self, config_path, tmp_path, capsys):
        assert main(["sweep", str(config_path)]) == 0
        path = tmp_path / "out" / "records.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        assert record["run_id"] == "b16-s1-none"
        lines[1] = json.dumps(dict(record, run_id="b16-s0-none"))
        path.write_text("\n".join(lines) + "\n")
        before = path.read_bytes()
        for command in (["validate", str(path)], ["sweep", str(config_path)]):
            assert main(command) == 1
            err = capsys.readouterr().err
            assert f"{path}:2: corrupt record line (run_id 'b16-s0-none' does not name" in err
        assert path.read_bytes() == before
