import inspect
import json
import re

import pytest

from batchlab import data
from batchlab.analysis import AnalysisSettings
from batchlab.config import ConfigError, build_sweep_config, parse_config
from batchlab.models import ModelSpec
from batchlab.sweep import plan_sweep
from batchlab.training import Ablation, BatchSchedule, TrainConfig

MINIMAL = {
    "dataset": {"kind": "blobs", "n": 100, "d": 4, "num_classes": 3},
    "model": {"kind": "mlp1", "hidden": 8},
}


def write_config(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path


class TestParseConfig:
    def test_minimal_gets_documented_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL))
        assert cfg.batch_sizes == (16, 32, 64, 128, 256, 512)
        assert cfg.seeds == tuple(range(10))
        assert cfg.train == {}
        assert cfg.causal.treat is None and cfg.causal.control is None
        assert cfg.ablations == ()
        assert cfg.workers == 1
        _, planned = plan_sweep(cfg)
        assert len(planned) == 6 * 10
        for tc in planned:
            assert (tc.epochs, tc.lr, tc.lr_schedule, tc.optimizer) == (50, 1e-3, "fixed", "adam")
            assert (tc.lambda_causal, tc.early_stop_patience) == (0.0, 10)
            assert tc.ablation == Ablation() and tc.batch_schedule == BatchSchedule()

    def test_planned_run_is_the_library_default(self):
        # the train section's defaults are TrainConfig's, so a sweep and the
        # library cannot disagree on an unset setting
        _, planned = plan_sweep(build_sweep_config(MINIMAL))
        spec = ModelSpec("mlp1", input_dim=4, num_classes=3, hidden_dim=8)
        for tc in planned:
            assert tc == TrainConfig(model=spec, batch_size=tc.batch_size, seed=tc.seed)

    def test_unknown_top_level_key_named(self, tmp_path):
        bad = dict(MINIMAL, batchsizes=[16])
        with pytest.raises(ConfigError, match="batchsizes"):
            parse_config(write_config(tmp_path, bad))

    def test_unknown_nested_key_named(self, tmp_path):
        bad = dict(MINIMAL, train={"epochs": 5, "learning_rate": 0.1})
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config(write_config(tmp_path, bad))

    def test_causal_mode_key_rejected(self, tmp_path):
        # every engine mode is always computed, so there is nothing to choose
        bad = dict(MINIMAL, causal={"bins": 3, "mode": "hypergraph"})
        with pytest.raises(ConfigError, match="unknown config key 'mode' in causal"):
            parse_config(write_config(tmp_path, bad))

    def test_zero_batch_size_rejected(self, tmp_path):
        # the axes' values are checked where the sweep plans its runs
        bad = parse_config(write_config(tmp_path, dict(MINIMAL, batch_sizes=[0, 16])))
        with pytest.raises(ConfigError, match="invalid train settings: batch_size must be >= 1"):
            plan_sweep(bad)

    def test_duplicate_batch_sizes_rejected(self, tmp_path):
        bad = parse_config(write_config(tmp_path, dict(MINIMAL, batch_sizes=[16, 32, 16])))
        with pytest.raises(ConfigError, match="run b16-s0-none is planned twice"):
            plan_sweep(bad)

    def test_missing_required_keys(self, tmp_path):
        with pytest.raises(ConfigError, match="model"):
            parse_config(write_config(tmp_path, {"dataset": MINIMAL["dataset"]}))
        with pytest.raises(ConfigError, match="'n'"):
            parse_config(
                write_config(tmp_path, dict(MINIMAL, dataset={"kind": "blobs", "d": 4}))
            )

    @pytest.mark.parametrize(
        "dataset",
        [
            {"kind": "blobs", "n": 100, "d": 4, "num_classes": 3, "separation": 2.0,
             "label_noise": 0.1, "seed": 1, "fractions": [0.5, 0.25, 0.25]},
            {"kind": "sbm", "n": 60, "num_classes": 2, "p_in": 0.2, "p_out": 0.02, "d": 3,
             "feature_signal": 1.5, "seed": 1, "fractions": [0.5, 0.25, 0.25]},
            {"kind": "files", "nodes": "nodes.csv", "edges": "edges.csv", "seed": 1,
             "fractions": [0.5, 0.25, 0.25]},
        ],
        ids=["blobs", "sbm", "files"],
    )
    def test_dataset_keys_are_builder_parameters(self, dataset):
        builder = data.BUILDERS[dataset["kind"]]
        assert set(dataset) - {"kind"} == set(inspect.signature(builder).parameters)
        assert build_sweep_config(dict(MINIMAL, dataset=dataset)).dataset == dataset
        with pytest.raises(ConfigError, match="unknown config key 'bogus' in dataset$"):
            build_sweep_config(dict(MINIMAL, dataset=dict(dataset, bogus=1)))

    def test_model_keys_are_spec_fields(self):
        model = {"kind": "graph_diffusion", "hidden": 4, "diffusion_alpha": 0.5,
                 "diffusion_beta": 0.1, "diffusion_steps": 3}
        assert build_sweep_config(dict(MINIMAL, model=model)).model == model
        # the dataset fixes input_dim and num_classes; hidden_dim is written "hidden"
        for key in ("input_dim", "num_classes", "hidden_dim"):
            with pytest.raises(ConfigError, match=f"unknown config key '{key}' in model$"):
                build_sweep_config(dict(MINIMAL, model=dict(model, **{key: 4})))
        with pytest.raises(ConfigError, match="missing required key 'kind' in model"):
            build_sweep_config(dict(MINIMAL, model={"hidden": 4}))

    def test_train_keys_are_train_config_fields(self):
        train = {"epochs": 3, "lr": 0.1, "lr_schedule": "fixed", "optimizer": "sgd",
                 "lambda_causal": 0.0, "early_stop_patience": 2, "batch_schedule": {}}
        # the sweep sets the model, batch size, seed and ablation of each run
        run_fields = {"model", "batch_size", "seed", "ablation"}
        assert set(train) == set(inspect.signature(TrainConfig).parameters) - run_fields
        assert build_sweep_config(dict(MINIMAL, train=train)).train == dict(
            train, batch_schedule=BatchSchedule()
        )
        for key in run_fields:
            with pytest.raises(ConfigError, match=f"unknown config key '{key}' in train$"):
                build_sweep_config(dict(MINIMAL, train=dict(train, **{key: 1})))

    def test_bad_dataset_kind(self, tmp_path):
        bad = dict(MINIMAL, dataset={"kind": "imagenet"})
        with pytest.raises(ConfigError, match="kind"):
            parse_config(write_config(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(path)

    def test_full_config_parses_to_typed_values(self, tmp_path):
        full = {
            "dataset": {
                "kind": "blobs",
                "n": 500,
                "d": 6,
                "num_classes": 3,
                "separation": 3.0,
                "label_noise": 0.2,
                "seed": 7,
            },
            "model": {"kind": "mlp1", "hidden": 16},
            "batch_sizes": [16, 256],
            "seeds": [0, 1, 2],
            "train": {
                "epochs": 40,
                "lr": 0.001,
                "lr_schedule": "halve_every_10",
                "optimizer": "adam",
                "early_stop_patience": 10,
                "batch_schedule": {"kind": "progressive", "start": 16, "factor": 2, "every_epochs": 10},
            },
            "ablations": [{"kind": "sam", "rho": 0.05}, {"kind": "no_noise_averaging"}],
            "causal": {"bins": 3, "alpha": 1.0, "treat": 16, "control": 256},
            "out_dir": "out",
            "workers": 2,
        }
        cfg = parse_config(write_config(tmp_path, full))
        assert cfg.dataset == full["dataset"] and cfg.model == full["model"]
        assert cfg.batch_sizes == (16, 256) and cfg.seeds == (0, 1, 2)
        schedule = BatchSchedule("progressive", 16, 2, 10)
        assert cfg.train == dict(full["train"], batch_schedule=schedule)
        _, planned = plan_sweep(cfg)
        assert len(planned) == 2 * 3 * 3
        for tc in planned:
            assert (tc.epochs, tc.lr_schedule) == (40, "halve_every_10")
            assert tc.batch_schedule == schedule
            assert tc.lambda_causal == 0.0  # absent, so TrainConfig's default
        assert cfg.ablations == (Ablation("sam", rho=0.05), Ablation("no_noise_averaging"))
        assert cfg.causal == AnalysisSettings(bins=3, alpha=1.0, treat=16, control=256)
        assert cfg.out_dir == "out" and cfg.workers == 2

    @pytest.mark.parametrize(
        "section",
        ["config", "dataset", "model", "train", "train.batch_schedule", "ablations[]", "causal"],
    )
    def test_unknown_key_named_in_every_section(self, section):
        obj = dict(
            MINIMAL,
            dataset=dict(MINIMAL["dataset"]),
            model=dict(MINIMAL["model"]),
            train={"batch_schedule": {}},
            ablations=[{"kind": "sam"}],
            causal={},
        )
        target = {
            "config": obj,
            "dataset": obj["dataset"],
            "model": obj["model"],
            "train": obj["train"],
            "train.batch_schedule": obj["train"]["batch_schedule"],
            "ablations[]": obj["ablations"][0],
            "causal": obj["causal"],
        }[section]
        target["bogus"] = 1
        with pytest.raises(ConfigError, match=rf"unknown config key 'bogus' in {re.escape(section)}$"):
            build_sweep_config(obj)

    def test_seed_count_expansion(self):
        cfg = build_sweep_config(dict(MINIMAL, seeds=4))
        assert cfg.seeds == (0, 1, 2, 3)

    def test_ablation_none_rejected(self):
        # the unablated run is always planned, so a listed 'none' repeats it
        bad = build_sweep_config(dict(MINIMAL, ablations=[{"kind": "sam"}, {"kind": "none"}]))
        with pytest.raises(ConfigError, match="run b16-s0-none is planned twice"):
            plan_sweep(bad)

    def test_invalid_workers(self):
        with pytest.raises(ConfigError, match="workers"):
            build_sweep_config(dict(MINIMAL, workers=0))
        with pytest.raises(ConfigError, match="workers"):
            build_sweep_config(dict(MINIMAL, workers=True))
