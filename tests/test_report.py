import copy
import csv
import json

import numpy as np
import pytest

from batchlab import causal, report, sweep
from batchlab.analysis import (
    STRUCTURES,
    AnalysisSettings,
    analyze_observations,
    analyze_records,
    records_to_observations,
)
from batchlab.causal import VAR_BATCH, VAR_GENERALIZATION
from batchlab.measures import Measurement
from batchlab.training import RunRecord


def synthetic_record(batch_size, seed, accuracy, noise=None, sharp=None, ablation="none"):
    noise = noise if noise is not None else (0.05 if batch_size == 16 else 0.05 / 16)
    sharp = sharp if sharp is not None else (1.0 if batch_size == 16 else 3.0)
    comp = 1.0 / sharp + np.log(noise)
    final = Measurement(
        grad_noise=noise,
        sharpness=sharp,
        complexity=comp,
        test_accuracy=accuracy,
        gen_gap=0.1,
        batch_size=batch_size,
        epoch=4,
    )
    return RunRecord(
        run_id=f"b{batch_size}-s{seed}-{ablation}",
        dataset_id="synthetic",
        model_kind="mlp1",
        batch_size=batch_size,
        seed=seed,
        ablation=ablation,
        config={},
        train_loss=[0.5],
        test_loss=[0.6],
        test_acc=[accuracy],
        lr=[1e-3],
        effective_batch=[batch_size],
        epoch_wall_seconds=[0.01],
        final=final,
        status="completed",
    )


def synthetic_sweep_records(rng=None, n_seeds=6):
    rng = rng or np.random.default_rng(0)
    records = []
    for seed in range(n_seeds):
        acc16 = 0.85 + 0.01 * rng.standard_normal()
        acc256 = 0.80 + 0.01 * rng.standard_normal()
        records.append(
            synthetic_record(16, seed, acc16, noise=0.05 * (1 + 0.1 * rng.random()), sharp=1.0 + 0.1 * rng.random())
        )
        records.append(
            synthetic_record(256, seed, acc256, noise=0.003 * (1 + 0.1 * rng.random()), sharp=3.0 + 0.1 * rng.random())
        )
    return records


class TestFormatting:
    def test_percent_cell(self):
        # charter example: accuracies {0.80, 0.82} print as "81.0 ± 1.4"
        accs = [0.80, 0.82]
        mean = float(np.mean(accs))
        std = float(np.std(accs, ddof=1))
        assert report.format_mean_std_percent(mean, std) == "81.0 ± 1.4"

    def test_single_value_no_std(self):
        assert report.format_mean_std_percent(0.839, None) == "83.9"


class TestAnalysis:
    def test_observations_filter(self):
        records = synthetic_sweep_records()
        records.append(synthetic_record(16, 99, 0.5, ablation="sam"))
        degenerate = synthetic_record(16, 98, 0.5)
        degenerate.final = None
        degenerate.status = "degenerate"
        records.append(degenerate)
        obs = records_to_observations(records)
        assert len(obs) == 12  # ablated and degenerate rows excluded
        assert {o[VAR_BATCH] for o in obs} == {16, 256}

    def test_ate_positive_on_separated_synthetic_sweep(self):
        records = synthetic_sweep_records(np.random.default_rng(4), n_seeds=10)
        bundle = analyze_records(records, AnalysisSettings(treat=16, control=256))
        assert bundle.ate["hypergraph"] > 0
        assert bundle.ate["algorithm1"] > 0
        for results in bundle.interventions.values():
            for res in results:
                assert np.asarray(res.distribution).sum() == pytest.approx(1.0, abs=1e-12)

    def test_ate_is_the_difference_of_its_do_expectations(self):
        records = synthetic_sweep_records(np.random.default_rng(5), n_seeds=6)
        for treat, control in ((16, 256), (256, 16), (16, 16)):
            bundle = analyze_records(records, AnalysisSettings(treat=treat, control=control))
            assert sorted(bundle.ate) == sorted(bundle.interventions)
            for mode, results in bundle.interventions.items():
                expected = {res.b: res.expected for res in results}
                assert bundle.ate[mode] == expected[treat] - expected[control]
                # and a fresh query of the fitted tables gives the same floats
                fresh = {
                    b: causal.interventional_distribution(
                        STRUCTURES[mode], bundle.tables[mode], b, scheme=bundle.scheme
                    ).expected
                    for b in (treat, control)
                }
                assert bundle.ate[mode] == fresh[treat] - fresh[control]

    def test_auto_treat_control(self):
        records = synthetic_sweep_records()
        for settings in (AnalysisSettings(), AnalysisSettings(treat=None, control=None)):
            bundle = analyze_records(records, settings)
            assert bundle.treat == 16 and bundle.control == 256

    def test_unknown_treat_rejected(self):
        records = synthetic_sweep_records()
        with pytest.raises(ValueError, match="unknown treat"):
            analyze_records(records, AnalysisSettings(treat=512, control=256))

    def test_constant_accuracy_gives_zero_ate(self):
        records = []
        for seed in range(4):
            for b in (16, 256):
                records.append(synthetic_record(b, seed, 0.8))
        bundle = analyze_records(records, AnalysisSettings(treat=16, control=256))
        assert bundle.ate["hypergraph"] == pytest.approx(0.0, abs=1e-12)
        assert bundle.scheme.bins[VAR_GENERALIZATION].k == 1

    def test_saved_bundle_is_its_json_dict(self, tmp_path):
        records = synthetic_sweep_records()
        bundle = analyze_records(records, AnalysisSettings(treat=16, control=256))
        path = tmp_path / "analysis.json"
        bundle.save(path)
        assert json.loads(path.read_text()) == bundle.to_json_dict()

    def test_empty_observations_rejected(self):
        with pytest.raises(ValueError, match="no usable"):
            analyze_observations([], AnalysisSettings())


class TestSignificance:
    def test_equal_accuracies_p_one(self):
        records = []
        for seed in range(4):
            for b in (16, 256):
                records.append(synthetic_record(b, seed, 0.8))
        sig = report.significance_result(records, 16, 256)
        assert sig["welch_p"] == 1.0
        assert sig["wilcoxon_p"] == 1.0
        assert sig["mean_diff"] == 0.0

    def test_clear_gap_significant(self):
        records = synthetic_sweep_records(np.random.default_rng(7), n_seeds=10)
        sig = report.significance_result(records, 16, 256)
        assert sig["welch_p"] < 0.05
        assert sig["wilcoxon_p"] < 0.05

    def test_needs_two_seeds(self):
        records = [synthetic_record(16, 0, 0.8), synthetic_record(256, 0, 0.7)]
        with pytest.raises(ValueError, match="seeds"):
            report.significance_result(records, 16, 256)


class TestEmitReport:
    def write_records(self, tmp_path, records):
        path = tmp_path / "records.jsonl"
        for r in records:
            sweep.append_record(path, r)
        return path

    def test_emits_all_artifacts(self, tmp_path):
        records = synthetic_sweep_records(np.random.default_rng(1), n_seeds=6)
        path = self.write_records(tmp_path, records)
        paths = report.emit_report(path, AnalysisSettings(treat=16, control=256), tmp_path / "out")
        for name in ("accuracy", "sharpness", "timing", "interventions", "ate", "significance", "backdoor", "analysis", "report"):
            assert name in paths and paths[name].exists(), name
        text = paths["report"].read_text()
        assert "accuracy by batch size" in text
        assert "ATE" in text

    def test_report_body_is_pure_function_of_records(self, tmp_path):
        records = synthetic_sweep_records(np.random.default_rng(2), n_seeds=5)
        path = self.write_records(tmp_path, records)
        settings = AnalysisSettings(treat=16, control=256)
        p1 = report.emit_report(path, settings, tmp_path / "out1")
        p2 = report.emit_report(path, settings, tmp_path / "out2")
        body1 = p1["report"].read_text().split("\n\n", 1)[1]
        body2 = p2["report"].read_text().split("\n\n", 1)[1]
        assert body1 == body2
        meta1 = json.loads(p1["report"].read_text().splitlines()[0].split("# metadata: ")[1])
        assert "generated_at" in meta1

    def test_body_tables_are_the_csv_rows(self, tmp_path):
        records = synthetic_sweep_records(np.random.default_rng(3), n_seeds=4)
        records.append(synthetic_record(16, 0, 0.70, ablation="no_noise_averaging"))
        path = self.write_records(tmp_path, records)
        paths = report.emit_report(path, AnalysisSettings(treat=16, control=256), tmp_path / "out")
        sections = {
            block.splitlines()[0]: block.splitlines()[1:]
            for block in paths["report"].read_text().split("\n\n")[1:]
            if block.startswith("==")
        }

        def rows(name):
            with paths[name].open() as fh:
                return list(csv.DictReader(fh))

        accuracy = sections["== accuracy by batch size (percent, mean ± std over seeds) =="]
        assert [line.split() for line in accuracy] == [
            [f"B={r['batch_size']}", f"ablation={r['ablation']}", f"n={r['n']}", *r["cell"].split()]
            for r in rows("accuracy")
        ]
        sharpness = sections["== sharpness (top Hessian eigenvalue) by batch size =="]
        assert [line.split() for line in sharpness] == [
            [
                f"B={r['batch_size']}",
                f"n={r['n']}",
                f"median={float(r['median_sharpness']):.6g}",
                f"mean={float(r['mean_sharpness']):.6g}",
                f"std={float(r['std_sharpness']):.6g}",
            ]
            for r in rows("sharpness")
        ]
        timing = sections["== time per epoch (seconds) =="]
        assert [line.split() for line in timing] == [
            [
                f"B={r['batch_size']}",
                f"epochs={r['epochs_timed']}",
                f"mean={float(r['mean_epoch_seconds']):.4f}",
            ]
            for r in rows("timing")
        ]
        assert len(accuracy) == 3 and len(sharpness) == len(timing) == 2

    def test_equal_accuracies_ate_zero_p_one_in_report(self, tmp_path):
        records = []
        for seed in range(4):
            for b in (16, 256):
                records.append(synthetic_record(b, seed, 0.8))
        path = self.write_records(tmp_path, records)
        paths = report.emit_report(path, AnalysisSettings(treat=16, control=256), tmp_path / "out")
        ate_rows = (tmp_path / "out" / "ate.csv").read_text().splitlines()
        assert all(float(row.split(",")[-1]) == 0.0 for row in ate_rows[1:])
        text = paths["report"].read_text()
        assert "ATE=+0.00" in text
        sig = (tmp_path / "out" / "significance.csv").read_text().splitlines()
        header = sig[0].split(",")
        values = sig[1].split(",")
        assert float(values[header.index("welch_p")]) == 1.0
        assert float(values[header.index("wilcoxon_p")]) == 1.0

    def test_empty_record_file_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            report.emit_report(path, AnalysisSettings(), tmp_path / "out")

    def test_accuracy_rows_include_ablations(self, tmp_path):
        records = synthetic_sweep_records()
        records.append(synthetic_record(16, 0, 0.70, ablation="no_noise_averaging"))
        records.append(synthetic_record(16, 1, 0.71, ablation="no_noise_averaging"))
        rows = report.accuracy_rows(records)
        ablations = {(r["batch_size"], r["ablation"]) for r in rows}
        assert (16, "no_noise_averaging") in ablations and (16, "none") in ablations
