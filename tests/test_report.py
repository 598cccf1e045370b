import copy
import csv
import dataclasses
import json

import numpy as np
import pytest

from batchlab import analysis, causal, report, sweep
from batchlab.analysis import (
    STRUCTURES,
    AnalysisBundle,
    AnalysisSettings,
    analyze_observations,
    analyze_records,
    records_to_observations,
)
from batchlab.causal import VAR_BATCH, VAR_GENERALIZATION
from batchlab.cli import main
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
        fingerprint=None,
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
        # ablated and degenerate rows excluded
        assert [len(column) for column in obs.values()] == [12] * len(analysis.VARIABLES)
        assert set(obs[VAR_BATCH].tolist()) == {16, 256}

    def test_observations_are_one_column_per_variable_over_usable_runs(self):
        usable = synthetic_sweep_records(n_seeds=3)
        degenerate = synthetic_record(256, 98, 0.5)
        degenerate.final = None
        ablated = synthetic_record(16, 99, 0.5, ablation="sam")
        records = usable[:2] + [ablated] + usable[2:4] + [degenerate] + usable[4:]
        obs = records_to_observations(records)
        assert list(obs) == list(analysis.VARIABLES)
        expected = {
            VAR_BATCH: [r.batch_size for r in usable],
            causal.VAR_NOISE: [r.final.grad_noise for r in usable],
            causal.VAR_SHARPNESS: [r.final.sharpness for r in usable],
            causal.VAR_COMPLEXITY: [r.final.complexity for r in usable],
            VAR_GENERALIZATION: [r.final.test_accuracy for r in usable],
        }
        assert {name: column.tolist() for name, column in obs.items()} == expected
        assert obs[VAR_BATCH].dtype == np.int64
        assert all(obs[name].dtype == np.float64 for name in expected if name != VAR_BATCH)

    def test_a_sixth_variable_needs_one_table_entry_and_one_hyperedge(self, monkeypatch):
        records = synthetic_sweep_records(np.random.default_rng(6), n_seeds=6)
        settings = AnalysisSettings(treat=16, control=256)
        without = analyze_records(records, settings)
        # the generalization gap, read from each record and driven by the batch size
        for i, r in enumerate(records):
            r.final = dataclasses.replace(r.final, gen_gap=0.01 * i + 0.1 * (r.batch_size == 16))
        monkeypatch.setitem(analysis.VARIABLES, "gen_gap", (lambda r: r.final.gen_gap, False))
        structures = {
            mode: causal.CausalHypergraph.from_edges(
                graph.variables + ("gen_gap",),
                [(e.tails, e.head) for e in graph.hyperedges] + [((VAR_BATCH,), "gen_gap")],
            )
            for mode, graph in STRUCTURES.items()
        }
        monkeypatch.setattr(analysis, "STRUCTURES", structures)
        bundle = analyze_observations(records_to_observations(records), settings)

        assert bundle.scheme["gen_gap"].k == 3
        gaps = np.array([r.final.gen_gap for r in records])
        batch = np.array([r.batch_size for r in records])
        cuts = np.quantile(gaps, [1 / 3, 2 / 3])
        for mode, tables in bundle.tables.items():
            (table,) = [t for t in tables if t.head == "gen_gap"]
            assert table.tails == (VAR_BATCH,)
            # the fitted table from counts, alpha = 1 over three gap bins
            for row, b in enumerate((16, 256)):
                counts = np.bincount(np.searchsorted(cuts, gaps[batch == b]), minlength=3)
                np.testing.assert_allclose(table.probs[row], (counts + 1) / (counts.sum() + 3))
            # the gap is no ancestor of the outcome, so every do() answer keeps its value
            for res, old in zip(bundle.interventions[mode], without.interventions[mode]):
                assert res.b == old.b
                np.testing.assert_allclose(res.distribution, old.distribution, rtol=1e-12)
            assert bundle.ate[mode] == pytest.approx(without.ate[mode], rel=1e-12, abs=1e-15)

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
                        bundle.tables[mode], b, bundle.scheme, mode
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
        assert bundle.scheme[VAR_GENERALIZATION].k == 1

    def test_saved_bundle_is_its_json_dict(self, tmp_path):
        records = synthetic_sweep_records()
        bundle = analyze_records(records, AnalysisSettings(treat=16, control=256))
        path = tmp_path / "analysis.json"
        bundle.save(path)
        saved = json.loads(path.read_text())
        # the file's keys are the bundle's fields, each nested result its to_dict()
        assert list(saved) == list(AnalysisBundle.__dataclass_fields__)
        assert saved == {
            "settings": bundle.settings.to_dict(),
            "treat": bundle.treat,
            "control": bundle.control,
            "scheme": {var: binning.to_dict() for var, binning in bundle.scheme.items()},
            "tables": {m: [t.to_dict() for t in ts] for m, ts in bundle.tables.items()},
            "interventions": {
                m: [r.to_dict() for r in rs] for m, rs in bundle.interventions.items()
            },
            "ate": bundle.ate,
            "backdoor": [row.to_dict() for row in bundle.backdoor],
            "n_observations": bundle.n_observations,
        }

    def test_empty_observations_rejected(self):
        with pytest.raises(ValueError, match="no usable"):
            analyze_observations(records_to_observations([]), AnalysisSettings())


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

    def binning_failure_records(self):
        # the tied accuracies leave 3 equal-frequency bins two equal cut
        # points, so the engine fails; the significance tests need no binning
        records = []
        for b, accuracies in {16: (0.5, 0.5, 0.5, 0.6), 256: (0.5, 0.5, 0.7, 0.45)}.items():
            for seed, acc in enumerate(accuracies):
                i = len(records)  # distinct noise and sharpness
                records.append(synthetic_record(b, seed, acc, noise=0.01 * (i + 1), sharp=1.0 + i))
        return records

    def test_binning_failure_keeps_the_significance_tests(self, tmp_path):
        records = self.binning_failure_records()
        out = tmp_path / "out"
        assert main(["report", str(self.write_records(tmp_path, records)), "--out", str(out)]) == 0
        meta_line, body = (out / "report.txt").read_text().split("\n\n", 1)
        meta = json.loads(meta_line.removeprefix("# metadata: "))
        assert meta["analysis_error"] == "quantile cut points are not strictly increasing"
        assert "== significance: B=16 vs B=256 ==" in body and "ATE" not in body
        assert not (out / "analysis.json").exists() and not (out / "ate.csv").exists()
        with (out / "significance.csv").open() as fh:
            (row,) = csv.DictReader(fh)
        expected = report.significance_result(records, 16, 256)
        assert row["welch_p"] == str(expected["welch_p"]) and 0.0 < expected["welch_p"] < 1.0

    def test_failed_engine_section_replaces_the_causal_sections(self, tmp_path):
        path = self.write_records(tmp_path, self.binning_failure_records())
        paths = report.emit_report(path, AnalysisSettings(), tmp_path / "out")
        blocks = paths["report"].read_text().rstrip("\n").split("\n\n")[1:]
        assert [block.splitlines()[0] for block in blocks] == [
            "== accuracy by batch size (percent, mean ± std over seeds) ==",
            "== sharpness (top Hessian eigenvalue) by batch size ==",
            "== time per epoch (seconds) ==",
            "== causal analysis failed ==",
            "== significance: B=16 vs B=256 ==",
        ]
        assert blocks[3] == "== causal analysis failed ==\n  quantile cut points are not strictly increasing"

    @pytest.mark.parametrize(
        "accuracies, error",
        [
            ((0.81, 0.82, 0.83, 0.84), "need at least 2 seeds at both B=16 and B=256"),
            ((0.5, 0.5, 0.5, 0.6), "quantile cut points are not strictly increasing"),
        ],
        ids=["tests", "engine-and-tests"],
    )
    def test_analysis_error_names_the_engine_else_the_tests(self, tmp_path, accuracies, error):
        # one seed at B=256 fails the tests; tied accuracies fail the engine too
        records = [
            synthetic_record(16, seed, acc, noise=0.01 * (seed + 1), sharp=1.0 + seed)
            for seed, acc in enumerate(accuracies)
        ]
        records.append(synthetic_record(256, 0, 0.45, noise=0.5, sharp=10.0))
        paths = report.emit_report(self.write_records(tmp_path, records), AnalysisSettings(), tmp_path / "out")
        meta_line, body = paths["report"].read_text().split("\n\n", 1)
        meta = json.loads(meta_line.removeprefix("# metadata: "))
        assert meta["analysis_error"] == error
        assert ("analysis" in paths) == (error.startswith("need")) and "significance" not in paths
        # the body names each failure in its own section
        blocks = body.rstrip("\n").split("\n\n")
        tests_error = "need at least 2 seeds at both B=16 and B=256"
        assert blocks[-1] == f"== significance tests failed ==\n  {tests_error}"
        assert (f"== causal analysis failed ==\n  {error}" in blocks) == (error != tests_error)

    def test_only_ablated_runs_name_no_usable_observations_twice(self, tmp_path):
        records = [synthetic_record(b, s, 0.8, ablation="sam") for b in (16, 256) for s in range(2)]
        paths = report.emit_report(self.write_records(tmp_path, records), AnalysisSettings(), tmp_path / "out")
        error = "no usable observations (completed, unablated runs)"
        blocks = paths["report"].read_text().rstrip("\n").split("\n\n")[-2:]
        assert blocks == [
            f"== causal analysis failed ==\n  {error}",
            f"== significance tests failed ==\n  {error}",
        ]

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
