"""Report generation: publication-style summary tables from a record file.

Emits machine-readable CSVs plus one human-readable text report. The report
body is a pure function of the records and settings; the current timestamp
appears only in a metadata block at the top.
"""

from __future__ import annotations

import csv
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import stats, sweep
from .analysis import AnalysisBundle, AnalysisSettings, analyze_records, treat_control, usable_runs
from .training import RunRecord


def format_mean_std_percent(mean: float, std: float | None) -> str:
    """Accuracy-cell formatting: fractions in, percent 'mean ± std' out."""
    if std is None:
        return f"{mean * 100:.1f}"
    return f"{mean * 100:.1f} ± {std * 100:.1f}"


# -- aggregation ------------------------------------------------------------------


def accuracy_rows(records: list[RunRecord]) -> list[dict]:
    rows = []
    groups: dict[tuple[int, str], list[float]] = {}
    for r in records:
        if r.final is not None:
            groups.setdefault((r.batch_size, r.ablation), []).append(r.final.test_accuracy)
    for (b, abl), accs in sorted(groups.items()):
        s = stats.summarize(accs)
        rows.append(
            {
                "batch_size": b,
                "ablation": abl,
                "n": s.n,
                "mean_accuracy": s.mean,
                "std_accuracy": s.std,
                "cell": format_mean_std_percent(s.mean, s.std),
            }
        )
    return rows


def sharpness_rows(records: list[RunRecord]) -> list[dict]:
    rows = []
    groups: dict[int, list[float]] = {}
    for r in usable_runs(records):
        groups.setdefault(r.batch_size, []).append(r.final.sharpness)
    for b, values in sorted(groups.items()):
        s = stats.summarize(values)
        rows.append(
            {
                "batch_size": b,
                "n": s.n,
                "median_sharpness": float(np.median(values)),
                "mean_sharpness": s.mean,
                "std_sharpness": s.std,
            }
        )
    return rows


def timing_rows(records: list[RunRecord]) -> list[dict]:
    rows = []
    groups: dict[int, list[float]] = {}
    for r in records:
        if r.ablation == "none" and r.epoch_wall_seconds:
            groups.setdefault(r.batch_size, []).extend(r.epoch_wall_seconds)
    for b, secs in sorted(groups.items()):
        rows.append(
            {
                "batch_size": b,
                "epochs_timed": len(secs),
                "mean_epoch_seconds": float(np.mean(secs)),
            }
        )
    return rows


def significance_result(records: list[RunRecord], treat: int, control: int) -> dict:
    """Welch and Wilcoxon (paired by seed) on accuracies at two batch sizes."""
    by_seed: dict[int, dict[int, float]] = {}
    for r in usable_runs(records):
        if r.batch_size in (treat, control):
            by_seed.setdefault(r.seed, {})[r.batch_size] = r.final.test_accuracy
    xs = [v[treat] for v in by_seed.values() if treat in v]
    ys = [v[control] for v in by_seed.values() if control in v]
    if len(xs) < 2 or len(ys) < 2:
        raise ValueError(f"need at least 2 seeds at both B={treat} and B={control}")
    welch = stats.welch_t_test(xs, ys)
    out = {
        "treat": treat,
        "control": control,
        "n_treat": len(xs),
        "n_control": len(ys),
        "mean_diff": float(np.mean(xs) - np.mean(ys)),
        "welch_t": welch.t,
        "welch_df": welch.df,
        "welch_p": welch.p,
        "wilcoxon_w": None,
        "wilcoxon_p": None,
        "wilcoxon_method": None,
    }
    diffs = [v[treat] - v[control] for v in by_seed.values() if treat in v and control in v]
    if diffs:
        wil = stats.wilcoxon_signed_rank(diffs)
        out.update(wilcoxon_w=wil.w, wilcoxon_p=wil.p, wilcoxon_method=wil.method)
    return out


# -- emission ---------------------------------------------------------------------


def _write_csv(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        if not rows:
            return
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_report_body(
    tables: dict[str, list[dict]],
    bundle: AnalysisBundle | str,
    sig: dict | str,
) -> str:
    """The report text after its metadata line; ``tables`` holds the rows of
    the accuracy, sharpness and timing CSVs, by name, ``bundle`` is the
    causal engine's answer and ``sig`` the significance tests' result, each
    its error when it failed."""
    lines: list[str] = []
    add = lines.append
    add("== accuracy by batch size (percent, mean ± std over seeds) ==")
    for row in tables["accuracy"]:
        add(
            f"  B={row['batch_size']:<5d} ablation={row['ablation']:<18s} "
            f"n={row['n']:<3d} {row['cell']}"
        )
    add("")
    add("== sharpness (top Hessian eigenvalue) by batch size ==")
    for row in tables["sharpness"]:
        add(
            f"  B={row['batch_size']:<5d} n={row['n']:<3d} "
            f"median={_fmt(row['median_sharpness'])} mean={_fmt(row['mean_sharpness'])} "
            f"std={_fmt(row['std_sharpness'])}"
        )
    add("")
    add("== time per epoch (seconds) ==")
    for row in tables["timing"]:
        add(
            f"  B={row['batch_size']:<5d} epochs={row['epochs_timed']:<5d} "
            f"mean={row['mean_epoch_seconds']:.4f}"
        )
    add("")
    if isinstance(bundle, str):
        add("== causal analysis failed ==")
        add(f"  {bundle}")
        add("")
    else:
        settings = bundle.settings
        add(f"== interventional distributions (bins={settings.bins}, alpha={settings.alpha}) ==")
        for mode, results in bundle.interventions.items():
            for res in results:
                dist = ", ".join(f"{p:.4f}" for p in res.distribution)
                add(f"  mode={mode:<11s} do(B={res.b}): [{dist}]  E[G]={res.expected:.4f}")
        add("")
        add(f"== average treatment effect: do(B={bundle.treat}) vs do(B={bundle.control}) ==")
        for mode, value in bundle.ate.items():
            add(f"  mode={mode:<11s} ATE={value * 100:+.2f} accuracy points")
        add("")
        add("== back-door diagnostic: outcome x treatment within complexity strata ==")
        for row in bundle.backdoor:
            if row.skipped:
                add(f"  stratum={row.stratum} n={row.n} skipped ({row.reason})")
            else:
                add(
                    f"  stratum={row.stratum} n={row.n} chi2={row.chi_square:.4f} "
                    f"dof={row.dof} p={row.p_value:.4g}"
                )
        add("")
    if isinstance(sig, str):
        add("== significance tests failed ==")
        add(f"  {sig}")
        add("")
    else:
        add(f"== significance: B={sig['treat']} vs B={sig['control']} ==")
        add(
            f"  mean diff = {sig['mean_diff'] * 100:+.2f} points "
            f"(n={sig['n_treat']}/{sig['n_control']})"
        )
        add(f"  Welch t = {_fmt(sig['welch_t'])}, df = {_fmt(sig['welch_df'])}, p = {_fmt(sig['welch_p'])}")
        add(
            f"  Wilcoxon W = {_fmt(sig['wilcoxon_w'])}, p = {_fmt(sig['wilcoxon_p'])} "
            f"({sig['wilcoxon_method']})"
        )
        add("")
    return "\n".join(lines) + "\n"


def emit_report(records_path, settings: AnalysisSettings, out_dir) -> dict[str, Path]:
    """Build every report artifact from a record file.

    Writes accuracy/sharpness/timing/interventions/ate/significance/backdoor
    CSVs, the analysis bundle JSON, and a plain-text report. Returns the
    paths written, keyed by artifact name.
    """
    records = sweep.read_records(records_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # the engine and the significance tests fail apart; the engine's error is named first
    try:
        bundle = analyze_records(records, settings)
    except ValueError as exc:
        bundle = str(exc)  # the body says why the causal sections are missing
    try:
        treat, control = treat_control([r.batch_size for r in usable_runs(records)], settings)
        sig = significance_result(records, treat, control)
    except ValueError as exc:
        sig = str(exc)

    paths: dict[str, Path] = {}

    def emit_csv(name: str, rows: list[dict]) -> None:
        paths[name] = out_dir / f"{name}.csv"
        _write_csv(paths[name], rows)

    tables = {
        "accuracy": accuracy_rows(records),
        "sharpness": sharpness_rows(records),
        "timing": timing_rows(records),
    }
    for name, rows in tables.items():
        emit_csv(name, rows)
    if isinstance(bundle, AnalysisBundle):
        emit_csv(
            "interventions",
            [
                {
                    "mode": mode,
                    "b": res.b,
                    "bin": i,
                    "probability": float(p),
                    "expected_outcome": res.expected,
                }
                for mode, results in bundle.interventions.items()
                for res in results
                for i, p in enumerate(res.distribution)
            ],
        )
        emit_csv(
            "ate",
            [
                {
                    "mode": mode,
                    "treat": bundle.treat,
                    "control": bundle.control,
                    "ate": value,
                }
                for mode, value in bundle.ate.items()
            ],
        )
        emit_csv("backdoor", [row.to_dict() for row in bundle.backdoor])
        paths["analysis"] = out_dir / "analysis.json"
        bundle.save(paths["analysis"])
    if isinstance(sig, dict):
        emit_csv("significance", [sig])

    meta = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "records": str(records_path),
        "n_records": len(records),
        "analysis_error": bundle if isinstance(bundle, str) else sig if isinstance(sig, str) else None,
    }
    body = render_report_body(tables, bundle, sig)
    paths["report"] = out_dir / "report.txt"
    paths["report"].write_text(
        "# metadata: " + json.dumps(meta) + "\n\n" + body
    )
    return paths
