"""Correctness checks on the program's outputs, computed apart from the program.

Every check raises ``CheckFailed`` with a message naming what is wrong. The
checks compare against independent computations (numpy, scipy, nested-loop
enumeration) or required properties, never against a stored copy of earlier
output. Records are handled as plain dicts in the documented v1 format.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import scipy.stats

SERIES = ("train_loss", "test_loss", "test_acc", "lr", "effective_batch", "epoch_wall_seconds")
SCALED_LR_REFERENCE_B = 16

# Variable names of the causal engine, and its two factor sets (tails sorted).
B, N, S, C, G = "batch_size", "grad_noise", "sharpness", "complexity", "generalization"
FACTORS = {
    "hypergraph": ((N, (B,)), (S, (N,)), (C, (N, S)), (G, (C,))),
    "algorithm1": ((N, (B,)), (S, (N,)), (G, (C, N, S))),
}


class CheckFailed(Exception):
    """A program output failed a correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a, b, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


# -- sweeps ----------------------------------------------------------------------


def planned_runs(config: dict) -> set[tuple[int, int, str]]:
    seeds = config["seeds"]
    seeds = range(seeds) if isinstance(seeds, int) else seeds
    tags = ["none"] + [a["kind"] for a in config.get("ablations", [])]
    return {(b, s, t) for b in config["batch_sizes"] for s in seeds for t in tags}


def expected_lr(train: dict, batch_size: int) -> float:
    """The learning rate of every epoch under the fixed and scaled_inverse_B schedules."""
    lr = train.get("lr", 1e-3)
    if train.get("lr_schedule", "fixed") == "scaled_inverse_B":
        return lr * SCALED_LR_REFERENCE_B / batch_size
    return lr


def check_sweep_records(config: dict, records: list[dict], n_train: int) -> None:
    """The finished sweep holds each planned run once, measured and consistent.

    ``config`` is the sweep config as JSON; it must use a fixed batch schedule,
    the fixed or scaled_inverse_B learning-rate schedule, and an early-stop
    patience longer than the run, so every run trains every epoch.
    """
    keys = [(r["batch_size"], r["seed"], r["ablation"]) for r in records]
    require(len(keys) == len(set(keys)), f"duplicate runs: {len(keys) - len(set(keys))}")
    planned = planned_runs(config)
    require(set(keys) == planned, f"missing {sorted(planned - set(keys))[:3]}, "
            f"unplanned {sorted(set(keys) - planned)[:3]}")
    epochs = config["train"]["epochs"]
    for r in records:
        run = r["run_id"]
        final = r["final"]
        require(r["status"] != "degenerate" and final is not None,
                f"{run}: degenerate ({r['degenerate_reason']})")
        recomputed = 1.0 / final["sharpness"] + math.log(final["grad_noise"])
        require(_close(final["complexity"], recomputed, rel=1e-12),
                f"{run}: complexity {final['complexity']!r} != 1/S + ln N = {recomputed!r}")
        require(0.0 <= final["test_accuracy"] <= 1.0,
                f"{run}: test_accuracy {final['test_accuracy']!r} outside [0, 1]")
        for name in SERIES:
            require(len(r[name]) == epochs, f"{run}: {name} has {len(r[name])} epochs, not {epochs}")
        b = r["batch_size"]
        require(r["effective_batch"] == [min(b, n_train)] * epochs,
                f"{run}: effective_batch {r['effective_batch'][:3]}... != {min(b, n_train)}")
        for e, lr in enumerate(r["lr"]):
            want = expected_lr(config["train"], b)
            require(_close(lr, want, rel=1e-12), f"{run}: lr[{e}] = {lr!r}, config gives {want!r}")


def check_resume(before: bytes, after: bytes, first: list, resumed: list) -> None:
    """Resume trained nothing: the record file is byte-identical, and the
    returned records equal the first sweep's."""
    require(before == after, "resume changed the record file")
    require(resumed == first, "resume returned different records")


def check_same_canonical(timed: str | None, traced: str | None) -> None:
    """Two sweeps of one config agree outside the wall-clock fields (compared
    by digests of their ``canonical_dict()`` records)."""
    require(timed is not None and timed == traced, "traced sweep's records differ from the timed sweep's")


def check_sharpness(hvp_oracle, dim: int, value: float) -> None:
    """Power iteration's result equals the top-magnitude eigenvalue of the
    dense matrix the same HVP oracle gives on every basis vector."""
    dense = np.empty((dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        dense[:, i] = hvp_oracle(e)
    eigs = np.linalg.eigvalsh((dense + dense.T) / 2.0)
    want = float(eigs[np.argmax(np.abs(eigs))])
    require(_close(value, want, rel=1e-3, abs_tol=1e-6),
            f"sharpness {value!r} != dense eigvalsh {want!r}")


# -- reports -----------------------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _float_or_none(text: str):
    return None if text == "" else float(text)


def _bin_of(value: float, cuts) -> int:
    """Bin index; a value equal to a cut point goes to the lower bin."""
    return sum(1 for c in cuts if value > c)


def _enumerate(tables: dict, mode: str, b: int, k: dict) -> np.ndarray:
    """P(G | do(B = level index b)) by nested loops over every mediator bin."""
    dist = np.zeros(k[G])
    for n, s, c in product(range(k[N]), range(k[S]), range(k[C])):
        weight = tables[N][b, n] * tables[S][n, s]
        if mode == "hypergraph":
            dist += weight * tables[C][n, s, c] * tables[G][c]
        else:
            dist += weight * tables[G][c, n, s]
    return dist / dist.sum()


def check_report(out_dir, records: list[dict], settings: dict, positive_ate: bool = False) -> None:
    """Report tables, analysis bundle and tests agree with independent sums.

    ``records`` are the record file's lines as dicts; ``settings`` holds
    bins, alpha, treat and control.
    """
    out = Path(out_dir)
    usable = [r for r in records if r["final"] is not None]

    groups: dict[tuple[int, str], list[float]] = {}
    for r in usable:
        groups.setdefault((r["batch_size"], r["ablation"]), []).append(r["final"]["test_accuracy"])
    rows = _read_csv(out / "accuracy.csv")
    require(len(rows) == len(groups), f"accuracy.csv has {len(rows)} rows, want {len(groups)}")
    for row, key in zip(rows, sorted(groups)):
        accs = np.asarray(groups[key])
        require((int(row["batch_size"]), row["ablation"]) == key, f"accuracy.csv row {row} != {key}")
        require(int(row["n"]) == accs.size, f"accuracy.csv {key}: n {row['n']} != {accs.size}")
        require(_close(row["mean_accuracy"], accs.mean()), f"accuracy.csv {key}: mean differs")
        std = _float_or_none(row["std_accuracy"])
        if accs.size >= 2:
            require(std is not None and _close(std, accs.std(ddof=1)), f"accuracy.csv {key}: std differs")

    obs = [r for r in usable if r["ablation"] == "none"]
    cols = {
        B: [r["batch_size"] for r in obs],
        N: [r["final"]["grad_noise"] for r in obs],
        S: [r["final"]["sharpness"] for r in obs],
        C: [r["final"]["complexity"] for r in obs],
        G: [r["final"]["test_accuracy"] for r in obs],
    }
    k, cuts = {}, {}
    for var in (N, S, C, G):
        k[var] = max(1, min(settings["bins"], len(set(cols[var]))))
        cuts[var] = np.quantile(np.asarray(cols[var], dtype=np.float64),
                                [i / k[var] for i in range(1, k[var])]).tolist()
    if not all(a < b for var in cuts for a, b in zip(cuts[var], cuts[var][1:])):
        # Tied values leave no equal-frequency binning: the report must say so
        # instead of analysing.
        meta = json.loads((out / "report.txt").read_text().split("\n", 1)[0].split(": ", 1)[1])
        require(bool(meta["analysis_error"]) and not (out / "analysis.json").exists(),
                "analysis ran although tied values leave no equal-frequency binning")
        return
    require((out / "analysis.json").exists(), "report has no analysis bundle")
    bundle = json.loads((out / "analysis.json").read_text())
    require(bundle["n_observations"] == len(obs),
            f"analysis n_observations {bundle['n_observations']} != {len(obs)}")
    scheme = bundle["scheme"]
    levels = sorted(set(cols[B]))
    require(scheme[B]["levels"] == levels, f"batch levels {scheme[B]['levels']} != {levels}")

    bins = {B: [levels.index(v) for v in cols[B]]}
    k[B] = len(levels)
    reps = {}
    for var in (N, S, C, G):
        got = scheme[var].get("cuts", [])
        require(len(got) == len(cuts[var]) and all(_close(a, b) for a, b in zip(got, cuts[var])),
                f"{var}: bin cuts {got} != np.quantile {cuts[var]}")
        bins[var] = [_bin_of(v, cuts[var]) for v in cols[var]]
        members = [[v for v, i in zip(cols[var], bins[var]) if i == j] for j in range(k[var])]
        # An empty bin's representative is the program's convention; it must
        # at least lie within the observed range.
        lo, hi = min(cols[var]), max(cols[var])
        program = scheme[var]["representatives"]
        reps[var] = [float(np.mean(m)) if m else program[j] for j, m in enumerate(members)]
        for j, m in enumerate(members):
            if m:
                require(_close(program[j], reps[var][j]), f"{var}: bin {j} representative differs")
            else:
                require(lo <= program[j] <= hi, f"{var}: empty bin {j} representative out of range")

    alpha = settings["alpha"]
    for mode, factors in FACTORS.items():
        tables = {}
        for head, tails in factors:
            counts = np.zeros(tuple(k[t] for t in tails) + (k[head],))
            for i in range(len(obs)):
                counts[tuple(bins[t][i] for t in tails) + (bins[head][i],)] += 1.0
            totals = counts.sum(axis=-1, keepdims=True)
            tables[head] = (counts + alpha) / (totals + alpha * k[head])
        fitted = {t["head"]: t for t in bundle["tables"][mode]}
        require(set(fitted) == set(tables), f"{mode}: tables for {sorted(fitted)}")
        for head, tails in factors:
            t = fitted[head]
            require(tuple(t["tails"]) == tails, f"{mode}: {head} conditions on {t['tails']}")
            got = np.asarray(t["probs"]).reshape(t["shape"])
            require(got.shape == tables[head].shape and np.allclose(got, tables[head], rtol=1e-12, atol=0),
                    f"{mode}: table for {head} differs from Laplace-smoothed counts")

        expected = {}
        for res in bundle["interventions"][mode]:
            dist = _enumerate(tables, mode, levels.index(res["b"]), k)
            require(np.allclose(res["distribution"], dist, rtol=1e-9, atol=1e-12),
                    f"{mode}: do(B={res['b']}) {res['distribution']} != enumeration {dist.tolist()}")
            expected[res["b"]] = float(dist @ np.asarray(reps[G]))
            require(_close(res["expected"], expected[res["b"]]),
                    f"{mode}: E[G | do(B={res['b']})] {res['expected']} != {expected[res['b']]}")
        require(sorted(expected) == levels, f"{mode}: interventions for {sorted(expected)}")
        ate = expected[settings["treat"]] - expected[settings["control"]]
        require(_close(bundle["ate"][mode], ate), f"{mode}: ATE {bundle['ate'][mode]} != {ate}")
        csv_ate = [row for row in _read_csv(out / "ate.csv") if row["mode"] == mode]
        require(len(csv_ate) == 1 and _close(csv_ate[0]["ate"], ate), f"{mode}: ate.csv differs")
    if positive_ate:
        require(bundle["ate"]["hypergraph"] > 0,
                f"hypergraph ATE {bundle['ate']['hypergraph']} lacks the built-in positive sign")

    _check_significance(out, usable, settings["treat"], settings["control"])


def _check_significance(out: Path, usable: list[dict], treat: int, control: int) -> None:
    by_seed: dict[int, dict[int, float]] = {}
    for r in usable:
        if r["ablation"] == "none" and r["batch_size"] in (treat, control):
            by_seed.setdefault(r["seed"], {})[r["batch_size"]] = r["final"]["test_accuracy"]
    xs = [v[treat] for v in by_seed.values() if treat in v]
    ys = [v[control] for v in by_seed.values() if control in v]
    (sig,) = _read_csv(out / "significance.csv")
    require(_close(sig["mean_diff"], np.mean(xs) - np.mean(ys)), "significance mean_diff differs")
    if np.var(xs) == 0.0 and np.var(ys) == 0.0:
        # Documented degenerate case: signed infinity and p = 0 when the means
        # differ, t = 0 and p = 1 when they are equal.
        diff = xs[0] - ys[0]
        want_t, want_p = (math.copysign(math.inf, diff), 0.0) if diff else (0.0, 1.0)
    else:
        with warnings.catch_warnings():  # nearly identical samples warn; the values still compare
            warnings.simplefilter("ignore", RuntimeWarning)
            welch = scipy.stats.ttest_ind(xs, ys, equal_var=False)
        want_t, want_p = welch.statistic, welch.pvalue
    require(float(sig["welch_t"]) == want_t or _close(sig["welch_t"], want_t, rel=1e-9),
            f"Welch t {sig['welch_t']} differs from {want_t}")
    require(_close(sig["welch_p"], want_p, rel=1e-6, abs_tol=1e-300),
            f"Welch p {sig['welch_p']} differs from {want_p}")

    diffs = np.asarray([v[treat] - v[control] for v in by_seed.values() if treat in v and control in v])
    nonzero = np.abs(diffs[diffs != 0])
    # scipy's exact method does not handle ties; its normal approximation
    # (with tie and continuity corrections) matches the program's above n = 20.
    if nonzero.size > 20:
        method = "approx"
    elif nonzero.size and np.unique(nonzero).size == nonzero.size:
        method = "exact"
    else:
        return
    w_plus = scipy.stats.wilcoxon(diffs, alternative="greater", method=method).statistic
    two_sided = scipy.stats.wilcoxon(diffs, method=method, correction=True)
    require(_close(sig["wilcoxon_w"], w_plus), f"Wilcoxon W {sig['wilcoxon_w']} != scipy {w_plus}")
    require(_close(sig["wilcoxon_p"], two_sided.pvalue, rel=1e-6, abs_tol=1e-300),
            f"Wilcoxon p {sig['wilcoxon_p']} != scipy {two_sided.pvalue}")


def report_outputs(out_dir) -> dict[str, bytes]:
    """Every report file's bytes, without report.txt's metadata line."""
    out = {}
    for path in sorted(Path(out_dir).iterdir()):
        data = path.read_bytes()
        if path.name == "report.txt":
            data = data.split(b"\n", 1)[1]
        out[path.name] = data
    return out
