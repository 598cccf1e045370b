"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The heavy training sweep (criteria 5-7) is shared
through a module-scoped fixture and finishes in well under a minute on a
desktop CPU.
"""

import itertools
import json
import math

import numpy as np
import pytest

from batchlab import causal, data, models, sweep as sweepmod, training
from batchlab.analysis import (
    STRUCTURES,
    VAR_BATCH,
    VAR_COMPLEXITY,
    VAR_GENERALIZATION,
    VAR_NOISE,
    VAR_SHARPNESS,
    AnalysisSettings,
    analyze_records,
)
from batchlab.config import build_sweep_config
from batchlab.measures import gradient_noise, sharpness_lambda_max
from batchlab.report import render_report_body, significance_result
from batchlab.stats import welch_t_test, wilcoxon_signed_rank
from helpers import index_scheme, levels_scheme


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion} failed: {detail}"


# -- criteria 1-4: measurement and engine exactness ---------------------------------


def test_criterion_1_gradient_noise_scaling():
    rng = np.random.default_rng(5)
    spec = models.ModelSpec("logistic", 4, 3)
    params = rng.standard_normal(models.param_count(spec)) * 0.3
    x, y = rng.standard_normal((200, 4)), rng.integers(0, 3, 200)
    grads = models.per_sample_gradients(spec, params, x, y)
    empirical = {}
    for b in (4, 8, 16):
        idx = rng.integers(0, 200, size=(1000, b))  # with replacement
        empirical[b] = grads[idx].mean(axis=1).var(axis=0, ddof=1).mean()
    r48 = empirical[4] / empirical[8]
    r816 = empirical[8] / empirical[16]
    ok = abs(r48 - 2.0) <= 0.3 and abs(r816 - 2.0) <= 0.3
    verdict(
        "criterion-1 gradient-noise-scaling",
        ok,
        f"N(4)/N(8)={r48:.3f}, N(8)/N(16)={r816:.3f} (target 2 ± 15%)",
    )


def test_criterion_2_sharpness_oracle():
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        dim = 2 + trial % 9  # dims 2..10
        m = rng.standard_normal((dim, dim))
        a = (m + m.T) / 2
        expected = np.linalg.eigvalsh(a)[-1]
        lam, _ = sharpness_lambda_max(lambda v: a @ v, dim)
        worst = max(worst, abs(lam - expected) / abs(expected))
    ok = worst <= 1e-8
    verdict(
        "criterion-2 sharpness-oracle",
        ok,
        f"20 matrices (dim<=10), worst relative error {worst:.2e} (limit 1e-8)",
    )


def _random_tables(rng, mode):
    def table(head, tails, tail_shape, k_head):
        p = rng.random(tuple(tail_shape) + (k_head,)) + 0.05
        p /= p.sum(axis=-1, keepdims=True)
        return causal.ConditionalTable(head=head, tails=tuple(sorted(tails)), probs=p, alpha=0)

    k = 3
    if mode == "hypergraph":
        return [
            table(VAR_NOISE, (VAR_BATCH,), (2,), k),
            table(VAR_SHARPNESS, (VAR_NOISE,), (k,), k),
            table(VAR_COMPLEXITY, (VAR_NOISE, VAR_SHARPNESS), (k, k), k),
            table(VAR_GENERALIZATION, (VAR_COMPLEXITY,), (k,), k),
        ]
    return [
        table(VAR_NOISE, (VAR_BATCH,), (2,), k),
        table(VAR_SHARPNESS, (VAR_NOISE,), (k,), k),
        table(VAR_GENERALIZATION, (VAR_NOISE, VAR_SHARPNESS, VAR_COMPLEXITY), (k, k, k), k),
    ]


def _enumeration_oracle(tables, b_idx, mode):
    by_head = {t.head: t for t in tables}
    pn = by_head[VAR_NOISE].probs
    ps = by_head[VAR_SHARPNESS].probs
    k = pn.shape[-1]
    out = np.zeros(k)
    if mode == "hypergraph":
        pc = by_head[VAR_COMPLEXITY].probs
        pg = by_head[VAR_GENERALIZATION].probs
        for n, s, c, g in itertools.product(range(k), repeat=4):
            out[g] += pg[c, g] * pc[n, s, c] * ps[n, s] * pn[b_idx, n]
        return out
    pj = by_head[VAR_GENERALIZATION].probs  # tails: complexity, noise, sharpness
    for n, s, c, g in itertools.product(range(k), repeat=4):
        out[g] += pj[c, n, s, g] * ps[n, s] * pn[b_idx, n]
    return out / out.sum()


def test_criterion_3_do_calculus_exactness():
    rng = np.random.default_rng(31)
    worst = 0.0
    for trial in range(100):
        for mode in STRUCTURES:
            tables = _random_tables(rng, mode)
            b_idx = trial % 2
            res = causal.interventional_distribution(
                tables, index_scheme(2, 3), VAR_BATCH, b_idx, VAR_GENERALIZATION, mode
            )
            oracle = _enumeration_oracle(tables, b_idx, mode)
            worst = max(worst, 0.5 * np.abs(res.distribution - oracle).sum())
    ok = worst <= 1e-12
    verdict(
        "criterion-3 do-calculus-exactness",
        ok,
        f"100 random CPT sets x both modes, worst TV {worst:.2e} (limit 1e-12)",
    )


def test_criterion_4_scm_recovery():
    rng = np.random.default_rng(41)
    k = 3
    truth = _random_tables(rng, "hypergraph")
    n = 100_000
    cols = {VAR_BATCH: rng.integers(0, 2, n)}
    by_head = {t.head: t for t in truth}

    def draw(head):
        table = by_head[head]
        rows = table.probs[tuple(cols[t] for t in table.tails)]
        u = rng.random(n)
        return (u[:, None] > rows.cumsum(axis=1)).sum(axis=1)

    cols[VAR_NOISE] = draw(VAR_NOISE)
    cols[VAR_SHARPNESS] = draw(VAR_SHARPNESS)
    cols[VAR_COMPLEXITY] = draw(VAR_COMPLEXITY)
    cols[VAR_GENERALIZATION] = draw(VAR_GENERALIZATION)
    mediators = (VAR_NOISE, VAR_SHARPNESS, VAR_COMPLEXITY)
    scheme = {**levels_scheme(dict.fromkeys(mediators, k)), **index_scheme(2, k)}
    fitted = causal.fit_cpts(STRUCTURES["hypergraph"], scheme, cols, alpha=1.0)
    worst_tv = 0.0
    expectations = {}
    analytic_expectations = {}
    for b in (0, 1):
        est = causal.interventional_distribution(
            fitted, scheme, VAR_BATCH, b, VAR_GENERALIZATION, "hypergraph"
        )
        analytic = _enumeration_oracle(truth, b, "hypergraph")
        worst_tv = max(worst_tv, 0.5 * np.abs(est.distribution - analytic).sum())
        expectations[b] = est.expected
        analytic_expectations[b] = float(analytic @ np.arange(k))
    est_ate = expectations[0] - expectations[1]
    true_ate = analytic_expectations[0] - analytic_expectations[1]
    ok = worst_tv <= 0.02 and abs(est_ate - true_ate) <= 0.03
    verdict(
        "criterion-4 scm-recovery",
        ok,
        f"n=1e5: worst TV {worst_tv:.4f} (limit 0.02), "
        f"ATE error {abs(est_ate - true_ate):.4f} (limit 0.03)",
    )


# -- criteria 5-7: the directional training sweep -----------------------------------

SWEEP_SPEC = {
    "dataset": {
        "kind": "blobs",
        "n": 1200,
        "d": 12,
        "num_classes": 3,
        "separation": 3.0,
        "label_noise": 0.2,
        "seed": 7,
    },
    "model": {"kind": "mlp1", "hidden": 32},
    "batch_sizes": [16, 256],
    "seeds": 10,
    # budget chosen so the B=16 runs sit at their validation plateau while the
    # B=256 runs are still mid-fit; patience exceeds the budget so no run
    # early-stops and final states are the converged last-epoch parameters
    "train": {"epochs": 22, "lr": 1e-3, "optimizer": "adam", "early_stop_patience": 50},
    "ablations": [{"kind": "no_noise_averaging"}],
    "causal": {"bins": 3, "alpha": 1.0, "treat": 16, "control": 256},
}


@pytest.fixture(scope="module")
def sweep_records(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_sweep")
    config = build_sweep_config(dict(SWEEP_SPEC, out_dir=str(out)))
    return sweepmod.run_sweep(config)


def test_criterion_5_directional_reproduction(sweep_records):
    acc16 = [
        r.final.test_accuracy
        for r in sweep_records
        if r.ablation == "none" and r.batch_size == 16 and r.final
    ]
    acc256 = [
        r.final.test_accuracy
        for r in sweep_records
        if r.ablation == "none" and r.batch_size == 256 and r.final
    ]
    sig = significance_result(sweep_records, treat=16, control=256)
    bundle = analyze_records(sweep_records, AnalysisSettings(treat=16, control=256))
    mean_gap = float(np.mean(acc16) - np.mean(acc256))
    ok = (
        len(acc16) == len(acc256) == 10
        and mean_gap > 0.0
        and sig["welch_p"] < 0.05
        and bundle.ate["hypergraph"] > 0.0
    )
    verdict(
        "criterion-5 directional-reproduction",
        ok,
        f"acc(16)={np.mean(acc16):.4f} vs acc(256)={np.mean(acc256):.4f} "
        f"(gap {mean_gap * 100:+.2f} pts), Welch p={sig['welch_p']:.2e}, "
        f"ATE hypergraph={bundle.ate['hypergraph']:+.4f}, "
        f"algorithm1={bundle.ate['algorithm1']:+.4f}",
    )


def test_criterion_6_sharpness_direction(sweep_records):
    lam16 = [
        r.final.sharpness
        for r in sweep_records
        if r.ablation == "none" and r.batch_size == 16 and r.final
    ]
    lam256 = [
        r.final.sharpness
        for r in sweep_records
        if r.ablation == "none" and r.batch_size == 256 and r.final
    ]
    med16, med256 = float(np.median(lam16)), float(np.median(lam256))
    ok = med256 > med16
    verdict(
        "criterion-6 sharpness-direction",
        ok,
        f"median lambda_max: B=256 {med256:.3f} > B=16 {med16:.3f}",
    )


def test_criterion_7_no_noise_ablation_direction(sweep_records):
    plain = [
        r.final.test_accuracy
        for r in sweep_records
        if r.ablation == "none" and r.batch_size == 16 and r.final
    ]
    averaged = [
        r.final.test_accuracy
        for r in sweep_records
        if r.ablation == "no_noise_averaging" and r.batch_size == 16 and r.final
    ]
    ok = len(averaged) == 10 and float(np.mean(averaged)) < float(np.mean(plain))
    verdict(
        "criterion-7 no-noise-ablation",
        ok,
        f"gradient-averaged acc {np.mean(averaged):.4f} < unablated {np.mean(plain):.4f} at B=16",
    )


# -- criterion 8: statistical machinery -----------------------------------------


def test_criterion_8_statistical_machinery():
    wil = wilcoxon_signed_rank([1.0, 2.0, 3.0])
    welch = welch_t_test([2, 4, 6], [1, 2, 3])

    rng = np.random.default_rng(81)
    reps = 2000
    welch_rejections = 0
    wilcoxon_rejections = 0
    for _ in range(reps):
        xs = rng.standard_normal(10)
        ys = rng.standard_normal(10)
        if welch_t_test(xs, ys).p < 0.05:
            welch_rejections += 1
        diffs = rng.standard_normal(12)
        if wilcoxon_signed_rank(diffs).p < 0.05:
            wilcoxon_rejections += 1
    welch_rate = welch_rejections / reps
    wilcoxon_rate = wilcoxon_rejections / reps
    ok = (
        abs(wil.p - 0.25) < 1e-12
        and wil.w == 6.0
        and abs(welch.t - 1.549) <= 1e-3
        and abs(welch_rate - 0.05) <= 0.015
        and abs(wilcoxon_rate - 0.05) <= 0.015
    )
    verdict(
        "criterion-8 statistical-machinery",
        ok,
        f"exact Wilcoxon p={wil.p} (target 0.25), Welch t={welch.t:.4f} (target 1.549), "
        f"null rejection rates welch={welch_rate:.4f} wilcoxon={wilcoxon_rate:.4f} "
        f"(target 0.05 ± 0.015)",
    )


# -- criterion 9: the reported ATE is the plain difference of two do() answers ----


def test_criterion_9_point_value_arithmetic(sweep_records):
    settings = AnalysisSettings(treat=16, control=256)
    bundle = analyze_records(sweep_records, settings)
    lines = render_report_body(
        {"accuracy": [], "sharpness": [], "timing": []},
        bundle,
        significance_result(sweep_records, 16, 256),
    ).splitlines()
    checks = []
    for mode, results in bundle.interventions.items():
        expected = {res.b: res.expected for res in results}
        difference = expected[16] - expected[256]
        printed = f"  mode={mode:<11s} ATE={difference * 100:+.2f} accuracy points"
        checks.append((mode, difference, bundle.ate[mode] == difference and printed in lines))
    ok = sorted(bundle.ate) == sorted(STRUCTURES) and all(good for _, _, good in checks)
    detail = ", ".join(f"{mode} {d * 100:+.2f} points" for mode, d, _ in checks)
    verdict(
        "criterion-9 point-value-arithmetic",
        ok,
        f"E[G|do(16)] - E[G|do(256)]: {detail} (ATE and report line are that difference as-is)",
    )


# -- criterion 10: determinism and resumability -----------------------------------


def test_criterion_10_determinism_and_resumability(tmp_path):
    spec = {
        "dataset": {"kind": "blobs", "n": 200, "d": 4, "num_classes": 2, "seed": 1},
        "model": {"kind": "mlp1", "hidden": 4},
        "batch_sizes": [16, 32],
        "seeds": [0, 1],
        "train": {"epochs": 3},
    }
    config = build_sweep_config(dict(spec, out_dir=str(tmp_path / "serial")))
    serial_path = tmp_path / "serial" / "records.jsonl"
    first = sweepmod.run_sweep(config, records_path=serial_path)
    bytes_before = serial_path.read_bytes()
    rerun = sweepmod.run_sweep(config, records_path=serial_path)
    no_new = serial_path.read_bytes() == bytes_before and len(rerun) == len(first) == 4

    parallel_path = tmp_path / "parallel" / "records.jsonl"
    parallel = sweepmod.run_sweep(config, records_path=parallel_path, workers=4)
    canon = lambda rs: {json.dumps(r.canonical_dict(), sort_keys=True) for r in rs}
    set_equal = canon(first) == canon(parallel) and len(parallel) == 4
    ok = no_new and set_equal
    verdict(
        "criterion-10 determinism-resumability",
        ok,
        f"rerun appended 0 records ({no_new}), serial vs 4-worker record sets equal ({set_equal})",
    )
