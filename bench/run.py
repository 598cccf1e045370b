"""Benchmark of batchlab's sweep, resume and report paths.

    python3 bench/run.py --workload blobs-small-batch --seed 1 --seconds 25 --trace 0

Runs one workload (see BENCHMARK.json and bench/README.md) in whole rounds
until ``--seconds`` have passed, checks every output of the program against
independent computations, and prints the metrics by name and unit, then one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, from untraced rounds. With
``--trace 1`` they are the per-layer ones, from traced rounds that alternate
with untraced rounds, the gap between the two giving the tracing overhead.

The program is driven only through the public functions of its modules, with
one sweep worker and one BLAS thread. Scratch files go under ``.bench_out/``
at the root of the checkout and are removed at exit, except the span dump of
a traced run.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # fixed BLAS thread count, inherited by child interpreters

import argparse
import copy
import gc
import hashlib
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

from batchlab import analysis, config, report, sweep  # noqa: E402

import checks  # noqa: E402
import records as generator  # noqa: E402
from tracing import Tracer  # noqa: E402

# Timed fresh interpreters per run, one after the first round past each fifth
# of the run. A start takes about 1.4 s: one after every round took 40% of a
# sweep workload's run from the rounds, whose times drift with the machine
# from one round to the next, so a run's medians steady with their number.
SETUP_STARTS = 5
IMPORTTIME_STARTS = 3
PARSE_REPEATS = 5
SHARPNESS_SAMPLES = 2  # power iterations checked against a dense eigensolver
STALE_WORDS = ("epochs", "fingerprint", "config", "mismatch")
# Resumes and reports per round. On the sweep workloads a resume or a report
# takes a few ms, so ten cost little next to the sweep; records-large's
# reports take about 0.4 s each.
SWEEP_REPEATS = 10
LARGE_REPEATS = 2


# -- workloads -------------------------------------------------------------------


# The sweep workloads analyse a handful of observations per round, so they bin
# in two: with three bins, tied accuracies often leave no equal-frequency
# binning and the report skips its analysis. records-large uses three.
#
# Their learning rates train far enough from the initialisation that the
# Hessian's largest positive eigenvalue dominates: nearer to it a run can end
# with a negative dominant eigenvalue, which the program marks degenerate. Over
# 360 blobs runs and 240 sbm runs, |lambda_min| / lambda_max stayed below 0.35
# and 0.28; at lr 1e-3 (blobs) and 0.01 (sbm) it reached 0.52 and 1.03.


def blobs_config(seed: int) -> dict:
    return {
        "dataset": {"kind": "blobs", "n": 1200, "d": 12, "num_classes": 3,
                    "separation": 3.0, "label_noise": 0.2, "seed": seed},
        "model": {"kind": "mlp1", "hidden": 32},
        "batch_sizes": [16, 32],
        "seeds": [2 * seed + i for i in range(2)],
        "train": {"epochs": 24, "lr": 0.003, "early_stop_patience": 25},
        "ablations": [{"kind": "sam", "rho": 0.05}, {"kind": "no_noise_averaging"}],
        "causal": {"bins": 2, "alpha": 1.0, "treat": 16, "control": 32},
    }


def sbm_config(seed: int) -> dict:
    return {
        "dataset": {"kind": "sbm", "n": 900, "num_classes": 3, "p_in": 0.04, "p_out": 0.004,
                    "d": 16, "feature_signal": 2.0, "seed": seed},
        "model": {"kind": "graph_diffusion", "hidden": 16, "diffusion_alpha": 0.3,
                  "diffusion_beta": 0.1, "diffusion_steps": 2},
        "batch_sizes": [64, 128],
        "seeds": [3 * seed + i for i in range(3)],
        "train": {"epochs": 6, "lr": 0.08, "lr_schedule": "scaled_inverse_B",
                  "lambda_causal": 0.1, "early_stop_patience": 7},
        "causal": {"bins": 2, "alpha": 1.0, "treat": 64, "control": 128},
    }


RECORDS_SWEEP_SEEDS = 3  # seeds of records-large's fresh sweep, next to its big file

SWEEPS = {"blobs-small-batch": blobs_config, "sbm-graph": sbm_config}
WORKLOADS = (*SWEEPS, "records-large")


def n_train(config_json: dict) -> int:
    fractions = config_json["dataset"].get("fractions", (0.6, 0.2, 0.2))
    return int(round(fractions[0] * config_json["dataset"]["n"]))


ROUNDS_PER_SEED = 1000  # round index stride between run seeds


def round_config(workload: str, seed: int, index: int) -> dict:
    """The sweep config of round ``index`` of a run with ``seed``.

    Every round draws its own dataset and run seeds, so a run's figures pool
    over many inputs: the cost of a run depends strongly on them (power
    iteration takes from about 30 to 400 iterations). records-large sweeps the
    grid of its big file's config with fewer seeds.
    """
    round_seed = seed * ROUNDS_PER_SEED + index
    if workload == "records-large":
        return generator.sweep_config(round_seed, RECORDS_SWEEP_SEEDS)
    return SWEEPS[workload](round_seed)


def probe_configs(workload: str) -> tuple[dict, dict]:
    """A fixed one-run sweep of the workload's model, and the same sweep with
    fewer epochs. Independent of the seed, so the probe's outcome is too."""
    base = SWEEPS[workload](0)
    base.update(batch_sizes=base["batch_sizes"][:1], seeds=[0], ablations=[])
    base["train"].update(epochs=2, early_stop_patience=3)
    stale = copy.deepcopy(base)
    stale["train"]["epochs"] = 1
    return base, stale


@dataclass
class Context:
    workload: str
    seed: int
    work: Path
    config_path: Path  # the first round's config, for set-up, footprint and parse timing
    settings: analysis.AnalysisSettings
    repeats: int  # resumes and reports per round
    ops_per_round: int
    big: Path | None = None  # records-large: the generated finished sweep, which it reports on
    probe_fixture: Path | None = None
    probe_stale: config.SweepConfig | None = None
    reference: dict | None = None  # records-large: outputs of the run's first report

    def sweep_config(self, index: int) -> tuple[dict, config.SweepConfig]:
        """Round ``index``'s config, as JSON and parsed."""
        obj = round_config(self.workload, self.seed, index)
        return obj, config.build_sweep_config(obj)


def prepare(workload: str, seed: int, work: Path) -> Context:
    first = round_config(workload, seed, 0)
    large = workload == "records-large"
    repeats = LARGE_REPEATS if large else SWEEP_REPEATS
    ops = len(checks.planned_runs(first)) + 2 * repeats + (0 if large else 1)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(first))
    ctx = Context(workload, seed, work, config_path, config.parse_config(config_path).causal,
                  repeats, ops)
    if large:
        ctx.big = work / "records-large.jsonl"
        generator.write_records(ctx.big, seed, generator.RECORDS_SEEDS)
    else:
        base, stale = probe_configs(workload)
        ctx.probe_fixture = work / "probe-fixture.jsonl"
        sweep.run_sweep(config.build_sweep_config(base), records_path=ctx.probe_fixture, workers=1)
        ctx.probe_stale = config.build_sweep_config(stale)
    return ctx


# -- rounds ----------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def check(self, fn, *args, **kwargs) -> None:
        try:
            fn(*args, **kwargs)
        except checks.CheckFailed as exc:
            self.problems.append(f"{fn.__name__}: {exc}")


def timed(fn, *args, **kwargs):
    gc.collect()
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - t0


def _read_lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def canonical_digest(recs) -> str | None:
    """sha256 over the records' ``canonical_dict()``s, so the records of two
    sweeps compare without holding both in memory."""
    if recs is None:
        return None
    h = hashlib.sha256()
    for r in recs:
        h.update(json.dumps(r.canonical_dict(), sort_keys=True).encode())
    return h.hexdigest()


def _sweep(samples, span, cfg, path, runs: int):
    with span("bench.sweep"):
        recs, dt = timed(sweep.run_sweep, cfg, records_path=path, workers=1)
    samples["runs"].append(runs)
    samples["sweep_s"].append(dt)
    return recs


def _resumes(ctx, tally, span, cfg, path, first, samples) -> None:
    before = path.read_bytes()
    for _ in range(ctx.repeats):
        with span("bench.resume"):
            again, dt = timed(sweep.run_sweep, cfg, records_path=path, workers=1)
        samples["resume_s"].append(dt)
        tally.check(checks.check_resume, before, path.read_bytes(), first, again)
        del again


def _report(ctx, span, records_path, j: int, samples) -> Path:
    out = ctx.work / f"report{j}"
    with span("bench.report"):
        _, dt = timed(report.emit_report, records_path, ctx.settings, out)
    samples["report_s"].append(dt)
    return out


def _same_report(out: Path, reference: dict) -> None:
    checks.require(checks.report_outputs(out) == reference, "repeated report differs from the first")


def stale_probe(fixture: Path, stale: config.SweepConfig, work: Path) -> bool:
    """Re-sweep a copy of ``fixture`` under ``stale``, a config with fewer
    epochs; True when the program rejects the mismatch by name or returns
    records of the new config."""
    path = work / "probe.jsonl"
    shutil.copyfile(fixture, path)
    try:
        got = sweep.run_sweep(stale, records_path=path, workers=1)
    except ValueError as exc:
        return any(word in str(exc).lower() for word in STALE_WORDS)
    epochs = stale.train.epochs
    return bool(got) and all(r.config["epochs"] == epochs and len(r.lr) == epochs for r in got)


def run_round(ctx: Context, tally: Tally, tracer: Tracer | None, index: int):
    """Fresh sweep into an empty file, resumes of it, reports, and on the
    sweep workloads the stale-resume probe. The reports read the sweep's file,
    or on records-large the big generated file.

    Returns the round's timing samples and the sweep's records.
    """
    span = tracer.span if tracer else lambda name: nullcontext()
    samples = defaultdict(list)
    obj, cfg = ctx.sweep_config(index)
    planned = len(checks.planned_runs(obj))
    path = ctx.work / "sweep.jsonl"
    path.unlink(missing_ok=True)
    tally.attempted += ctx.ops_per_round
    left = ctx.ops_per_round
    recs = None
    try:
        recs = _sweep(samples, span, cfg, path, planned)
        left -= planned
        lines = _read_lines(path)
        tally.check(checks.check_sweep_records, obj, lines, n_train(obj))
        by_key = sorted(lines, key=lambda d: (d["batch_size"], d["seed"], d["ablation"]))
        tally.check(checks.require, [r.to_dict() for r in recs] == by_key,
                    "sweep returned records that differ from its record file")
        _resumes(ctx, tally, span, cfg, path, recs, samples)
        left -= ctx.repeats
        if ctx.big is None:
            reported, reference = path, None
        else:  # the same file every round: checked once, in the warm-up round
            reported, reference = ctx.big, ctx.reference
        for j in range(ctx.repeats):
            out = _report(ctx, span, reported, j, samples)
            left -= 1
            if reference is None:
                tally.check(checks.check_report, out, _read_lines(reported), ctx.settings.to_dict(),
                            positive_ate=ctx.big is not None)
                reference = ctx.reference = checks.report_outputs(out)
            else:
                tally.check(_same_report, out, reference)
            shutil.rmtree(out)
        if ctx.probe_fixture is not None:
            with span("bench.probe"):
                ok = stale_probe(ctx.probe_fixture, ctx.probe_stale, ctx.work)
            left -= 1
            if not ok:
                tally.failed += 1
    except Exception as exc:  # noqa: BLE001 - a failed call fails the round's remaining operations
        tally.failed += left
        tally.errors.append(f"{ctx.workload}: {exc!r}")
    return samples, recs


# -- set-up and import costs ----------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_code(ctx: Context) -> str:
    """Import the CLI, parse the config and build its dataset; records-large
    times the import alone."""
    if ctx.workload == "records-large":
        return "import batchlab.cli"
    return ("import batchlab.cli\nfrom batchlab import config, sweep\n"
            f"sweep.build_dataset(config.parse_config({str(ctx.config_path)!r}))")


def setup_start(ctx: Context) -> float:
    """Wall time of one fresh interpreter running the set-up code."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", setup_code(ctx)], env=_child_env(), check=True,
                   stdin=subprocess.DEVNULL)
    return perf_counter() - t0


def footprint_code(ctx: Context) -> str:
    """One round's program calls, unchecked and untraced: the fresh sweep, a
    resume and a report; then print the interpreter's peak RSS in KiB."""
    fresh = ctx.work / "footprint.jsonl"
    return ("import resource\nfrom batchlab import config, report, sweep\n"
            f"cfg = config.parse_config({str(ctx.config_path)!r})\n"
            f"for _ in range(2):\n    sweep.run_sweep(cfg, records_path={str(fresh)!r}, workers=1)\n"
            f"report.emit_report({str(ctx.big or fresh)!r}, cfg.causal, {str(ctx.work / 'footprint')!r})\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")


def measure_footprint(ctx: Context) -> float:
    """Peak resident memory, in MB, of a fresh interpreter that runs one round
    of the program's calls, so the benchmark's own data and checks stay out of it."""
    proc = subprocess.run([sys.executable, "-c", footprint_code(ctx)], env=_child_env(), check=True,
                          capture_output=True, text=True, stdin=subprocess.DEVNULL)
    return int(proc.stdout.split()[-1]) / 1024.0


IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")


def measure_imports() -> tuple[float, float]:
    """(batchlab.cli cumulative import, total self time of scipy modules), in s,
    as medians of ``-X importtime`` starts after one warm-up start."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import batchlab.cli"]
    cli_s, scipy_s = [], []
    for i in range(IMPORTTIME_STARTS + 1):
        proc = subprocess.run(cmd, env=_child_env(), check=True, capture_output=True, text=True,
                              stdin=subprocess.DEVNULL)
        cli_us = scipy_us = 0
        for m in IMPORTTIME.finditer(proc.stderr):
            self_us, cum_us, module = int(m.group(1)), int(m.group(2)), m.group(3)
            if module == "batchlab.cli":
                cli_us = cum_us
            if module == "scipy" or module.startswith("scipy."):
                scipy_us += self_us
        if i:
            cli_s.append(cli_us / 1e6)
            scipy_s.append(scipy_us / 1e6)
    return statistics.median(cli_s), statistics.median(scipy_s)


def measure_parse(ctx: Context) -> float:
    return statistics.median(timed(config.parse_config, ctx.config_path)[1] for _ in range(PARSE_REPEATS))


# -- metrics ---------------------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _runs_per_s(samples) -> float:
    """Runs trained per second of sweep time, pooled over the run's sweeps."""
    return sum(samples["runs"]) / sum(samples["sweep_s"]) if samples["sweep_s"] else 0.0


def _rounds(ctx, tally, seconds: float):
    """Yield round indices from 1 until ``seconds`` have passed; round 0 is
    the untimed warm-up (caches, lazy imports)."""
    run_round(ctx, tally, None, 0)
    t0 = perf_counter()
    index = 1
    while True:
        yield index
        index += 1
        if perf_counter() - t0 >= seconds:
            return


def end_to_end(ctx: Context, tally: Tally, seconds: float) -> dict[str, float]:
    """Timed rounds, with set-up starts spread across the run: one after the
    first round past each fifth of ``seconds``. The footprint child, which
    imports and builds all that a set-up start does, is the untimed warm-up
    start."""
    peak_rss_mb = measure_footprint(ctx)
    samples = defaultdict(list)
    for index in _rounds(ctx, tally, seconds):
        if index == 1:
            t0 = perf_counter()
        got, _ = run_round(ctx, tally, None, index)
        for key, values in got.items():
            samples[key].extend(values)
        starts = len(samples["setup_s"])
        if starts < SETUP_STARTS and perf_counter() - t0 >= starts * seconds / SETUP_STARTS:
            samples["setup_s"].append(setup_start(ctx))
    while len(samples["setup_s"]) < SETUP_STARTS:
        samples["setup_s"].append(setup_start(ctx))
    return {
        "setup_s": _median(samples["setup_s"]),
        "runs_per_s": _runs_per_s(samples),
        "resume_s": _median(samples["resume_s"]),
        "report_s": _median(samples["report_s"]),
        "peak_rss_mb": peak_rss_mb,
    }


def _sharpness_calls(tracer: Tracer, start: int, stop: int):
    """(HVP oracle, dim, returned (value, iterations)) of each traced call."""
    for args, kwargs, result in tracer.results("measures.sharpness_lambda_max", start, stop):
        oracle = kwargs.get("hvp_oracle", args[0] if args else None)
        dim = kwargs.get("dim", args[1] if len(args) > 1 else None)
        yield oracle, dim, result


def _sharpness_checks(tally: Tally, tracer: Tracer, start: int, stop: int) -> None:
    for oracle, dim, result in list(_sharpness_calls(tracer, start, stop))[:SHARPNESS_SAMPLES]:
        if callable(oracle) and isinstance(dim, int) and isinstance(result, tuple):
            tally.check(checks.check_sharpness, oracle, dim, result[0])
        else:
            tally.problems.append("sharpness_lambda_max: call or result has an unknown shape")


def _iters(tracer: Tracer, start: int, stop: int) -> int:
    return sum(r[1] for _, _, r in _sharpness_calls(tracer, start, stop)
               if isinstance(r, tuple) and len(r) == 2 and isinstance(r[1], int))


def per_layer(ctx: Context, tally: Tally, seconds: float, names) -> tuple[dict, Tracer]:
    imports = measure_imports()
    parse_s = measure_parse(ctx)
    tracer = Tracer()
    untraced, traced = defaultdict(list), defaultdict(list)
    rounds, iters, builds = [], [], []
    for index in _rounds(ctx, tally, seconds):
        got, recs = run_round(ctx, tally, None, index)
        for key, values in got.items():
            untraced[key].extend(values)
        timed_canonical = canonical_digest(recs)
        del recs
        start = len(tracer.spans)
        with tracer.installed():
            got, recs = run_round(ctx, tally, tracer, index)
        stop = len(tracer.spans)
        for key, values in got.items():
            traced[key].extend(values)
        tally.check(checks.check_same_canonical, timed_canonical, canonical_digest(recs))
        del recs
        if not rounds:
            _sharpness_checks(tally, tracer, start, stop)
        rounds.append(tracer.summarize(start, stop))
        iters.append(_iters(tracer, start, stop))
        builds.extend(s.end - s.start for s in tracer.spans[start:stop] if s.name == "sweep.build_dataset")

    def overhead(key: str, measure, higher_is_better: bool) -> dict:
        base, with_trace = measure(untraced), measure(traced)
        gap = (base - with_trace) if higher_is_better else (with_trace - base)
        return {"untraced": base, "traced": with_trace, "overhead_pct": 100.0 * gap / base if base else 0.0}

    special = {
        "cli.import_s": imports[0],
        "cli.import_scipy_s": imports[1],
        "config.parse_s": parse_s,
        "data.build_s": _median(builds),
        "measures.sharpness_lambda_max.iters": _median(iters),
        "trace.spans_per_round": _median(sum(st.calls for st in r.values()) for r in rounds),
    }
    for key, measure, higher in (
        ("runs_per_s", _runs_per_s, True),
        ("report_s", lambda samples: _median(samples["report_s"]), False),
    ):
        for part, value in overhead(key, measure, higher).items():
            special[f"trace.{key}.{part}"] = value
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        func, stat = name.rsplit(".", 1)
        per_round = []
        for r in rounds:
            st = r.get(func)
            if st is None:
                per_round.append(0.0)
            elif stat == "us_per_call":
                per_round.append(1e6 * st.self_s / st.calls)
            else:
                per_round.append(float(getattr(st, stat)))
        values[name] = _median(per_round)
    return values, tracer


# -- entry point -------------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="batchlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    spec = load_spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        ctx = prepare(args.workload, args.seed, work)
        tally = Tally()
        if args.trace:
            values, tracer = per_layer(ctx, tally, args.seconds, list(units))
            dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(dump)
            print(f"spans: {len(tracer.spans)} written to {dump}")
            for name in sorted(tracer.absent):
                print(f"absent: {name} (its metrics read 0)")
        else:
            values = end_to_end(ctx, tally, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for error in tally.errors:
        print(f"operation failed: {error}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: attempted {tally.attempted}, failed {tally.failed}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
