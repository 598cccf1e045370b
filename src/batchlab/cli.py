"""Command-line interface.

Subcommands: ``sweep`` (run the experiment grid), ``analyze`` (causal
analysis of a record file), ``report`` (full report emission), ``validate``
(plan a config's sweep without training, or load a record file). Exit codes:
0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import sweep
from .analysis import AnalysisSettings, analyze_records
from .config import parse_config
from .report import emit_report


def _causal_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bins", type=int, default=None, help="bins per continuous variable")
    parser.add_argument("--alpha", type=float, default=None, help="Laplace smoothing")
    parser.add_argument("--treat", type=int, default=None, help="treatment batch size")
    parser.add_argument("--control", type=int, default=None, help="control batch size")


def _settings_from_args(args) -> AnalysisSettings:
    """The given causal flags; ``AnalysisSettings`` holds the defaults."""
    given = {k: getattr(args, k) for k in ("bins", "alpha", "treat", "control")}
    return AnalysisSettings(**{k: v for k, v in given.items() if v is not None})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchlab",
        description="Train small models across batch sizes and causally analyze the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run all missing (batch size, seed, ablation) jobs")
    p_sweep.add_argument("config", help="JSON sweep config")
    p_sweep.add_argument("--records", default=None, help="record file (default <out>/records.jsonl)")
    p_sweep.add_argument("--workers", type=int, default=None, help="process pool size")
    p_sweep.add_argument("--out", default=None, help="output directory")

    p_analyze = sub.add_parser("analyze", help="causal analysis of a record file")
    p_analyze.add_argument("records")
    _causal_flags(p_analyze)
    p_analyze.add_argument("--out", default=None, help="write the analysis bundle JSON here")

    p_report = sub.add_parser("report", help="emit CSV tables and a text report")
    p_report.add_argument("records")
    p_report.add_argument("--out", required=True, help="output directory")
    _causal_flags(p_report)

    p_validate = sub.add_parser("validate", help="validate a config (.json) or record (.jsonl) file")
    p_validate.add_argument("path")
    return parser


def _cmd_sweep(args) -> int:
    config = parse_config(args.config)
    records_path = args.records or sweep.default_records_path(config, args.out)
    records = sweep.run_sweep(config, records_path=records_path, workers=args.workers)
    print(f"records: {len(records)} total in {records_path}")
    return 0


def _cmd_analyze(args) -> int:
    records = sweep.read_records(args.records)
    settings = _settings_from_args(args)
    bundle = analyze_records(records, settings)
    if args.out:
        bundle.save(args.out)
        print(f"analysis bundle written to {args.out}")
    summary = {
        "n_observations": bundle.n_observations,
        "treat": bundle.treat,
        "control": bundle.control,
        "ate": bundle.ate,
    }
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_report(args) -> int:
    settings = _settings_from_args(args)
    paths = emit_report(args.records, settings, args.out)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


def _cmd_validate(args) -> int:
    path = Path(args.path)
    if path.suffix == ".jsonl":
        records = sweep.read_records(path)
        print(f"ok: {len(records)} records")
    else:
        _, planned = sweep.plan_sweep(parse_config(path))
        print(f"ok: config valid, {len(planned)} runs planned")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "analyze": _cmd_analyze,
        "report": _cmd_report,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
