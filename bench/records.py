"""Seeded generator of a large v1 record file for the ``records-large`` workload.

The records are drawn from a structural model with the same chain the causal
engine assumes (batch size -> gradient noise -> sharpness -> complexity ->
generalization), with a built-in advantage for small batches: smaller batches
get more gradient noise and flatter minima, hence a larger complexity index,
hence higher test accuracy. The file is written line by line in the documented
``schema_version`` 1 format, without going through the program's record
classes, so the input stays fixed when the program's own schema moves on.

The file is a finished sweep of ``sweep_config(seed, seeds)``: every
(batch size, seed) run of that grid is present once, unablated. About one run
in a hundred is degenerate (``final`` is null), as a diverged run would be.

Regenerate the file a benchmark run with ``--seed 1`` reads with::

    python3 bench/records.py --seed 1 --out records.jsonl
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass

import numpy as np

BATCH_SIZES = (16, 32, 64, 128, 256, 512)
EPOCHS = 20
LR = 0.01
N_POINTS = 300
N_TRAIN = 180  # round(0.6 * N_POINTS), the default train split
DEGENERATE_RATE = 0.01
RECORDS_SEEDS = 700  # runs per batch size in the records-large file


def sweep_config(seed: int, seeds: int) -> dict:
    """The sweep config whose grid the generated file completes."""
    return {
        "dataset": {
            "kind": "blobs",
            "n": N_POINTS,
            "d": 4,
            "num_classes": 3,
            "separation": 3.0,
            "label_noise": 0.1,
            "seed": seed,
        },
        "model": {"kind": "logistic"},
        "batch_sizes": list(BATCH_SIZES),
        "seeds": seeds,
        "train": {"epochs": EPOCHS, "lr": LR, "early_stop_patience": EPOCHS + 1},
        "causal": {"bins": 3, "alpha": 1.0, "treat": BATCH_SIZES[0], "control": BATCH_SIZES[-1]},
    }


def _train_config_echo(config: dict, batch_size: int, run_seed: int) -> dict:
    """``TrainConfig.to_dict()`` of one run of ``config``, as documented for v1."""
    return {
        "model": {
            "kind": "logistic",
            "input_dim": config["dataset"]["d"],
            "num_classes": config["dataset"]["num_classes"],
            "hidden_dim": 0,
            "diffusion_alpha": 0.0,
            "diffusion_beta": 0.0,
            "diffusion_steps": 2,
        },
        "batch_size": batch_size,
        "epochs": EPOCHS,
        "lr": LR,
        "lr_schedule": "fixed",
        "optimizer": "adam",
        "lambda_causal": 0.0,
        "ablation": {"kind": "none", "rho": 0.05, "l1": 0.0, "l2": 0.0},
        "batch_schedule": {"kind": "fixed", "start": None, "factor": 2, "every_epochs": 10},
        "early_stop_patience": config["train"]["early_stop_patience"],
        "seed": run_seed,
    }


@dataclass(frozen=True)
class Draw:
    """The structural values of one generated run (None when degenerate)."""

    batch_size: int
    seed: int
    grad_noise: float | None
    sharpness: float | None
    complexity: float | None
    test_accuracy: float | None


def draw(seed: int, seeds: int) -> list[Draw]:
    """The structural model's values, in file order (batch size, then seed)."""
    rng = np.random.default_rng([seed, 0x5EED])
    out = []
    for b in BATCH_SIZES:
        e_noise = rng.standard_normal(seeds)
        e_sharp = rng.standard_normal(seeds)
        e_acc = rng.standard_normal(seeds)
        degenerate = rng.random(seeds) < DEGENERATE_RATE
        log_noise = np.log(0.05 / b) + 0.3 * e_noise
        sharpness = 0.5 * np.exp(-0.35 * (log_noise - np.log(0.05 / 16)) + 0.2 * e_sharp)
        for s in range(seeds):
            if degenerate[s]:
                out.append(Draw(b, s, None, None, None, None))
                continue
            noise = float(np.exp(log_noise[s]))
            sharp = float(sharpness[s])
            comp = 1.0 / sharp + float(np.log(noise))
            acc = float(np.clip(0.85 + 0.002 * (comp + 6.0) + 0.02 * e_acc[s], 0.0, 1.0))
            out.append(Draw(b, s, noise, sharp, comp, acc))
    return out


def record_line(config: dict, d: Draw, rng: np.random.Generator) -> str:
    """One v1 record line for a generated run."""
    eff_b = min(d.batch_size, N_TRAIN)
    decay = np.exp(-np.arange(EPOCHS) / 6.0)
    train_loss = 0.4 + 0.7 * decay + 0.01 * rng.standard_normal(EPOCHS)
    test_loss = train_loss + 0.05 + 0.01 * rng.standard_normal(EPOCHS)
    final_acc = d.test_accuracy if d.test_accuracy is not None else 0.34
    test_acc = np.clip(final_acc - 0.4 * decay + 0.01 * rng.standard_normal(EPOCHS), 0.0, 1.0)
    epoch_wall = 0.002 + 0.001 * rng.random(EPOCHS)
    if d.grad_noise is None:
        final = None
        status, reason = "degenerate", "non-finite loss"
    else:
        final = {
            "grad_noise": d.grad_noise,
            "sharpness": d.sharpness,
            "complexity": d.complexity,
            "test_accuracy": d.test_accuracy,
            "gen_gap": float(test_loss[-1] - train_loss[-1]),
            "batch_size": d.batch_size,
            "epoch": EPOCHS - 1,
        }
        status, reason = "completed", None
    dataset = config["dataset"]
    record = {
        "schema_version": 1,
        "run_id": f"b{d.batch_size}-s{d.seed}-none",
        "dataset_id": (
            f"blobs-n{dataset['n']}-d{dataset['d']}-k{dataset['num_classes']}-seed{dataset['seed']}"
        ),
        "model_kind": "logistic",
        "batch_size": d.batch_size,
        "seed": d.seed,
        "ablation": "none",
        "config": _train_config_echo(config, d.batch_size, d.seed),
        "train_loss": train_loss.tolist(),
        "test_loss": test_loss.tolist(),
        "test_acc": test_acc.tolist(),
        "lr": [LR] * EPOCHS,
        "effective_batch": [eff_b] * EPOCHS,
        "epoch_wall_seconds": epoch_wall.tolist(),
        "final": final,
        "status": status,
        "degenerate_reason": reason,
        "wall_seconds": float(epoch_wall.sum() + 0.01),
    }
    return json.dumps(record)


def write_records(path, seed: int, seeds: int) -> list[Draw]:
    """Write the finished sweep file for ``sweep_config(seed, seeds)``; return its draws."""
    config = sweep_config(seed, seeds)
    draws = draw(seed, seeds)
    rng = np.random.default_rng([seed, 0x5E71E5])
    with open(path, "w") as fh:
        for d in draws:
            fh.write(record_line(config, d, rng) + "\n")
    return draws


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    draws = write_records(args.out, args.seed, RECORDS_SEEDS)
    print(f"wrote {len(draws)} records to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
