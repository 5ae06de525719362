#!/usr/bin/env python3
"""Sweep the true pre-training prior on a binary synthetic task and record
how each estimator tracks it.

Writes a CSV with one row per grid point: the true prior and the mean
estimate of each method over the seeds.

Usage:
    python3 scripts/prior_recovery_grid.py --out recovery.csv
"""

import argparse
import csv

import numpy as np

from gla.numerics import ProbabilitySimplex
from gla.prior_estimation import (
    estimate_prior_m1,
    estimate_prior_m2,
    estimate_prior_naive,
)
from gla.synthlab import SyntheticTaskConfig, make_task, zero_shot_shots


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--shots", type=int, default=1000, help="samples per class")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--separation", type=float, default=2.0)
    args = ap.parse_args()

    rows = []
    for q1 in np.arange(0.1, 0.95, 0.1):
        q1 = round(float(q1), 1)
        est = {"m1": [], "m2": [], "naive": []}
        for seed in range(args.seeds):
            cfg = SyntheticTaskConfig(
                k=2,
                mean_separation=args.separation,
                pretrain_prior=ProbabilitySimplex([q1, 1.0 - q1]),
                seed=seed,
            )
            data = zero_shot_shots(make_task(cfg), args.shots, seed=100 + seed)
            est["m1"].append(estimate_prior_m1(data).probs[0])
            est["m2"].append(estimate_prior_m2(data).probs[0])
            est["naive"].append(estimate_prior_naive(data.logits).probs[0])
        rows.append(
            {
                "q_true": q1,
                "m1": float(np.mean(est["m1"])),
                "m2": float(np.mean(est["m2"])),
                "naive": float(np.mean(est["naive"])),
            }
        )
        print(rows[-1])

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["q_true", "m1", "m2", "naive"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
