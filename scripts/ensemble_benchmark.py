#!/usr/bin/env python3
"""Compare ensembling strategies on skewed two-view synthetic tasks.

For each task, prints the top-1 error of the fine-tuned model, the zero-shot
model, their adjusted variants, the naive ensemble, the full combined model,
and the analytic Bayes floor, plus an alpha sweep around the equal mix.

Usage:
    python3 scripts/ensemble_benchmark.py --tasks 5
"""

import argparse

import numpy as np

from gla.ensemble import (
    AdjustmentSpec,
    alpha_mix,
    debias_zero_shot,
    gla_combine,
    logit_adjust,
    naive_ensemble,
)
from gla.evaluation import top1_error
from gla.numerics import ProbabilitySimplex, log_prior
from gla.synthlab import SyntheticTaskConfig, bayes_risk, make_task, sample_batch


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tasks", type=int, default=5)
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--separation", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    for i in range(args.tasks):
        cfg = SyntheticTaskConfig(
            k=args.k,
            dim=args.k,
            mean_separation=args.separation,
            pretrain_prior=ProbabilitySimplex.from_weights(rng.uniform(0.5, 3.0, args.k)),
            source_prior=ProbabilitySimplex.from_weights(rng.uniform(0.5, 3.0, args.k)),
            seed=1000 + i,
        )
        task = make_task(cfg)
        batch = sample_batch(task, ProbabilitySimplex.uniform(args.k), args.n, seed=2000 + i)
        pi_p = log_prior(cfg.pretrain_prior)
        pi_s = log_prior(cfg.source_prior)
        adj = AdjustmentSpec(pi_s=pi_s, pi_p=pi_p)

        errors = {
            "ft": top1_error(batch.ft_logits, batch.labels),
            "zs": top1_error(batch.zs_logits, batch.labels),
            "la": top1_error(logit_adjust(batch.ft_logits, pi_s), batch.labels),
            "debiased-zs": top1_error(debias_zero_shot(batch.zs_logits, pi_p), batch.labels),
            "naive-ens": top1_error(naive_ensemble(batch.ft_logits, batch.zs_logits), batch.labels),
            "combined": top1_error(gla_combine(batch.ft_logits, batch.zs_logits, adj), batch.labels),
            "bayes": bayes_risk(task, ProbabilitySimplex.uniform(args.k), args.n, seed=3000 + i),
        }
        print(f"task {i} (K={args.k}):")
        for name, err in errors.items():
            print(f"  {name:12s} {err:.4f}")
        sweep = []
        for alpha in np.linspace(0.0, 1.0, 11):
            mixed = alpha_mix(batch.ft_logits, batch.zs_logits, adj, float(alpha))
            sweep.append(top1_error(mixed, batch.labels))
        best = int(np.argmin(sweep))
        print(f"  alpha sweep: best at alpha={best / 10:.1f} (err {sweep[best]:.4f}), "
              f"alpha=0.5 err {sweep[5]:.4f}")


if __name__ == "__main__":
    main()
