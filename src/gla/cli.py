"""Command-line surface: simulate, estimate, ensemble, evaluate, study.

Exit codes: 0 success, 1 domain error (bad data, estimator failure),
2 usage or config error.

Each command imports the modules it runs when it runs, so a command pays
for no other command's modules.  `entry`, the `gla` command, first freezes
the collector's generations (gc.freeze), so neither the collections during
the run nor the interpreter's exit walk the import heap again.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

import numpy as np

from .errors import ConfigError, GlaError, InvalidInput
from .numerics import LOG_FLOOR, LabelledLogits, ProbabilitySimplex, as_int, as_real, log_prior
from .prior_estimation import (
    ESTIMATORS,
    build_transition_matrix,
    estimate_prior_m1,
    estimate_prior_naive,
    power_iterate,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _cmd_estimate(args) -> int:
    from .io_formats import PriorDocument, load_logits, save_prior

    data = load_logits(args.logits)
    if args.method != "naive" and not isinstance(data, LabelledLogits):
        raise InvalidInput(f"labels required for method {args.method}")
    if args.method == "m1":
        prior = estimate_prior_m1(data)
    elif args.method == "m2":
        prior, _, residual = power_iterate(build_transition_matrix(data))
        print(f"stationary solve: residual {residual:.3e}")
    else:
        table = data.logits if isinstance(data, LabelledLogits) else data
        prior = estimate_prior_naive(table)
    print("estimated prior:", " ".join(f"{p:.6f}" for p in prior.probs))
    save_prior(
        args.out,
        PriorDocument(
            prior=prior,
            estimator=args.method,
            source_split=args.split or os.path.basename(args.logits),
            seed=args.seed,
        ),
    )
    return EXIT_OK


def _cmd_ensemble(args) -> int:
    from . import ensemble as ens
    from .io_formats import load_logits, load_prior, save_logits

    ft = load_logits(args.ft)
    zs = load_logits(args.zs)
    labels = None
    if isinstance(ft, LabelledLogits) and isinstance(zs, LabelledLogits):
        if not np.array_equal(ft.labels, zs.labels):
            raise InvalidInput("ft and zs files disagree on labels")
        labels = ft.labels
    ft_table = ft.logits if isinstance(ft, LabelledLogits) else ft
    zs_table = zs.logits if isinstance(zs, LabelledLogits) else zs
    pi_p = log_prior(load_prior(args.prior_p).prior)
    pi_s = log_prior(load_prior(args.prior_s).prior)
    pi_t = log_prior(load_prior(args.prior_t).prior) if args.prior_t else None
    adj = ens.AdjustmentSpec(pi_s=pi_s, pi_p=pi_p, pi_t=pi_t)
    if args.alpha is not None:
        combined = ens.alpha_mix(ft_table, zs_table, adj, args.alpha)
    else:
        combined = ens.gla_combine(ft_table, zs_table, adj)
    save_logits(args.out, combined, labels)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    from .evaluation import breakdown_report
    from .io_formats import load_logits, load_prior, save_report

    data = load_logits(args.logits)
    if not isinstance(data, LabelledLogits):
        raise InvalidInput("evaluation requires a fully labelled logit file")
    metadata = {"split": os.path.basename(args.logits)}
    if args.prior_p:
        doc = load_prior(args.prior_p)
        pi_p = log_prior(doc.prior)
        metadata["breakdown_prior"] = f"{doc.estimator}:{args.prior_p}"
    else:
        pi_p = np.full(data.n_classes, -np.log(data.n_classes))
        metadata["breakdown_prior"] = "uniform"
    report = breakdown_report(data.logits, data.labels, pi_p, metadata)
    print(f"top1_accuracy: {report.top1_accuracy:.6f}")
    if args.balanced:
        print(f"balanced_accuracy: {report.balanced_accuracy:.6f}")
    if args.prior_p:
        b = report.breakdown
        print(
            f"head: {b['head']:.6f}  medium: {b['medium']:.6f}  tail: {b['tail']:.6f}"
        )
    save_report(args.report, report)
    return EXIT_OK


def _cmd_study(args) -> int:
    from .evaluation import rule_errors, run_convergence_study
    from .io_formats import load_run_config, save_study_csv

    if len(set(args.estimator)) < len(args.estimator):
        raise ConfigError(f"--estimator names an estimator twice: {' '.join(args.estimator)}")
    cfg = load_run_config(args.config)
    if cfg.task is None:
        raise ConfigError("study requires a 'task' section in the config")
    study = run_convergence_study(
        cfg.task,
        args.estimator,
        cfg.study.shots,
        cfg.study.trials,
        base_seed=cfg.study.base_seed,
    )
    save_study_csv(args.out, study)
    for row in study.rows:
        stats = f"mean_l1={row.mean_l1:.5f} std={row.std:.5f}"
        print(f"{row.estimator} N={row.n}: {stats} ok={row.n_ok}/{study.trials}")
    # seeds that no trial of the study uses
    for rule, err in rule_errors(cfg.task, cfg.study.base_seed + cfg.study.trials).items():
        print(f"{rule}: top1_err={err:.5f}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from .io_formats import load_run_config, save_logits
    from .synthlab import make_task, sample_batch

    if os.path.realpath(args.out_zs) == os.path.realpath(args.out_ft):
        raise ConfigError(f"--out-zs and --out-ft name the same file {args.out_ft!r}")
    cfg = load_run_config(args.config)
    if cfg.task is None:
        raise ConfigError("simulate requires a 'task' section in the config")
    task = make_task(cfg.task)
    priors = {
        "balanced": ProbabilitySimplex.uniform(cfg.task.k),
        "pretrain": cfg.task.pretrain_prior,
        "source": cfg.task.source_prior,
    }
    batch = sample_batch(task, priors[args.prior], args.n, args.seed)
    save_logits(args.out_zs, batch.zs_logits, batch.labels)
    save_logits(args.out_ft, batch.ft_logits, batch.labels)
    print(f"wrote {args.n} examples (labels ~ {args.prior}) to {args.out_zs}, {args.out_ft}")
    return EXIT_OK


def _checked(convert, rule, name, *bounds):
    """An argparse type: `convert` the text (a ValueError is argparse's own
    "invalid int value" or "invalid float value" usage error), then apply the
    argument `rule`, whose InvalidInput becomes a usage error with its message."""

    def parse(text):
        try:
            return rule(convert(text), name, *bounds)
        except InvalidInput as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = convert.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gla",
        description="Label-prior estimation, logit debiasing and ensembling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate the pre-training label prior")
    p.add_argument("--logits", required=True)
    p.add_argument("--method", required=True, choices=ESTIMATORS)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--split", help="name of the split recorded in the prior file")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("ensemble", help="combine fine-tuned and zero-shot logits")
    p.add_argument("--ft", required=True)
    p.add_argument("--zs", required=True)
    p.add_argument("--prior-p", required=True)
    p.add_argument("--prior-s", required=True)
    # alpha_mix has no target-prior term, so a mix takes no --prior-t
    mix = p.add_mutually_exclusive_group()
    mix.add_argument("--prior-t")
    mix.add_argument("--alpha", type=_checked(float, as_real, "alpha", 0.0, 1.0))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("evaluate", help="score a labelled logit file")
    p.add_argument("--logits", required=True)
    p.add_argument("--prior-p")
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("study", help="run an estimation-convergence study")
    p.add_argument("--config", required=True)
    p.add_argument("--estimator", required=True, nargs="+", choices=ESTIMATORS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("simulate", help="sample a synthetic task into logit files")
    p.add_argument("--config", required=True)
    p.add_argument("--out-zs", required=True)
    p.add_argument("--out-ft", required=True)
    p.add_argument("--n", type=_checked(int, as_int, "n", 1), default=1000)
    p.add_argument("--seed", type=_checked(int, as_int, "seed", 0), default=0)
    p.add_argument(
        "--prior", choices=["balanced", "pretrain", "source"], default="balanced"
    )
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    """Run the command in `argv` (sys.argv[1:] when None) and return its
    exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if "GLA_DEFAULT_FLOOR" in os.environ:
            raise ConfigError(f"GLA_DEFAULT_FLOOR is set, but the log floor is fixed at {LOG_FLOOR:g}")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GlaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry() -> int:
    """The `gla` command: main() on sys.argv, in a process that ends with
    it, so the heap is frozen first."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
