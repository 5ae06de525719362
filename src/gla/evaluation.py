"""Risk metrics and study drivers: top-1 error, balanced error,
head/medium/tail breakdown keyed on an estimated log prior, the
estimation-convergence study over shot counts, and the lab's comparison of
decision rules against the Bayes floor."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceWarning, DimensionError, GlaError, InvalidInput
from .numerics import (
    LabelledLogits, LogitTable, ProbabilitySimplex, argmax_rows, as_int, check_type, class_counts, finite_vector,
    l1_distance, log_prior,
)
from .prior_estimation import ESTIMATORS, estimate_prior_m1, estimate_prior_m2, estimate_prior_naive

# The study drivers import gla.synthlab and gla.ensemble when they run, so
# `gla evaluate`, which uses only the metrics, loads neither.
if TYPE_CHECKING:
    from .synthlab import SyntheticTaskConfig

RULE_ROWS = 10_000  # rule_errors scores each rule on ceil(RULE_ROWS / K) rows per class
RULES = (
    "zero-shot",
    "fine-tuned",
    "zero-shot-debiased",
    "fine-tuned-adjusted",
    "naive-ensemble",
    "gla",
    "gla-uniform-pi_p",
    "bayes-floor",
)


@dataclass(frozen=True, eq=False)
class EvalReport:
    top1_accuracy: float
    balanced_accuracy: float
    per_class_accuracy: np.ndarray
    breakdown: dict  # {"head": acc, "medium": acc, "tail": acc}
    n_examples: int
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StudyOptions:
    """The convergence study's one config shape: distinct shot counts per
    class (kept sorted), trials per count and the first trial's seed."""

    shots: list = field(default_factory=lambda: [25, 100, 400, 1600])
    trials: int = 5
    base_seed: int = 0

    def __post_init__(self):
        entries = enumerate(self.shots) if np.iterable(self.shots) else ()
        shots = [as_int(n, f"shots[{i}]", 1) for i, n in entries]
        for i, n in enumerate(shots):
            if n in shots[:i]:
                raise InvalidInput(f"shots[{i}] repeats {n}")
        shots.sort()
        if not shots:
            raise InvalidInput(f"shots must be a nonempty list of counts >= 1, got {self.shots!r}")
        as_int(self.trials, "trials", 1)
        object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "base_seed", as_int(self.base_seed, "base_seed", 0))


@dataclass(frozen=True)
class StudyRow:
    estimator: str
    n: int
    mean_l1: float
    std: float
    n_ok: int


@dataclass(frozen=True)
class ConvergenceStudy:
    shots: list
    trials: int
    rows: list
    metadata: dict = field(default_factory=dict)


def top1_error(logits: LogitTable, labels) -> float:
    """Fraction of rows whose argmax (tie: lowest index) misses the label."""
    lab = LabelledLogits(logits, labels).labels
    preds = argmax_rows(logits.scores)
    return float(np.mean(preds != lab))


def per_class_accuracy(logits: LogitTable, labels) -> np.ndarray:
    lab = LabelledLogits(logits, labels).labels
    hits, counts = _hits_and_counts(argmax_rows(logits.scores), lab, logits.n_classes)
    return hits / counts


def _hits_and_counts(preds: np.ndarray, lab: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Correct predictions and examples per class; every class must occur."""
    return np.bincount(lab[preds == lab], minlength=k), class_counts(lab, k)


def balanced_error(logits: LogitTable, labels) -> float:
    """Unweighted mean over classes of the per-class top-1 error."""
    return float(1.0 - per_class_accuracy(logits, labels).mean())


def breakdown_groups(pi_p, k: int) -> dict:
    """Split class indices into head/medium/tail thirds by pi_p descending.

    Ties go to the lower class index; head and tail each take floor(K/3)
    classes and medium absorbs the remainder.
    """
    arr = finite_vector(pi_p, "pi_p")
    if arr.size != as_int(k, "k"):
        raise DimensionError(f"pi_p length {arr.size} != K {k}")
    order = np.argsort(-arr, kind="stable")
    third = k // 3
    groups = order[:third], order[third:k - third], order[k - third:]
    return {name: group.tolist() for name, group in zip(("head", "medium", "tail"), groups)}


def breakdown_report(logits: LogitTable, labels, pi_p, metadata: dict | None = None) -> EvalReport:
    """Full evaluation report with head/medium/tail accuracies; a group with
    no classes (head and tail at K < 3) has accuracy NaN."""
    lab = LabelledLogits(logits, labels).labels
    preds = argmax_rows(logits.scores)
    hits, counts = _hits_and_counts(preds, lab, logits.n_classes)
    acc = hits / counts
    groups = breakdown_groups(pi_p, logits.n_classes)
    breakdown = {
        name: float(hits[classes].sum() / counts[classes].sum()) if classes else float("nan")
        for name, classes in groups.items()
    }
    meta = dict(metadata or {})
    meta.setdefault("groups", groups)
    return EvalReport(
        top1_accuracy=1.0 - float(np.mean(preds != lab)),
        balanced_accuracy=float(acc.mean()),
        per_class_accuracy=acc,
        breakdown=breakdown,
        n_examples=logits.n_examples,
        metadata=meta,
    )


def _estimate(estimator: str, data: LabelledLogits, start: ProbabilitySimplex | None):
    if estimator == "naive":
        return estimate_prior_naive(data.logits)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)  # an unconverged fit fails its trial
        return estimate_prior_m1(data, start=start) if estimator == "m1" else estimate_prior_m2(data)


def run_convergence_study(
    task_cfg: SyntheticTaskConfig,
    estimators,
    shots,
    trials: int,
    base_seed: int = 0,
) -> ConvergenceStudy:
    """Measure each named estimator's l1 error against the true pre-training
    prior as a function of the per-class shot count.

    `estimators` is one name from ESTIMATORS or a sequence of distinct
    names.  Each trial draws only the zero-shot view, the one view
    estimators read, of the balanced batch with seed base_seed + trial,
    once, at the largest shot count, and every estimator reads the same
    draws.  Every smaller count N takes the first N rows of each class
    block of that draw, which is zero_shot_shots(task, N, seed) bit for
    bit.  Method 1 starts each trial's fit at the trial's last successful
    Method 1 estimate at a smaller count (the uniform prior at first), so
    its rows above the smallest count can differ from fits started at the
    uniform prior by what its gradient tolerance allows (see
    estimate_prior_m1).  Rows are grouped by estimator in the order given,
    N ascending.  Estimator failures (a GlaError, or Method 1's
    ConvergenceWarning) are recorded as missing trials, and any other
    exception propagates.
    """
    from .synthlab import SyntheticTaskConfig, make_task, zero_shot_shots

    check_type(task_cfg, SyntheticTaskConfig, "task_cfg")
    opts = StudyOptions(shots, trials, base_seed)
    names = [estimators] if isinstance(estimators, str) else list(estimators if np.iterable(estimators) else ())
    if not names:
        raise InvalidInput(f"estimators must name one or more of {ESTIMATORS}, got {estimators!r}")
    for i, name in enumerate(names):
        if not isinstance(name, str) or name not in ESTIMATORS:
            raise InvalidInput(f"estimators[{i}] must be one of {ESTIMATORS}, got {name!r}")
        if name in names[:i]:
            raise InvalidInput(f"estimators[{i}] repeats {name!r}")
    task = make_task(task_cfg)
    truth = task_cfg.pretrain_prior
    k, n_max = task_cfg.k, opts.shots[-1]
    errors = {name: [[] for _ in opts.shots] for name in names}
    for trial in range(opts.trials):
        full = zero_shot_shots(task, n_max, seed=opts.base_seed + trial)
        blocks = full.logits.scores.reshape(k, n_max, k)
        start = None  # the trial's last Method 1 estimate
        for i, n in enumerate(opts.shots):
            labels = np.repeat(np.arange(k, dtype=np.int64), n)
            data = LabelledLogits(LogitTable(blocks[:, :n].reshape(k * n, k)), labels)
            for name in names:
                try:
                    est = _estimate(name, data, start)
                except (GlaError, ConvergenceWarning):
                    continue
                if name == "m1":
                    start = est
                errors[name][i].append(l1_distance(est, truth))
    rows = []
    for name, cells in errors.items():
        for n, cell in zip(opts.shots, cells):
            arr = np.asarray(cell)
            stats = (float(arr.mean()), float(arr.std())) if cell else (float("nan"), float("nan"))
            rows.append(StudyRow(name, n, *stats, len(cell)))
    return ConvergenceStudy(
        shots=opts.shots,
        trials=opts.trials,
        rows=rows,
        metadata={"estimators": names, "base_seed": opts.base_seed},
    )


def rule_errors(task_cfg: SyntheticTaskConfig, seed: int) -> dict:
    """Top-1 error of each rule in RULES, in that order, on the task's
    balanced target: the zero-shot and fine-tuned views, zs - pi_p,
    ft - pi_s (logit adjustment), the naive ensemble ft + zs, GLA
    ft + zs - pi_s - pi_p with the true pi_p and with a uniform pi_p, and
    the Bayes floor.

    The seven rules are scored on one balanced sample_shots batch of
    ceil(RULE_ROWS / K) rows per class with `seed`, each rule's table
    dropped before the next is made; the floor is bayes_risk under the
    balanced prior with as many draws, on seed + 1.
    """
    from .ensemble import AdjustmentSpec, debias_zero_shot, gla_combine, logit_adjust, naive_ensemble
    from .synthlab import SyntheticTaskConfig, bayes_risk, make_task, sample_shots

    check_type(task_cfg, SyntheticTaskConfig, "task_cfg")
    seed = as_int(seed, "seed", 0)
    task = make_task(task_cfg)
    k = task_cfg.k
    batch = sample_shots(task, -(-RULE_ROWS // k), seed)
    ft, zs = batch.ft_logits, batch.zs_logits
    pi_s, pi_p = log_prior(task_cfg.source_prior), log_prior(task_cfg.pretrain_prior)
    balanced = ProbabilitySimplex.uniform(k)
    rules = (
        lambda: zs,
        lambda: ft,
        lambda: debias_zero_shot(zs, pi_p),
        lambda: logit_adjust(ft, pi_s),
        lambda: naive_ensemble(ft, zs),
        lambda: gla_combine(ft, zs, AdjustmentSpec(pi_s=pi_s, pi_p=pi_p)),
        lambda: gla_combine(ft, zs, AdjustmentSpec(pi_s=pi_s, pi_p=log_prior(balanced))),
    )
    errors = [top1_error(rule(), batch.labels) for rule in rules]
    errors.append(bayes_risk(task, balanced, batch.labels.size, seed + 1))
    return dict(zip(RULES, errors))


def loglog_slope(study: ConvergenceStudy) -> float:
    """Least-squares slope of log mean error against log N, for a study of
    one estimator."""
    if len({r.estimator for r in study.rows}) > 1:
        raise InvalidInput("loglog_slope fits one estimator's rows, got a study of several")
    ns = np.array([r.n for r in study.rows if r.n_ok > 0 and r.mean_l1 > 0])
    errs = np.array([r.mean_l1 for r in study.rows if r.n_ok > 0 and r.mean_l1 > 0])
    if ns.size < 2:
        raise InvalidInput("need at least two usable rows to fit a slope")
    return float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
