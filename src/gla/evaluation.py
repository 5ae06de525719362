"""Risk metrics and study drivers: top-1 error, balanced error,
head/medium/tail breakdown keyed on an estimated log prior, and the
estimation-convergence study over shot counts."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, GlaError, InvalidInput, MissingClassError
from .numerics import LabelledLogits, LogitTable, argmax_rows, l1_distance
from .prior_estimation import (
    BoundQuery,
    estimate_prior_m1,
    estimate_prior_m2,
    estimate_prior_naive,
    m2_error_bound,
)
from .synthlab import SyntheticTaskConfig, make_task, sample_shots

ESTIMATORS = ("m1", "m2", "naive")


@dataclass(frozen=True)
class EvalReport:
    top1_accuracy: float
    balanced_accuracy: float
    per_class_accuracy: np.ndarray
    breakdown: dict  # {"head": acc, "medium": acc, "tail": acc}
    n_examples: int
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StudyRow:
    n: int
    mean_l1: float
    std: float
    bound: float
    n_ok: int


@dataclass(frozen=True)
class ConvergenceStudy:
    shots: list
    trials: int
    rows: list
    metadata: dict = field(default_factory=dict)


def _check_labels(logits: LogitTable, labels) -> np.ndarray:
    return LabelledLogits(logits, labels).labels


def top1_error(logits: LogitTable, labels) -> float:
    """Fraction of rows whose argmax (tie: lowest index) misses the label."""
    lab = _check_labels(logits, labels)
    preds = argmax_rows(logits.scores)
    return float(np.mean(preds != lab))


def per_class_accuracy(logits: LogitTable, labels) -> np.ndarray:
    lab = _check_labels(logits, labels)
    return _per_class_accuracy(argmax_rows(logits.scores), lab, logits.n_classes)


def _per_class_accuracy(preds: np.ndarray, lab: np.ndarray, k: int) -> np.ndarray:
    acc = np.empty(k)
    for c in range(k):
        mask = lab == c
        if not mask.any():
            raise MissingClassError(c)
        acc[c] = float(np.mean(preds[mask] == c))
    return acc


def balanced_error(logits: LogitTable, labels) -> float:
    """Unweighted mean over classes of the per-class top-1 error."""
    return float(1.0 - per_class_accuracy(logits, labels).mean())


def breakdown_groups(pi_p, k: int) -> dict:
    """Split class indices into head/medium/tail thirds by pi_p descending.

    Ties go to the lower class index; head and tail each take floor(K/3)
    classes and medium absorbs the remainder.
    """
    arr = np.asarray(pi_p, dtype=np.float64)
    if arr.ndim != 1 or arr.size != k:
        raise DimensionError(f"pi_p length {arr.size} != K {k}")
    order = np.argsort(-arr, kind="stable")
    third = k // 3
    head = order[:third] if third else order[:0]
    tail = order[k - third :] if third else order[:0]
    medium = order[third : k - third] if third else order
    return {
        "head": [int(c) for c in head],
        "medium": [int(c) for c in medium],
        "tail": [int(c) for c in tail],
    }


def breakdown_report(logits: LogitTable, labels, pi_p, metadata: dict | None = None) -> EvalReport:
    """Full evaluation report with head/medium/tail accuracies."""
    lab = _check_labels(logits, labels)
    preds = argmax_rows(logits.scores)
    acc = _per_class_accuracy(preds, lab, logits.n_classes)
    groups = breakdown_groups(pi_p, logits.n_classes)
    breakdown = {}
    for name, classes in groups.items():
        mask = np.isin(lab, classes)
        breakdown[name] = float(np.mean(preds[mask] == lab[mask])) if mask.any() else float("nan")
    meta = dict(metadata or {})
    meta.setdefault("groups", {name: classes for name, classes in groups.items()})
    return EvalReport(
        top1_accuracy=1.0 - float(np.mean(preds != lab)),
        balanced_accuracy=float(acc.mean()),
        per_class_accuracy=acc,
        breakdown=breakdown,
        n_examples=logits.n_examples,
        metadata=meta,
    )


def _estimate(estimator: str, data: LabelledLogits):
    if estimator == "m1":
        return estimate_prior_m1(data)
    if estimator == "m2":
        return estimate_prior_m2(data)
    if estimator == "naive":
        return estimate_prior_naive(data.logits)
    raise InvalidInput(f"unknown estimator {estimator!r}")


def run_convergence_study(
    task_cfg: SyntheticTaskConfig,
    estimator: str,
    shots,
    trials: int,
    delta: float = 0.05,
    base_seed: int = 0,
) -> ConvergenceStudy:
    """Measure l1 estimation error against the true pre-training prior as a
    function of the per-class shot count, alongside the theoretical bound.

    Each (N, trial) cell draws an independent balanced N-shot batch with
    seed base_seed + trial; estimator failures (a GlaError) are recorded as
    missing trials rather than aborting the study, and any other exception
    propagates.
    """
    shots = sorted(int(s) for s in shots)
    if not shots:
        raise InvalidInput("shots must be nonempty")
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    if estimator not in ESTIMATORS:
        raise InvalidInput(f"unknown estimator {estimator!r}")
    task = make_task(task_cfg)
    truth = task_cfg.pretrain_prior
    rows = []
    for n in shots:
        errors = []
        for trial in range(trials):
            batch = sample_shots(task, n, seed=base_seed + trial)
            try:
                est = _estimate(estimator, batch.labelled_zs())
            except GlaError:
                continue
            errors.append(l1_distance(est, truth))
        bound = m2_error_bound(BoundQuery(task_cfg.k, n, delta))
        if errors:
            arr = np.asarray(errors)
            rows.append(StudyRow(n, float(arr.mean()), float(arr.std()), bound, len(errors)))
        else:
            rows.append(StudyRow(n, float("nan"), float("nan"), bound, 0))
    return ConvergenceStudy(
        shots=shots,
        trials=trials,
        rows=rows,
        metadata={"estimator": estimator, "aggregate": "mean", "base_seed": base_seed},
    )


def loglog_slope(study: ConvergenceStudy) -> float:
    """Least-squares slope of log mean error against log N."""
    ns = np.array([r.n for r in study.rows if r.n_ok > 0 and r.mean_l1 > 0], dtype=np.float64)
    errs = np.array([r.mean_l1 for r in study.rows if r.n_ok > 0 and r.mean_l1 > 0])
    if ns.size < 2:
        raise InvalidInput("need at least two usable rows to fit a slope")
    return float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
