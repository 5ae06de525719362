"""Risk metrics and study drivers: top-1 error, balanced error,
head/medium/tail breakdown keyed on an estimated log prior, and the
estimation-convergence study over shot counts."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceWarning, DimensionError, GlaError, InvalidInput, MissingClassError
from .numerics import LabelledLogits, LogitTable, argmax_rows, as_int, l1_distance
from .prior_estimation import (
    estimate_prior_m1,
    estimate_prior_m2,
    estimate_prior_naive,
    m2_error_bound,
)
from .synthlab import SyntheticTaskConfig, make_task, zero_shot_shots

ESTIMATORS = ("m1", "m2", "naive")  # the one list of prior estimator names
STUDY_DELTA = 0.05  # the study reports the M2 bound at confidence 1 - STUDY_DELTA


@dataclass(frozen=True)
class EvalReport:
    top1_accuracy: float
    balanced_accuracy: float
    per_class_accuracy: np.ndarray
    breakdown: dict  # {"head": acc, "medium": acc, "tail": acc}
    n_examples: int
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StudyOptions:
    """The convergence study's one config shape: shot counts per class (kept
    sorted), trials per count and the first trial's seed."""

    shots: list = field(default_factory=lambda: [25, 100, 400, 1600])
    trials: int = 5
    base_seed: int = 0

    def __post_init__(self):
        entries = enumerate(self.shots) if np.iterable(self.shots) else ()
        shots = sorted(as_int(n, f"shots[{i}]", 1) for i, n in entries)
        if not shots:
            raise InvalidInput(f"shots must be a nonempty list of counts >= 1, got {self.shots!r}")
        as_int(self.trials, "trials", 1)
        object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "base_seed", as_int(self.base_seed, "base_seed", 0))


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


def top1_error(logits: LogitTable, labels) -> float:
    """Fraction of rows whose argmax (tie: lowest index) misses the label."""
    lab = LabelledLogits(logits, labels).labels
    preds = argmax_rows(logits.scores)
    return float(np.mean(preds != lab))


def per_class_accuracy(logits: LogitTable, labels) -> np.ndarray:
    lab = LabelledLogits(logits, labels).labels
    hits, counts = _class_counts(argmax_rows(logits.scores), lab, logits.n_classes)
    return hits / counts


def _class_counts(preds: np.ndarray, lab: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Correct predictions and examples per class; every class must occur."""
    counts = np.bincount(lab, minlength=k)
    if not counts.all():
        raise MissingClassError(int(np.flatnonzero(counts == 0)[0]))
    return np.bincount(lab[preds == lab], minlength=k), counts


def balanced_error(logits: LogitTable, labels) -> float:
    """Unweighted mean over classes of the per-class top-1 error."""
    return float(1.0 - per_class_accuracy(logits, labels).mean())


def breakdown_groups(pi_p, k: int) -> dict:
    """Split class indices into head/medium/tail thirds by pi_p descending.

    Ties go to the lower class index; head and tail each take floor(K/3)
    classes and medium absorbs the remainder.
    """
    arr = np.asarray(pi_p, dtype=np.float64)
    if arr.ndim != 1 or arr.size != as_int(k, "k"):
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
    """Full evaluation report with head/medium/tail accuracies; a group with
    no classes (head and tail at K < 3) has accuracy NaN."""
    lab = LabelledLogits(logits, labels).labels
    preds = argmax_rows(logits.scores)
    hits, counts = _class_counts(preds, lab, logits.n_classes)
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


def _estimate(estimator: str, data: LabelledLogits):
    if estimator == "naive":
        return estimate_prior_naive(data.logits)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)  # an unconverged fit fails its trial
        return estimate_prior_m1(data) if estimator == "m1" else estimate_prior_m2(data)


def run_convergence_study(
    task_cfg: SyntheticTaskConfig,
    estimator: str,
    shots,
    trials: int,
    base_seed: int = 0,
) -> ConvergenceStudy:
    """Measure l1 estimation error against the true pre-training prior as a
    function of the per-class shot count, alongside the theoretical bound
    at confidence 1 - STUDY_DELTA.

    Each trial draws only the zero-shot view, the one view estimators read,
    of the balanced batch with seed base_seed + trial, once, at the largest
    shot count.  Every smaller count N takes the first N rows of each class
    block of that draw, which is zero_shot_shots(task, N, seed) bit for bit.
    Estimator failures (a GlaError, or Method 1's ConvergenceWarning) are
    recorded as missing trials, and any other exception propagates.
    """
    opts = StudyOptions(shots, trials, base_seed)
    if estimator not in ESTIMATORS:
        raise InvalidInput(f"unknown estimator {estimator!r}")
    task = make_task(task_cfg)
    truth = task_cfg.pretrain_prior
    k, n_max = task_cfg.k, opts.shots[-1]
    errors = [[] for _ in opts.shots]
    for trial in range(opts.trials):
        full = zero_shot_shots(task, n_max, seed=opts.base_seed + trial)
        blocks = full.logits.scores.reshape(k, n_max, k)
        for n, cell_errors in zip(opts.shots, errors):
            labels = np.repeat(np.arange(k, dtype=np.int64), n)
            data = LabelledLogits(LogitTable(blocks[:, :n].reshape(k * n, k)), labels)
            try:
                est = _estimate(estimator, data)
            except (GlaError, ConvergenceWarning):
                continue
            cell_errors.append(l1_distance(est, truth))
    rows = []
    for n, cell_errors in zip(opts.shots, errors):
        bound = m2_error_bound(k, n, STUDY_DELTA)
        if cell_errors:
            arr = np.asarray(cell_errors)
            rows.append(StudyRow(n, float(arr.mean()), float(arr.std()), bound, len(cell_errors)))
        else:
            rows.append(StudyRow(n, float("nan"), float("nan"), bound, 0))
    return ConvergenceStudy(
        shots=opts.shots,
        trials=opts.trials,
        rows=rows,
        metadata={"estimator": estimator, "aggregate": "mean", "base_seed": opts.base_seed},
    )


def loglog_slope(study: ConvergenceStudy) -> float:
    """Least-squares slope of log mean error against log N."""
    ns = np.array([r.n for r in study.rows if r.n_ok > 0 and r.mean_l1 > 0], dtype=np.float64)
    errs = np.array([r.mean_l1 for r in study.rows if r.n_ok > 0 and r.mean_l1 > 0])
    if ns.size < 2:
        raise InvalidInput("need at least two usable rows to fit a slope")
    return float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
