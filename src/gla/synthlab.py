"""Synthetic label-shift laboratory.

Tasks are two-view Gaussian mixtures with analytically known priors.
Class-conditionals are unit-variance spherical Gaussians (a noise scale σ
would only rescale mean_separation to mean_separation / σ) with closed-form
log-densities, so the synthetic "model" logits are exact Bayes log-posteriors: the
zero-shot view embeds the pre-training prior additively and the fine-tuned
view embeds the source prior, which is exactly the structural bias the
estimators must recover.  The two views draw independent noise given the
label, so their predictions are conditionally independent by construction.

Per-class sub-seeding guarantees label-shift faithfulness: changing the
sampling prior changes only how many draws each class contributes, never
the class-conditional feature stream itself.  The same streams give the
prefix property: a seed's balanced n-shot batch is, bit for bit, the first
n rows of every class block of that seed's batch at any larger shot count,
which lets the convergence study share one draw per trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .numerics import (
    LabelledLogits,
    LogitTable,
    ProbabilitySimplex,
    as_int,
    as_real,
    class_blocks,
    log_prior,
)

_LABEL_STREAM = 0
_VIEW_STREAMS = (1, 2)


@dataclass(frozen=True)
class SyntheticTaskConfig:
    k: int = 2
    dim: int = 2
    mean_separation: float = 2.0
    pretrain_prior: ProbabilitySimplex | None = None
    source_prior: ProbabilitySimplex | None = None
    seed: int = 0

    def __post_init__(self):
        as_int(self.k, "k", 2)
        as_int(self.dim, "dim", 1)
        as_int(self.seed, "seed", 0)
        as_real(self.mean_separation, "mean_separation", 0.0)
        for name in ("pretrain_prior", "source_prior"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, ProbabilitySimplex.uniform(self.k))
            elif getattr(self, name).k != self.k:
                raise InvalidInput(f"{name} must have length k")


@dataclass(frozen=True)
class SyntheticTask:
    cfg: SyntheticTaskConfig
    means_view1: np.ndarray
    means_view2: np.ndarray


@dataclass(frozen=True)
class SyntheticBatch:
    zs_logits: LogitTable
    ft_logits: LogitTable
    labels: np.ndarray

    def labelled_zs(self) -> LabelledLogits:
        return LabelledLogits(self.zs_logits, self.labels)


def _class_means(k: int, dim: int, separation: float, rng: np.random.Generator) -> np.ndarray:
    if dim >= k:
        # scaled standard basis: every pair of means is `separation` apart
        base = np.zeros((k, dim))
        base[np.arange(k), np.arange(k)] = 1.0
    else:
        directions = rng.standard_normal((k, dim))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        base = directions / np.maximum(norms, 1e-12)
    return base * (separation / np.sqrt(2.0))


def make_task(cfg: SyntheticTaskConfig) -> SyntheticTask:
    """Deterministically derive class means for the two feature views."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7]))
    m1 = _class_means(cfg.k, cfg.dim, cfg.mean_separation, rng)
    m2 = _class_means(cfg.k, cfg.dim, cfg.mean_separation, rng)
    m1.flags.writeable = False
    m2.flags.writeable = False
    return SyntheticTask(cfg, m1, m2)


def _view(view) -> int:
    """`view` if it is the integer 1 or 2; a bool or a float is not a view."""
    if isinstance(view, bool) or not isinstance(view, (int, np.integer)) or view not in (1, 2):
        raise InvalidInput(f"view must be 1 or 2, got {view!r}")
    return view


def class_log_likelihoods(task: SyntheticTask, x: np.ndarray, view: int) -> np.ndarray:
    """Exact Gaussian log-densities, one column per class, up to a constant.

    The squared distance is expanded, -‖x - μ‖²/2 = x·μᵀ - ‖x‖²/2 - ‖μ‖²/2,
    so memory is O(N·K): no N×K×D difference tensor is formed.  All three
    terms use numpy's own einsum loops rather than BLAS (`x @ means.T`): a
    BLAS product takes a different kernel for a single row than for a
    batch, and its last bits then depend on what else is in the batch.
    Here a row's logits are the same bits whether it is scored alone or
    with any other rows, which label-shift faithfulness needs.
    """
    means = task.means_view1 if _view(view) == 1 else task.means_view2
    scores = np.einsum("nd,kd->nk", x, means)
    scores -= np.einsum("nd,nd->n", x, x)[:, None] / 2.0
    scores -= np.einsum("kd,kd->k", means, means) / 2.0
    return scores


def _sample_view(
    task: SyntheticTask, labels: np.ndarray, seed: int, view: int, prior: ProbabilitySimplex
) -> LogitTable:
    """Draw one view's features on its per-class seed streams and score them:
    the view's class log-likelihoods plus log `prior`, added in place."""
    cfg = task.cfg
    means = task.means_view1 if view == 1 else task.means_view2
    x = np.empty((labels.size, cfg.dim))
    order, bounds = class_blocks(labels, cfg.k)
    for c in range(cfg.k):
        idx = order[bounds[c]:bounds[c + 1]]
        if idx.size == 0:
            continue
        rng_c = np.random.default_rng(np.random.SeedSequence([seed, _VIEW_STREAMS[view - 1], c]))
        x[idx] = means[c] + rng_c.standard_normal((idx.size, cfg.dim))
    scores = class_log_likelihoods(task, x, view=view)
    scores += log_prior(prior)
    return LogitTable(scores)


def _sample_labels(task: SyntheticTask, prior: ProbabilitySimplex, n: int, seed: int) -> np.ndarray:
    """Draw n labels from `prior` on the seed's label stream."""
    as_int(n, "n", 1)
    if prior.k != task.cfg.k:
        raise InvalidInput("prior length must equal k")
    as_int(seed, "seed", 0)
    rng_labels = np.random.default_rng(np.random.SeedSequence([seed, _LABEL_STREAM]))
    return rng_labels.choice(task.cfg.k, size=n, p=prior.probs).astype(np.int64)


def sample_batch(
    task: SyntheticTask, prior: ProbabilitySimplex, n: int, seed: int
) -> SyntheticBatch:
    """Draw n examples with labels from `prior` and fixed class-conditionals."""
    labels = _sample_labels(task, prior, n, seed)
    zs = _sample_view(task, labels, seed, 1, task.cfg.pretrain_prior)
    return SyntheticBatch(zs, _sample_view(task, labels, seed, 2, task.cfg.source_prior), labels)


def zero_shot_shots(task: SyntheticTask, n_per_class: int, seed: int) -> LabelledLogits:
    """The zero-shot view of `sample_shots(task, n_per_class, seed)`, bit for
    bit, without drawing the fine-tuned view.  Rows are class-major, and the
    batch at n is the first n rows of each class block of the batch at any
    larger count with the same seed, which the convergence study relies on
    to share one draw per trial."""
    as_int(n_per_class, "n_per_class", 1)
    as_int(seed, "seed", 0)
    labels = np.repeat(np.arange(task.cfg.k, dtype=np.int64), n_per_class)
    return LabelledLogits(_sample_view(task, labels, seed, 1, task.cfg.pretrain_prior), labels)


def sample_shots(task: SyntheticTask, n_per_class: int, seed: int) -> SyntheticBatch:
    """Draw exactly n_per_class examples of every class (balanced N-shot)."""
    zs = zero_shot_shots(task, n_per_class, seed)
    ft = _sample_view(task, zs.labels, seed, 2, task.cfg.source_prior)
    return SyntheticBatch(zs.logits, ft, zs.labels)


def _monte_carlo_risk(
    task: SyntheticTask, eval_prior: ProbabilitySimplex, views, n_mc: int, seed: int
) -> float:
    """Monte-Carlo risk of the exact Bayes classifier that sees `views`: the
    views are independent given the label, so it scores the sum of their
    log-posteriors under eval_prior less all but one copy of the log prior."""
    labels = _sample_labels(task, eval_prior, as_int(n_mc, "n_mc", 1), seed)
    scores = sum(_sample_view(task, labels, seed, view, eval_prior).scores for view in views)
    preds = np.argmax(scores - (len(views) - 1) * log_prior(eval_prior), axis=1)
    return float(np.mean(preds != labels))


def bayes_risk(
    task: SyntheticTask, eval_prior: ProbabilitySimplex, n_mc: int = 100_000, seed: int = 0
) -> float:
    """Monte-Carlo risk of the exact two-view Bayes classifier under eval_prior.

    This is the floor any implemented ensemble is compared against.
    """
    return _monte_carlo_risk(task, eval_prior, (1, 2), n_mc, seed)


def single_view_bayes_risk(
    task: SyntheticTask,
    eval_prior: ProbabilitySimplex,
    view: int = 1,
    n_mc: int = 100_000,
    seed: int = 0,
) -> float:
    """Monte-Carlo risk of the Bayes classifier that sees only one view."""
    return _monte_carlo_risk(task, eval_prior, (_view(view),), n_mc, seed)


def binary_naive_bias(p11: float, p12: float) -> dict:
    """Closed-form bias of the naive estimator in the two-class case.

    q_true solves the fixed point q = q*p11 + (1-q)*p12; the naive estimate
    on balanced data is the plain column average (p11+p12)/2.  The error
    identity and its lower bound hold exactly under the stated assumption
    that both diagonal accuracies exceed 0.5.
    """
    if not (0.0 <= p12 < p11 <= 1.0):
        raise InvalidInput("need 0 <= p12 < p11 <= 1")
    if not (p11 > 0.5 and (1.0 - p12) > 0.5):
        raise InvalidInput("both diagonal accuracies must exceed 0.5")
    denom = 1.0 - p11 + p12
    if denom <= 0.0:
        raise InvalidInput("degenerate transition: p11=1 with p12=0 has no unique fixed point")
    q_true = p12 / denom
    if q_true < 0.5:
        # the analysis is stated for the majority class, q >= 1/2
        raise InvalidInput("implied true prior is below 1/2; swap the classes")
    q_naive = 0.5 * (p11 + p12)
    error = (q_true - 0.5) * (p11 - p12)
    lower_bound = (q_true - 0.5) ** 2 / q_true
    return {
        "q_true": q_true,
        "q_naive": q_naive,
        "error": error,
        "lower_bound": lower_bound,
    }
