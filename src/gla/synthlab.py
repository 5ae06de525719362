"""Synthetic label-shift laboratory.

Tasks are two-view Gaussian mixtures with analytically known priors.
Class-conditionals are spherical Gaussians with closed-form log-densities,
so the synthetic "model" logits are exact Bayes log-posteriors: the
zero-shot view embeds the pre-training prior additively and the fine-tuned
view embeds the source prior, which is exactly the structural bias the
estimators must recover.  The two views draw independent noise given the
label, so their predictions are conditionally independent by construction.

Per-class sub-seeding guarantees label-shift faithfulness: changing the
sampling prior changes only how many draws each class contributes, never
the class-conditional feature stream itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .numerics import LabelledLogits, LogitTable, ProbabilitySimplex, log_prior

_LABEL_STREAM = 0
_VIEW_STREAMS = (1, 2)


@dataclass(frozen=True)
class SyntheticTaskConfig:
    k: int = 2
    dim: int = 2
    mean_separation: float = 2.0
    noise_sigma: float = 1.0
    pretrain_prior: ProbabilitySimplex | None = None
    source_prior: ProbabilitySimplex | None = None
    seed: int = 0

    def __post_init__(self):
        if self.pretrain_prior is None:
            object.__setattr__(self, "pretrain_prior", ProbabilitySimplex.uniform(self.k))
        if self.source_prior is None:
            object.__setattr__(self, "source_prior", ProbabilitySimplex.uniform(self.k))
        if self.k < 2:
            raise InvalidInput("k must be >= 2")
        if self.dim < 1:
            raise InvalidInput("dim must be >= 1")
        if not self.noise_sigma > 0.0:
            raise InvalidInput("noise_sigma must be positive")
        if not self.mean_separation >= 0.0:
            raise InvalidInput("mean_separation must be nonnegative")
        if self.pretrain_prior.k != self.k or self.source_prior.k != self.k:
            raise InvalidInput("priors must have length k")
        if self.seed < 0:
            raise InvalidInput("seed must be nonnegative")


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

    def labelled_ft(self) -> LabelledLogits:
        return LabelledLogits(self.ft_logits, self.labels)


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


def class_log_likelihoods(task: SyntheticTask, x: np.ndarray, view: int) -> np.ndarray:
    """Exact Gaussian log-densities, one column per class, up to a constant."""
    means = task.means_view1 if view == 1 else task.means_view2
    diff = x[:, None, :] - means[None, :, :]
    return -np.sum(diff * diff, axis=2) / (2.0 * task.cfg.noise_sigma**2)


def _sample_features(
    task: SyntheticTask, labels: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw both views' features with per-class, per-view seed streams."""
    cfg = task.cfg
    n = labels.size
    xs = []
    for view, means, stream in (
        (1, task.means_view1, _VIEW_STREAMS[0]),
        (2, task.means_view2, _VIEW_STREAMS[1]),
    ):
        x = np.empty((n, cfg.dim))
        for c in range(cfg.k):
            idx = np.nonzero(labels == c)[0]
            if idx.size == 0:
                continue
            rng_c = np.random.default_rng(np.random.SeedSequence([seed, stream, c]))
            noise = rng_c.standard_normal((idx.size, cfg.dim))
            x[idx] = means[c] + cfg.noise_sigma * noise
        xs.append(x)
    return xs[0], xs[1]


def _batch_from_features(
    task: SyntheticTask, x1: np.ndarray, x2: np.ndarray, labels: np.ndarray
) -> SyntheticBatch:
    zs = class_log_likelihoods(task, x1, view=1) + log_prior(task.cfg.pretrain_prior)
    ft = class_log_likelihoods(task, x2, view=2) + log_prior(task.cfg.source_prior)
    return SyntheticBatch(LogitTable(zs), LogitTable(ft), labels)


def _sample_labels(task: SyntheticTask, prior: ProbabilitySimplex, n: int, seed: int) -> np.ndarray:
    """Draw n labels from `prior` on the seed's label stream."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    if prior.k != task.cfg.k:
        raise InvalidInput("prior length must equal k")
    if seed < 0:
        raise InvalidInput("seed must be nonnegative")
    rng_labels = np.random.default_rng(np.random.SeedSequence([seed, _LABEL_STREAM]))
    return rng_labels.choice(task.cfg.k, size=n, p=prior.probs).astype(np.int64)


def sample_batch(
    task: SyntheticTask, prior: ProbabilitySimplex, n: int, seed: int
) -> SyntheticBatch:
    """Draw n examples with labels from `prior` and fixed class-conditionals."""
    labels = _sample_labels(task, prior, n, seed)
    x1, x2 = _sample_features(task, labels, seed)
    return _batch_from_features(task, x1, x2, labels)


def sample_shots(task: SyntheticTask, n_per_class: int, seed: int) -> SyntheticBatch:
    """Draw exactly n_per_class examples of every class (balanced N-shot)."""
    if n_per_class < 1:
        raise InvalidInput("n_per_class must be >= 1")
    if seed < 0:
        raise InvalidInput("seed must be nonnegative")
    labels = np.repeat(np.arange(task.cfg.k, dtype=np.int64), n_per_class)
    x1, x2 = _sample_features(task, labels, seed)
    return _batch_from_features(task, x1, x2, labels)


def _monte_carlo_risk(
    task: SyntheticTask, eval_prior: ProbabilitySimplex, views, n_mc: int, seed: int
) -> float:
    """Monte-Carlo risk of the exact Bayes classifier that sees `views`."""
    labels = _sample_labels(task, eval_prior, n_mc, seed)
    xs = _sample_features(task, labels, seed)
    scores = sum(class_log_likelihoods(task, xs[view - 1], view=view) for view in views)
    preds = np.argmax(scores + log_prior(eval_prior), axis=1)
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
    if view not in (1, 2):
        raise InvalidInput("view must be 1 or 2")
    return _monte_carlo_risk(task, eval_prior, (view,), n_mc, seed)


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
