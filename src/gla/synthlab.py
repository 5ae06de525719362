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

from .errors import DimensionError, InvalidInput
from .numerics import (
    LabelledLogits, LogitTable, ProbabilitySimplex, _freeze, argmax_rows, as_int, as_real, check_type, class_blocks,
    finite_vector, log_prior,
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
            elif check_type(getattr(self, name), ProbabilitySimplex, name).k != self.k:
                raise InvalidInput(f"{name} must have length k")


@dataclass(frozen=True, eq=False)
class SyntheticTask:
    """A task's config and the class means of its two views, each read as a
    K×dim matrix of finite numbers and kept as a read-only copy."""

    cfg: SyntheticTaskConfig
    means_view1: np.ndarray
    means_view2: np.ndarray

    def __post_init__(self):
        check_type(self.cfg, SyntheticTaskConfig, "cfg")
        shape = (self.cfg.k, self.cfg.dim)
        for name in ("means_view1", "means_view2"):
            means = finite_vector(getattr(self, name), name, 2)
            if means.shape != shape:
                raise DimensionError(f"{name} shape {means.shape} != (k, dim) {shape}")
            object.__setattr__(self, name, _freeze(means))


@dataclass(frozen=True, eq=False)
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
    check_type(cfg, SyntheticTaskConfig, "cfg")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7]))
    m1 = _class_means(cfg.k, cfg.dim, cfg.mean_separation, rng)
    m2 = _class_means(cfg.k, cfg.dim, cfg.mean_separation, rng)
    return SyntheticTask(cfg, m1, m2)


def _view(view) -> int:
    """`view` if it is the integer 1 or 2; a bool or a float is not a view."""
    if isinstance(view, bool) or not isinstance(view, (int, np.integer)) or view not in (1, 2):
        raise InvalidInput(f"view must be 1 or 2, got {view!r}")
    return view


def _log_likelihoods_into(
    x: np.ndarray, means: np.ndarray, half_sq_means: np.ndarray, scale: float | None, out: np.ndarray
) -> np.ndarray:
    """Write x·μᵀ - ‖x‖²/2 - ‖μ‖²/2 into the N x K array `out`, in place;
    `half_sq_means` is ‖μ‖²/2 per class, and a `scale` s says that the
    means are s times the first K standard basis vectors, so x·μᵀ is
    s·x[:, :K]."""
    if scale is None:
        np.einsum("nd,kd->nk", x, means, out=out)
    else:
        np.multiply(x[:, :means.shape[0]], scale, out=out)
    half_sq_x = np.einsum("nd,nd->n", x, x)
    half_sq_x /= 2.0
    out -= half_sq_x[:, None]
    out -= half_sq_means
    return out


def _means(task: SyntheticTask, view: int) -> tuple[np.ndarray, np.ndarray, float | None]:
    """The view's class means, ‖μ‖²/2 per class, and the scale s when the
    means are s times the first K standard basis vectors with s²/2 > 0
    (None otherwise), decided from the means' values."""
    means = task.means_view1 if view == 1 else task.means_view2
    half_sq_means = np.einsum("kd,kd->k", means, means) / 2.0
    k, dim = means.shape
    s = means[0, 0]
    on_basis = k <= dim and half_sq_means[0] > 0.0 and np.array_equal(means, s * np.eye(k, dim))
    return means, half_sq_means, (s if on_basis else None)


def class_log_likelihoods(task: SyntheticTask, x: np.ndarray, view: int) -> np.ndarray:
    """Exact Gaussian log-densities, one column per class, up to a constant.

    `x` is an N×dim array of finite numbers.  The squared distance is
    expanded, -‖x - μ‖²/2 = x·μᵀ - ‖x‖²/2 - ‖μ‖²/2, so memory is O(N·K): no
    N×K×D difference tensor is formed.  All three terms use numpy's own
    einsum loops rather than BLAS (`x @ means.T`): a BLAS product takes a
    different kernel for a single row than for a batch, and its last bits
    then depend on what else is in the batch.  Here a row's logits are the
    same bits whether it is scored alone or with any other rows, which
    label-shift faithfulness needs, and which lets the sampler score one
    class block at a time.

    When the means are s times the first K standard basis vectors, as
    `make_task` builds them for dim ≥ K, x·μᵀ is s·x[:, :K], one multiply,
    and it has the einsum's bits: each einsum entry is one rounded product
    plus exact zeros, which no summation order or FMA can change.  Only the
    sign of a zero product can differ (the einsum's sum starts at +0), and
    subtracting ‖μ‖²/2 erases it when that is positive, so the shortcut
    needs s²/2 > 0: at separation 0 the means take the einsum, as do all
    other means.
    """
    check_type(task, SyntheticTask, "task")
    means, half_sq_means, scale = _means(task, _view(view))
    x = finite_vector(x, "x", 2)
    if x.shape[1] != means.shape[1]:
        raise DimensionError(f"x width {x.shape[1]} != dim {means.shape[1]}")
    return _log_likelihoods_into(x, means, half_sq_means, scale, np.empty((x.shape[0], means.shape[0])))


def _class_scorer(task: SyntheticTask, seed: int, view: int, prior: ProbabilitySimplex):
    """The draw-and-score step of one view: `score(c, out)` draws one feature
    of class c per row of the n×K array `out`, on the class's own seed
    stream, and writes their scores into `out` in place, the view's class
    log-likelihoods plus log `prior`.  A row's bits do not depend on the
    other rows scored with it, so they are those of one whole-batch scoring.
    """
    means, half_sq_means, scale = _means(task, view)
    shift = log_prior(prior)
    stream = _VIEW_STREAMS[view - 1]

    def score(c: int, out: np.ndarray) -> np.ndarray:
        rng_c = np.random.default_rng(np.random.SeedSequence([seed, stream, c]))
        x = rng_c.standard_normal((out.shape[0], task.cfg.dim))
        x += means[c]
        _log_likelihoods_into(x, means, half_sq_means, scale, out)
        out += shift
        return out

    return score


def _sample_view(
    task: SyntheticTask, labels: np.ndarray, seed: int, view: int, prior: ProbabilitySimplex
) -> np.ndarray:
    """One view's scores of `labels`, as a new writable N×K array.

    One class at a time: its features are drawn and scored in place
    straight into its output rows when the labels are class-major (as in
    shots), or into a one-class buffer that is copied into its rows
    otherwise.  So the draw holds the output table and one class block,
    never an N×D feature array or an N×K temporary.
    """
    k = task.cfg.k
    score = _class_scorer(task, seed, view, prior)
    scores = np.empty((labels.size, k))
    order, bounds = class_blocks(labels, k)
    for c in np.flatnonzero(np.diff(bounds)).tolist():
        lo, hi = bounds[c], bounds[c + 1]
        if order is None:
            score(c, scores[lo:hi])
        else:
            scores[order[lo:hi]] = score(c, np.empty((hi - lo, k)))
    return scores


def _sample_labels(task: SyntheticTask, prior: ProbabilitySimplex, n: int, seed: int) -> np.ndarray:
    """Draw n labels from `prior` on the seed's label stream."""
    check_type(task, SyntheticTask, "task")
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
    labels = _sample_labels(task, check_type(prior, ProbabilitySimplex, "prior"), n, seed)
    zs = LogitTable(_sample_view(task, labels, seed, 1, task.cfg.pretrain_prior))
    return SyntheticBatch(zs, LogitTable(_sample_view(task, labels, seed, 2, task.cfg.source_prior)), labels)


def zero_shot_shots(task: SyntheticTask, n_per_class: int, seed: int) -> LabelledLogits:
    """The zero-shot view of `sample_shots(task, n_per_class, seed)`, bit for
    bit, without drawing the fine-tuned view.  Rows are class-major, and the
    batch at n is the first n rows of each class block of the batch at any
    larger count with the same seed, which the convergence study relies on
    to share one draw per trial."""
    check_type(task, SyntheticTask, "task")
    as_int(n_per_class, "n_per_class", 1)
    as_int(seed, "seed", 0)
    labels = np.repeat(np.arange(task.cfg.k, dtype=np.int64), n_per_class)
    return LabelledLogits(LogitTable(_sample_view(task, labels, seed, 1, task.cfg.pretrain_prior)), labels)


def sample_shots(task: SyntheticTask, n_per_class: int, seed: int) -> SyntheticBatch:
    """Draw exactly n_per_class examples of every class (balanced N-shot)."""
    zs = zero_shot_shots(task, n_per_class, seed)
    ft = LogitTable(_sample_view(task, zs.labels, seed, 2, task.cfg.source_prior))
    return SyntheticBatch(zs.logits, ft, zs.labels)


def _monte_carlo_risk(
    task: SyntheticTask, eval_prior: ProbabilitySimplex, views, n_mc: int, seed: int
) -> float:
    """Monte-Carlo risk of the exact Bayes classifier that sees `views`: the
    views are independent given the label, so it scores the sum of their
    log-posteriors under eval_prior less all but one copy of the log prior.
    The error count does not depend on row order, so each class's draws,
    as many as its label count, are scored one view block at a time and
    their errors counted: the risk holds a few class blocks, not an N×K
    table."""
    check_type(eval_prior, ProbabilitySimplex, "eval_prior")
    n_mc = as_int(n_mc, "n_mc", 1)
    counts = np.bincount(_sample_labels(task, eval_prior, n_mc, seed), minlength=task.cfg.k)
    scorers = [_class_scorer(task, seed, view, eval_prior) for view in views]
    excess_shift = (len(views) - 1) * log_prior(eval_prior)
    errors = 0
    for c in np.flatnonzero(counts).tolist():
        block = scorers[0](c, np.empty((counts[c], task.cfg.k)))
        for score in scorers[1:]:
            block += score(c, np.empty_like(block))
        block -= excess_shift
        errors += np.count_nonzero(argmax_rows(block) != c)
    return float(errors / n_mc)


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
    p11, p12 = as_real(p11, "p11", 0.0, 1.0), as_real(p12, "p12", 0.0, 1.0)
    if not p12 < p11:
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
