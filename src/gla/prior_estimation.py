"""Estimators for the hidden pre-training label prior q.

Three routes are provided:

* a minimization of the risk of the debiased zero-shot scorer in log-prior
  space, where the problem is convex and unconstrained ("method 1"),
* the stationary distribution of the class-averaged prediction matrix,
  solved exactly by one linear solve ("method 2"),
* the naive average of predicted probabilities, kept as a provably
  biased baseline.

Also computes the Hoeffding-style theoretical error bound for method 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IdentifiabilityError, InvalidInput, MissingClassError, OptimizationError
from .numerics import (
    LabelledLogits,
    LogitTable,
    ProbabilitySimplex,
    softmax_matrix,
    softmax_row,
)

@dataclass(frozen=True)
class TransitionMatrix:
    """K x K column-stochastic matrix of class-averaged predicted probabilities.

    Column j is the mean softmax vector over examples labelled j.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidInput("entries must be a square matrix")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise InvalidInput("entries must lie in [0, 1]")
        col_sums = arr.sum(axis=0)
        if np.any(np.abs(col_sums - 1.0) > 1e-9):
            raise InvalidInput("columns must each sum to 1")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def k(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class BoundQuery:
    k: int
    n_per_class: int
    delta: float

    def __post_init__(self):
        if self.k < 2:
            raise InvalidInput("k must be >= 2")
        if self.n_per_class < 1:
            raise InvalidInput("n_per_class must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise InvalidInput("delta must lie in (0, 1)")


def build_transition_matrix(data: LabelledLogits) -> TransitionMatrix:
    """Average the softmax predictions per labelled class into matrix columns."""
    k = data.n_classes
    probs = softmax_matrix(data.logits.scores)
    cols = np.empty((k, k))
    for j in range(k):
        mask = data.labels == j
        if not mask.any():
            raise MissingClassError(j)
        cols[:, j] = probs[mask].mean(axis=0)
    return TransitionMatrix(cols)


def power_iterate(p: TransitionMatrix) -> tuple[ProbabilitySimplex, int, float]:
    """Stationary distribution of P, computed exactly by one linear solve.

    Because P is column-stochastic, the solution of (I - P + 11^T) q = 1 is
    the stationary vector with sum(q) = 1.  The solve inverts I - P + 11^T,
    whose 1-norm condition number then bounds the error of q.  If uniform is
    already stationary (P = I, say) it is returned as is.  Returns the
    simplex, the number of solves (1) and the fixed-point residual
    ||P q - q||_1.  The name and the tuple are kept for callers that wrap
    this function by name or unpack its result, such as the benchmark's
    tracing.

    Raises IdentifiabilityError when P has no unique stationary vector (a
    block-diagonal P, say): the system is then singular to working precision,
    or its solution has an entry that is negative beyond rounding.  A sign
    check alone is not enough: on a singular system the solve can also land
    on a nonnegative mix of the blocks' stationary vectors.
    """
    mat = p.entries
    q = np.full(p.k, 1.0 / p.k)
    if np.array_equal(mat @ q, q):
        return ProbabilitySimplex(q), 1, 0.0
    system = np.eye(p.k) - mat + 1.0
    try:
        inverse = np.linalg.inv(system)
    except np.linalg.LinAlgError:
        raise IdentifiabilityError("transition matrix has no unique stationary vector") from None
    q = inverse.sum(axis=1)
    # relative forward-error bound of the solve: kappa_1(system) * machine epsilon
    cond = np.abs(system).sum(axis=0).max() * np.abs(inverse).sum(axis=0).max()
    error = cond * np.finfo(np.float64).eps
    if not error < 1.0 or q.min() < -error * q.max():
        raise IdentifiabilityError(
            f"transition matrix has no unique stationary vector (error bound {error:.3g})"
        )
    q = np.maximum(q, 0.0)
    q = q / q.sum()
    return ProbabilitySimplex(q), 1, float(np.abs(mat @ q - q).sum())


def estimate_prior_m2(data: LabelledLogits) -> ProbabilitySimplex:
    """Stationary-distribution estimate of the pre-training prior."""
    q, _, _ = power_iterate(build_transition_matrix(data))
    return q


# Method 1 stops once the l1 norm of the risk gradient falls below M1_TOL,
# or after M1_MAX_ITERS steps.
M1_TOL = 1e-10
M1_MAX_ITERS = 50


def estimate_prior_m1(validation: LabelledLogits) -> ProbabilitySimplex:
    """Risk-minimization estimate of the pre-training prior.

    Minimizes the mean cross-entropy of the debiased scorer softmax(s - log q)
    over u = -log q, where the risk mean[logsumexp(s_i + u) - s_iy - u_y] is
    convex and unconstrained, and q = softmax(-u) is a simplex by construction.
    From u = 0 (the uniform prior), each step line-searches two descent
    directions and keeps the one that lowers the risk more: a damped Newton
    step, which converges fast near the optimum, and the iterative-scaling
    step log(mean prediction) - log(label frequency) of Saerens et al. (2002),
    which crosses the flat region where a class is (almost) never predicted in
    one move.  Stops when the l1 gradient norm falls below M1_TOL or after
    M1_MAX_ITERS steps; non-convergence is not an exception.
    """
    k = validation.n_classes
    labels = validation.labels
    freq = np.bincount(labels, minlength=k) / labels.size
    if np.any(freq == 0.0):
        raise MissingClassError(int(np.flatnonzero(freq == 0.0)[0]))
    scores = validation.logits.scores
    rows = np.arange(labels.size)

    def risk(u):
        logp = scores + u
        logp -= logp.max(axis=1, keepdims=True)
        logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
        value = float(-np.mean(logp[rows, labels]))
        if not math.isfinite(value):
            raise OptimizationError(f"non-finite risk {value!r} during optimization")
        return value, logp

    def search(u, value, grad, direction):
        """Armijo backtracking along -direction; None if nothing decreases."""
        slope = float(grad @ direction)
        t = 1.0
        for _ in range(40):
            trial = u - t * direction
            trial_value, trial_logp = risk(trial)
            if trial_value <= value - 1e-4 * t * slope:
                return trial_value, trial, trial_logp
            t *= 0.5
        return None

    u = np.zeros(k)
    value, logp = risk(u)
    for _ in range(M1_MAX_ITERS):
        probs = np.exp(logp)
        mean = probs.mean(axis=0)
        grad = mean - freq
        norm = float(np.abs(grad).sum())
        if norm < M1_TOL:
            break
        # the 1/K term fixes the shift null-space; the norm^2 damping keeps the
        # matrix nonsingular when some class is never predicted
        hess = np.diag(mean + norm * norm) - probs.T @ probs / labels.size + 1.0 / k
        newton = np.linalg.solve(hess, grad)
        # log of the mean prediction, without underflow for unpredicted classes
        top = logp.max(axis=0)
        scaling = top + np.log(np.exp(logp - top).mean(axis=0)) - np.log(freq)
        found = [r for r in (search(u, value, grad, d) for d in (newton, scaling)) if r]
        if not found:
            break  # no decrease left at float precision
        value, u, logp = min(found, key=lambda r: r[0])
    return softmax_row(-u)


def estimate_prior_naive(logits: LogitTable) -> ProbabilitySimplex:
    """Mean predicted probability over all rows (biased baseline)."""
    mean = softmax_matrix(logits.scores).mean(axis=0)
    return ProbabilitySimplex(mean / mean.sum())


def m2_error_bound(query: BoundQuery) -> float:
    """Concentration bound on the l1 error of the stationary-distribution
    estimate from N-shot-per-class data, at confidence 1 - delta.

    The unobservable population constant factor is reported as 1.
    """
    k, n, delta = query.k, query.n_per_class, query.delta
    return math.sqrt(k * k / (2.0 * n) * math.log(2.0 * k * k / delta))
