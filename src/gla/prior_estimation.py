"""Estimators for the hidden pre-training label prior q.

Three routes are provided:

* a minimization of the risk of the debiased zero-shot scorer in log-prior
  space, where the problem is convex and unconstrained ("method 1"), by
  damped Newton and iterative-scaling steps; once Newton wins a step, a full
  Newton step is taken alone whenever it passes its line search, and a fit
  that stops unconverged warns,
* the stationary distribution of the class-averaged prediction matrix,
  solved exactly by one linear solve ("method 2"),
* the naive average of predicted probabilities, kept as a provably
  biased baseline.

Also computes the Hoeffding-style theoretical error bound for method 2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceWarning, DimensionError, IdentifiabilityError, InvalidInput, OptimizationError
from .numerics import (
    SIMPLEX_ATOL, LabelledLogits, LogitTable, ProbabilitySimplex, _freeze, as_int, as_real, check_type,
    class_blocks, class_counts, finite_vector, row_blocks, softmax_matrix, softmax_row,
)

ESTIMATORS = ("m1", "m2", "naive")  # the one list of prior estimator names


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """K x K column-stochastic matrix of class-averaged predicted probabilities.

    Column j is the mean softmax vector over examples labelled j.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = finite_vector(self.entries, "entries", 2)
        if arr.shape[0] != arr.shape[1]:
            raise InvalidInput("entries must be a square matrix")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise InvalidInput("entries must lie in [0, 1]")
        if np.any(np.abs(arr.sum(axis=0) - 1.0) > SIMPLEX_ATOL):
            raise InvalidInput("columns must each sum to 1")
        object.__setattr__(self, "entries", _freeze(arr))

    @property
    def k(self) -> int:
        return self.entries.shape[0]


def build_transition_matrix(data: LabelledLogits) -> TransitionMatrix:
    """Average the softmax predictions per labelled class into matrix columns.

    Column j is the mean softmax of class j's block of rows, taken one class
    at a time, so the fit holds one class block, not a softmax of the whole
    table.  Softmax is row-wise and each column mean adds the same rows in
    the same order, so the bits are those of one whole-table softmax.
    """
    k = check_type(data, LabelledLogits, "data").n_classes
    class_counts(data.labels, k)
    order, bounds = class_blocks(data.labels, k)
    scores = data.logits.scores
    cols = np.empty((k, k))
    for j in range(k):
        rows = slice(bounds[j], bounds[j + 1]) if order is None else order[bounds[j]:bounds[j + 1]]
        cols[:, j] = softmax_matrix(scores[rows]).mean(axis=0)
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
    mat = check_type(p, TransitionMatrix, "p").entries
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
# A trial point u whose spread max(u) - min(u) is at most M1_SPREAD is scored
# from the fit's table of exponentials; a wider one is shifted per example.
M1_SPREAD = 600.0


def estimate_prior_m1(validation: LabelledLogits, *, start: ProbabilitySimplex | None = None) -> ProbabilitySimplex:
    """Risk-minimization estimate of the pre-training prior.

    Minimizes the mean cross-entropy of the debiased scorer softmax(s - log q)
    over u = -log q, where the risk mean[logsumexp(s_i + u) - s_iy - u_y] is
    convex and unconstrained, and q = softmax(-u) is a simplex by construction.
    The fit starts at u = 0 (the uniform prior), or at u = -log start, a zero
    entry of `start` read as the smallest normal float.  A start near the
    optimum, such as the fit of a smaller sample of the same data, saves
    steps.  Its prior can differ from the uniform start's by what the
    gradient tolerance allows: under 4 M1_TOL / c in l1, c the risk's least
    curvature across the directions that move q.  That is about 1e-9 where
    the classes overlap, and more where they barely do and the risk is
    nearly flat.  From there, each step Armijo-searches two descent
    directions and keeps the one that lowers the risk more: a damped Newton
    step, which converges fast near the optimum, and the iterative-scaling
    step log(mean prediction) - log(label frequency) of Saerens et al. (2002),
    which crosses the flat region where a class is (almost) never predicted in
    one move.  Once a step has gone to Newton, a full Newton step (t = 1) that
    passes the Armijo test is taken without forming the scaling direction;
    only when Newton has to backtrack, or finds no decrease, are both searched
    again, and a step won by scaling returns to comparing both every step.
    Stops when the l1 gradient norm falls below M1_TOL, after M1_MAX_ITERS
    steps, or when neither direction decreases the risk.  Non-convergence is
    not an exception: the last iterate is returned, with a ConvergenceWarning
    naming the step count and the gradient norm.

    The fit forms the table E = exp(s - m) once, m_i the top score of
    example i.  Since exp(s_ij + u_j - m_i - c) = E_ij exp(u_j - c), with
    c = max u, each trial point is scored by one multiply of E by exp(u - c),
    the class sum and the divide, which leave its normalized posteriors
    behind: the next step reads its gradient and Hessian from the accepted
    trial's.  Each row's largest term is then at least exp(min u - c), so
    a trial point whose spread max u - min u exceeds M1_SPREAD is instead
    shifted by each example's own top, from the scores: where the spread
    stays within it, the terms the table loses to underflow are below
    e^(M1_SPREAD - 708) of their row's total.  A start with a zero entry
    spreads about 708.
    """
    k = check_type(validation, LabelledLogits, "validation").n_classes
    if start is None:
        u = np.zeros(k)
    else:
        probs = check_type(start, ProbabilitySimplex, "start").probs
        if probs.size != k:
            raise DimensionError(f"start length {probs.size} != K {k}")
        u = -np.log(np.maximum(probs, np.finfo(np.float64).tiny))
        u -= u.min()  # the risk ignores a shift of u: a uniform start is u = 0
    labels = validation.labels
    n = labels.size
    freq = class_counts(labels, k) / n
    # The fit's only K x N arrays: the exponentials class-major (K x N, so a
    # reduction over classes is K vector passes, not N short ones), the
    # current posteriors and a line search's trial.  They are one allocation
    # because glibc raises its dynamic mmap and trim thresholds to the size
    # of a freed mapping: one block of three tables then stays in the heap
    # between fits, while three separate tables would be trimmed after each
    # fit and page-faulted in again by the next.
    table, current, trial_buf = np.empty((3, k, n))
    scores = validation.logits.scores.T
    np.copyto(table, scores)
    top_score = table.max(axis=0)
    table -= top_score
    # flat index of each example's label score in a K x N array
    picks = labels * n + np.arange(n)
    label_gap = np.mean(np.take(table, picks))  # mean of s_iy - m_i
    np.exp(table, out=table)

    def risk(u, probs):
        """The risk at u, and each example's log-normalizer; the normalized
        posteriors are left in `probs`."""
        c = u.max()
        if c - u.min() <= M1_SPREAD:
            np.multiply(table, np.exp(u - c)[:, None], out=probs)
            total = probs.sum(axis=0)
            log_total = np.log(total)
            # each example's risk is log_total - (s_iy - m_i) - (u_y - c),
            # so the label terms average label_gap - sum_j freq_j (c - u_j)
            value = float(np.mean(log_total)) - label_gap + float((freq * (c - u)).sum())
            top = top_score + c
        else:
            np.add(scores, u[:, None], out=probs)
            top = probs.max(axis=0)
            probs -= top
            picked = np.take(probs, picks)
            total = np.exp(probs, out=probs).sum(axis=0)
            log_total = np.log(total)
            value = float(np.mean(log_total - picked))
        if not math.isfinite(value):
            raise OptimizationError(f"non-finite risk {value!r} during optimization")
        probs /= total
        return value, top + log_total

    def search(u, value, grad, direction, probs):
        """Armijo backtracking along -direction, each trial's posteriors
        written to `probs`: (risk, u, probs, log-normalizers, t), or None if
        nothing decreases.

        A rise within the risk's float resolution is accepted: near the
        optimum the predicted decrease falls below it, and a strict test
        would backtrack to a step too small to move u.
        """
        slope = float(grad @ direction)
        slack = 4 * np.finfo(np.float64).eps * abs(value)
        t = 1.0
        for _ in range(40):
            trial = u - t * direction
            trial_value, lognorm = risk(trial, probs)
            if trial_value <= value - 1e-4 * t * slope + slack:
                return trial_value, trial, probs, lognorm, t
            t *= 0.5
        return None

    value, lognorm = risk(u, current)
    newton_won = False
    for steps in range(M1_MAX_ITERS + 1):
        mean = current.mean(axis=1)
        grad = mean - freq
        norm = float(np.abs(grad).sum())
        if norm < M1_TOL or steps == M1_MAX_ITERS:
            break
        # the 1/K term fixes the shift null-space; the norm^2 damping keeps the
        # matrix nonsingular when some class is never predicted
        hess = np.diag(mean + norm * norm) - current @ current.T / n + 1.0 / k
        found = [search(u, value, grad, np.linalg.solve(hess, grad), trial_buf)]
        if not (newton_won and found[0] and found[0][4] == 1.0):
            if mean.min() >= np.finfo(np.float64).tiny:
                scaling = np.log(mean) - np.log(freq)
            else:
                # some class's mean posterior underflows: take the log of the
                # mean in log space, from the log-posteriors rebuilt in
                # `current`, which is dead once the scaling direction is
                # formed (its search writes its trials there)
                logp = np.add(scores, u[:, None], out=current)
                logp -= lognorm
                top = logp.max(axis=1)
                logp -= top[:, None]
                scaling = top + np.log(np.exp(logp, out=logp).mean(axis=1)) - np.log(freq)
            found.append(search(u, value, grad, scaling, current))
        found = [r for r in found if r]
        if not found:
            break  # no decrease left at float precision
        value, u, probs, lognorm, _ = min(found, key=lambda r: r[0])
        newton_won = probs is trial_buf
        if newton_won:
            current, trial_buf = trial_buf, current
    q = softmax_row(-u)
    if np.any(q.probs == 0.0):
        # the optimum underflows: measure the gradient at the prior returned,
        # a zero entry read as the smallest normal float
        risk(-np.log(np.maximum(q.probs, np.finfo(np.float64).tiny)), current)
        norm = float(np.abs(current.mean(axis=1) - freq).sum())
    if norm >= M1_TOL:
        warnings.warn(
            f"Method 1 did not converge: stopped after {steps} steps with l1 "
            f"gradient norm {norm:.3g} at the returned prior (tolerance {M1_TOL:g})",
            ConvergenceWarning,
            stacklevel=2,
        )
    return q


def estimate_prior_naive(logits: LogitTable) -> ProbabilitySimplex:
    """Mean predicted probability over all rows (biased baseline).

    The softmax is taken a block of rows at a time.  Each block's first row
    takes the running column sum before the block is reduced, and numpy
    reduces axis 0 row after row, so the rows are added in their original
    order: the bits are those of one whole-table softmax and mean.
    """
    scores = check_type(logits, LogitTable, "logits").scores
    total = None
    for rows in row_blocks(*scores.shape):
        probs = softmax_matrix(scores[rows])
        if total is not None:
            probs[0] += total
        total = probs.sum(axis=0)
    mean = total / scores.shape[0]
    return ProbabilitySimplex(mean / mean.sum())


def m2_error_bound(k: int, n_per_class: int, delta: float) -> float:
    """Concentration bound on the l1 error of the stationary-distribution
    estimate from N-shot-per-class data, at confidence 1 - delta.

    The unobservable population constant factor is reported as 1.
    """
    as_int(k, "k", 2)
    as_int(n_per_class, "n_per_class", 1)
    as_real(delta, "delta", 0.0, 1.0, open=True)
    return math.sqrt(k * k / (2.0 * n_per_class) * math.log(2.0 * k * k / delta))
