"""Combining zero-shot and fine-tuned logits.

All operations return raw logits, never probabilities; evaluation decides
whether a softmax is needed.  Adding a constant to a row never changes its
argmax, so combination claims are made at the argmax level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInput
from .numerics import LogitTable, _freeze, as_real, check_type, finite_vector, row_blocks


def _as_log_prior(vec, name: str) -> np.ndarray:
    arr = finite_vector(vec, name)
    # exp(x) >= 1 + x, so an entry past 1e-6 fails the sum anyway; refused first, exp cannot overflow
    if arr.max() > 1e-6 or abs(float(np.exp(arr).sum()) - 1.0) > 1e-6:
        raise InvalidInput(f"{name} must exponentiate to a probability simplex")
    return _freeze(arr)


@dataclass(frozen=True, eq=False)
class AdjustmentSpec:
    """Log priors used for debiasing: source, pre-train, and optional target.

    A missing target prior means the balanced target; the balanced constant
    is immaterial under softmax shift-invariance, so it is simply omitted.
    """

    pi_s: np.ndarray
    pi_p: np.ndarray
    pi_t: np.ndarray | None = None

    def __post_init__(self):
        lengths = set()
        for name in ("pi_s", "pi_p") if self.pi_t is None else ("pi_s", "pi_p", "pi_t"):
            arr = _as_log_prior(getattr(self, name), name)
            object.__setattr__(self, name, arr)
            lengths.add(arr.size)
        if len(lengths) > 1:
            raise DimensionError("provided log priors disagree on K")


def _subtract(table: LogitTable, table_name: str, vec, name: str) -> LogitTable:
    """Row-wise table - vec, once vec is a finite vector of the table's K."""
    check_type(table, LogitTable, table_name)
    arr = finite_vector(vec, name)
    if arr.size != table.n_classes:
        raise DimensionError(f"{name} length {arr.size} != K {table.n_classes}")
    return LogitTable(table.scores - arr)


def _check_pair(ft: LogitTable, zs: LogitTable) -> None:
    check_type(ft, LogitTable, "ft")
    check_type(zs, LogitTable, "zs")
    if ft.scores.shape != zs.scores.shape:
        raise DimensionError(
            f"table shapes differ: {ft.scores.shape} vs {zs.scores.shape}"
        )


def _check_combiner(ft: LogitTable, zs: LogitTable, adj: AdjustmentSpec) -> None:
    _check_pair(ft, zs)
    # AdjustmentSpec has validated its priors and their common K
    if check_type(adj, AdjustmentSpec, "adj").pi_s.size != ft.n_classes:
        raise DimensionError(f"log priors have K {adj.pi_s.size}, tables have K {ft.n_classes}")


def debias_zero_shot(zs: LogitTable, pi_p) -> LogitTable:
    """Remove the pre-training label bias: row-wise zs - pi_p."""
    return _subtract(zs, "zs", pi_p, "pi_p")


def logit_adjust(ft: LogitTable, pi_s) -> LogitTable:
    """Remove the source label bias: row-wise ft - pi_s."""
    return _subtract(ft, "ft", pi_s, "pi_s")


def gla_combine(ft: LogitTable, zs: LogitTable, adj: AdjustmentSpec) -> LogitTable:
    """Ensemble the two debiased scorers: ft + zs - pi_s - pi_p (+ pi_t)."""
    _check_combiner(ft, zs, adj)
    out = ft.scores + zs.scores
    out -= adj.pi_s
    out -= adj.pi_p
    if adj.pi_t is not None:
        out += adj.pi_t
    return LogitTable(out)


def naive_ensemble(ft: LogitTable, zs: LogitTable) -> LogitTable:
    """Plain logit sum, the no-debiasing baseline."""
    _check_pair(ft, zs)
    return LogitTable(ft.scores + zs.scores)


def alpha_mix(ft: LogitTable, zs: LogitTable, adj: AdjustmentSpec, alpha: float) -> LogitTable:
    """Convex mix of the two debiased scorers for the ablation sweep:
    (1 - alpha) * (zs - pi_p) + alpha * (ft - pi_s), with alpha in [0, 1].
    The mix has no target-prior term, so an `adj` with a pi_t is refused."""
    as_real(alpha, "alpha", 0.0, 1.0)
    _check_combiner(ft, zs, adj)
    if adj.pi_t is not None:
        raise InvalidInput("alpha_mix takes no pi_t: the mix has no target-prior term")
    out = zs.scores - adj.pi_p
    out *= 1.0 - alpha
    # the ft part one row block at a time, so no second table is held
    for rows in row_blocks(*out.shape):
        ft_part = ft.scores[rows] - adj.pi_s
        ft_part *= alpha
        out[rows] += ft_part
        del ft_part  # before the next block's is made
    return LogitTable(out)
