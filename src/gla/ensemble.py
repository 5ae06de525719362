"""Combining zero-shot and fine-tuned logits.

All operations return raw logits, never probabilities; evaluation decides
whether a softmax is needed.  Adding a constant to a row never changes its
argmax, so combination claims are made at the argmax level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInput
from .numerics import LogitTable, as_real, finite_vector


def _as_log_prior(vec, name: str) -> np.ndarray:
    arr = finite_vector(vec, name)
    if abs(float(np.exp(arr).sum()) - 1.0) > 1e-6:
        raise InvalidInput(f"{name} must exponentiate to a probability simplex")
    return arr.copy()


@dataclass(frozen=True)
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
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
            lengths.add(arr.size)
        if len(lengths) > 1:
            raise DimensionError("provided log priors disagree on K")


def _check_vector(table: LogitTable, vec: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1 or arr.size != table.n_classes:
        raise DimensionError(f"{name} length {arr.size} != K {table.n_classes}")
    return arr


def _check_pair(ft: LogitTable, zs: LogitTable, adj: AdjustmentSpec | None = None) -> None:
    if ft.scores.shape != zs.scores.shape:
        raise DimensionError(
            f"table shapes differ: {ft.scores.shape} vs {zs.scores.shape}"
        )
    # AdjustmentSpec has validated its priors and their common K
    if adj is not None and adj.pi_s.size != ft.n_classes:
        raise DimensionError(f"log priors have K {adj.pi_s.size}, tables have K {ft.n_classes}")


def debias_zero_shot(zs: LogitTable, pi_p) -> LogitTable:
    """Remove the pre-training label bias: row-wise zs - pi_p."""
    arr = _check_vector(zs, pi_p, "pi_p")
    return LogitTable(zs.scores - arr)


def logit_adjust(ft: LogitTable, pi_s) -> LogitTable:
    """Remove the source label bias: row-wise ft - pi_s."""
    arr = _check_vector(ft, pi_s, "pi_s")
    return LogitTable(ft.scores - arr)


def gla_combine(ft: LogitTable, zs: LogitTable, adj: AdjustmentSpec) -> LogitTable:
    """Ensemble the two debiased scorers: ft + zs - pi_s - pi_p (+ pi_t)."""
    _check_pair(ft, zs, adj)
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
    (1 - alpha) * (zs - pi_p) + alpha * (ft - pi_s), with alpha in [0, 1]."""
    as_real(alpha, "alpha", 0.0, 1.0)
    _check_pair(ft, zs, adj)
    out = zs.scores - adj.pi_p
    out *= 1.0 - alpha
    ft_part = ft.scores - adj.pi_s
    ft_part *= alpha
    out += ft_part
    return LogitTable(out)
