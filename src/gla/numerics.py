"""Deterministic numeric kernels: softmax, simplex handling, log priors, distances.

Everything here is a pure function of immutable value objects.  All
reductions run in index order with float64 so repeated runs are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInput

LOG_FLOOR = 1e-12
SIMPLEX_ATOL = 1e-9


def as_int(value, name: str) -> int:
    """`value` as an int if it is a Python or numpy integer; bools, floats,
    strings and None raise InvalidInput naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    return int(value)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ProbabilitySimplex:
    """Length-K vector of nonnegative reals summing to 1."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidInput("simplex must be a non-empty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("simplex entries must be finite")
        if np.any(arr < 0.0):
            raise InvalidInput("simplex entries must be nonnegative")
        if abs(float(arr.sum()) - 1.0) > SIMPLEX_ATOL:
            raise InvalidInput(f"simplex entries sum to {arr.sum()!r}, not 1")
        object.__setattr__(self, "probs", _freeze(arr))

    @property
    def k(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, k: int) -> "ProbabilitySimplex":
        if k < 1:
            raise InvalidInput("k must be >= 1")
        return cls(np.full(k, 1.0 / k))

    @classmethod
    def from_weights(cls, weights) -> "ProbabilitySimplex":
        """Normalize a vector of nonnegative weights into a simplex."""
        arr = np.asarray(weights, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidInput("weights must be a non-empty 1-d vector")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise InvalidInput("weights must be finite and nonnegative")
        total = float(arr.sum())
        if total <= 0.0:
            raise InvalidInput("weights must have positive sum")
        return cls(arr / total)


@dataclass(frozen=True)
class LogitTable:
    """N x K matrix of real-valued scores, one row per example."""

    scores: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 2:
            raise InvalidInput("scores must be a 2-d matrix")
        if arr.shape[0] < 1 or arr.shape[1] < 2:
            raise InvalidInput("need N >= 1 rows and K >= 2 columns")
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("scores must be finite")
        object.__setattr__(self, "scores", _freeze(arr))

    @property
    def n_examples(self) -> int:
        return self.scores.shape[0]

    @property
    def n_classes(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True)
class LabelledLogits:
    """A LogitTable paired with integer labels in [0, K)."""

    logits: LogitTable
    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 1 or lab.shape[0] != self.logits.n_examples:
            raise DimensionError("labels length must equal number of rows")
        if not np.issubdtype(lab.dtype, np.integer):
            if not np.all(lab == np.floor(lab)):
                raise InvalidInput("labels must be integers")
            lab = lab.astype(np.int64)
        lab = np.ascontiguousarray(lab, dtype=np.int64)
        if lab.size and (lab.min() < 0 or lab.max() >= self.logits.n_classes):
            raise InvalidInput("labels must lie in [0, K)")
        lab.flags.writeable = False
        object.__setattr__(self, "labels", lab)

    @property
    def n_examples(self) -> int:
        return self.logits.n_examples

    @property
    def n_classes(self) -> int:
        return self.logits.n_classes


def softmax_matrix(scores: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of an N x K array (internal helper).  The
    shifted scores are exponentiated and normalized in place, so the result
    is the one N x K temporary."""
    scores = np.asarray(scores, dtype=np.float64)
    e = scores - scores.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def class_blocks(labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices grouped by label and the K+1 block bounds: the rows of
    class c are order[bounds[c]:bounds[c + 1]], in increasing order, as
    np.nonzero(labels == c) would give them.  One stable sort (a radix sort
    on labels narrowed to the smallest unsigned type), not K label scans."""
    order = np.argsort(labels.astype(np.min_scalar_type(k - 1)), kind="stable")
    bounds = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(labels, minlength=k), out=bounds[1:])
    return order, bounds


def softmax_row(v) -> ProbabilitySimplex:
    """Stable softmax of a single score vector.

    Uses max-subtraction so any finite input is safe, and is invariant to
    adding a constant to every entry.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInput("input must be a non-empty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("input must be finite")
    return ProbabilitySimplex(softmax_matrix(arr[None, :])[0])


def log_prior(p: ProbabilitySimplex) -> np.ndarray:
    """Elementwise log of a simplex, flooring entries at LOG_FLOOR so the
    result is finite.

    When the floor raises an entry, the floored vector is renormalized, so
    the result always exponentiates to a simplex; argmax claims are
    unaffected by the constant shift.  Entries at or above the floor are
    logged as they are.
    """
    floored = np.maximum(p.probs, LOG_FLOOR)
    if np.any(p.probs < LOG_FLOOR):
        floored /= floored.sum()
    return np.log(floored)


def l1_distance(a: ProbabilitySimplex, b: ProbabilitySimplex) -> float:
    """Total-variation-style l1 distance between two simplices."""
    if a.k != b.k:
        raise DimensionError(f"dimension mismatch: {a.k} vs {b.k}")
    return float(np.abs(a.probs - b.probs).sum())


def project_to_simplex(v) -> ProbabilitySimplex:
    """Euclidean projection of an arbitrary finite vector onto the simplex.

    Sort-based algorithm; the result is clipped and renormalized at the end
    so the simplex invariants hold exactly.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInput("input must be a non-empty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("input must be finite")
    u = np.sort(arr)[::-1]
    css = np.cumsum(u) - 1.0
    rho_candidates = u - css / np.arange(1, arr.size + 1) > 0.0
    rho = int(np.nonzero(rho_candidates)[0][-1])
    theta = css[rho] / (rho + 1)
    out = np.maximum(arr - theta, 0.0)
    return ProbabilitySimplex(out / out.sum())


def argmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row argmax with ties resolved to the lowest class index."""
    return np.argmax(np.asarray(scores), axis=-1)
