"""Deterministic numeric kernels: softmax, simplex handling, log priors, distances.

Everything here is a pure function of immutable value objects.  All
reductions run in index order with float64 so repeated runs are
bit-identical.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInput, MissingClassError

LOG_FLOOR = 1e-12
SIMPLEX_ATOL = 1e-9
# Row-wise kernels (the row argmax, the naive estimator's softmax) work on
# blocks of rows of about this many fields, so neither holds a second
# table-sized array.
LOGIT_BLOCK_FIELDS = 2**16


def as_int(value, name: str, low: int | None = None) -> int:
    """`value` as an int if it is a Python or numpy integer, not below `low`
    if one is given; anything else (bool, float, str, None) raises InvalidInput naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise InvalidInput(f"{name} must be >= {low}, got {int(value)}")
    return int(value)


def as_real(value, name: str, low: float = -math.inf, high: float = math.inf, *, open: bool = False):
    """`value`, unconverted, if it is a finite real number (not a bool) in [low, high],
    or in (low, high) when `open`; anything else raises InvalidInput naming `name`."""
    try:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int past float range
        real = False
    if not real:
        raise InvalidInput(f"{name} must be a finite real number, got {value!r}")
    if not (low < value < high if open else low <= value <= high):
        bounds = f"({low:g}, {high:g})" if open else f"[{low:g}, {high:g}]"
        raise InvalidInput(f"{name} must lie in {bounds}, got {value!r}")
    return value


def finite_vector(values, name: str, ndim: int = 1) -> np.ndarray:
    """`values` as a float64 array if it is a non-empty `ndim`-d array of
    finite numbers (a float64 array is returned as is); anything else,
    strings, dicts, ragged lists and complex numbers included, raises
    InvalidInput naming `name`."""
    try:
        arr = np.asarray(values)
        # numpy casts complex to real with only a warning, dropping the imaginary part
        arr = None if arr.dtype.kind == "c" else arr.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):
        arr = None
    # min and max propagate NaN and meet any inf, without an array-sized mask
    if arr is None or arr.ndim != ndim or arr.size < 1 or not (
        math.isfinite(arr.min()) and math.isfinite(arr.max())
    ):
        shape = "1-d vector" if ndim == 1 else "2-d matrix"
        raise InvalidInput(f"{name} must be a non-empty {shape} of finite numbers")
    return arr


def check_type(value, cls: type, name: str):
    """`value` if it is a `cls`; anything else raises InvalidInput naming `name`."""
    if not isinstance(value, cls):
        raise InvalidInput(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _freeze(arr: np.ndarray, dtype=np.float64) -> np.ndarray:
    """A read-only C-contiguous copy of `arr`, so a value never shares, or
    freezes, its caller's array."""
    arr = np.array(arr, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


def class_counts(labels: np.ndarray, k: int) -> np.ndarray:
    """Examples per class of integer labels in [0, k); a class with none
    raises MissingClassError naming the first such class."""
    counts = np.bincount(labels, minlength=k)
    if not counts.all():
        raise MissingClassError(int(np.flatnonzero(counts == 0)[0]))
    return counts


@dataclass(frozen=True, eq=False)
class ProbabilitySimplex:
    """Length-K vector of nonnegative reals summing to 1."""

    probs: np.ndarray

    def __post_init__(self):
        arr = finite_vector(self.probs, "simplex")
        if np.any(arr < 0.0):
            raise InvalidInput("simplex entries must be nonnegative")
        with np.errstate(over="ignore"):  # entries near 1e308 sum to inf, refused here
            total = arr.sum()
        if abs(float(total) - 1.0) > SIMPLEX_ATOL:
            raise InvalidInput(f"simplex entries sum to {total!r}, not 1")
        object.__setattr__(self, "probs", _freeze(arr))

    @property
    def k(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, k: int) -> "ProbabilitySimplex":
        return cls(np.full(as_int(k, "k", 1), 1.0 / k))

    @classmethod
    def from_weights(cls, weights) -> "ProbabilitySimplex":
        """Normalize a vector of nonnegative weights into a simplex.  Weights
        whose sum overflows are first divided by the largest one."""
        arr = finite_vector(weights, "weights")
        if np.any(arr < 0.0):
            raise InvalidInput("weights must be nonnegative")
        with np.errstate(over="ignore"):
            total = float(arr.sum())
        if total == math.inf:
            arr = arr / arr.max()
            total = float(arr.sum())
        if total <= 0.0:
            raise InvalidInput("weights must have positive sum")
        return cls(arr / total)


@dataclass(frozen=True, eq=False)
class LogitTable:
    """N x K matrix of real-valued scores, one row per example.  Unlike the
    other values it adopts a C-contiguous float64 array, and makes it read-only:
    a copy would add a table-sized array to every load, draw and study cell."""

    scores: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(finite_vector(self.scores, "scores", 2))
        if arr.shape[1] < 2:
            raise InvalidInput(f"scores must have K >= 2 columns, got {arr.shape[1]}")
        arr.flags.writeable = False
        object.__setattr__(self, "scores", arr)

    @property
    def n_examples(self) -> int:
        return self.scores.shape[0]

    @property
    def n_classes(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True, eq=False)
class LabelledLogits:
    """A LogitTable paired with integer labels in [0, K)."""

    logits: LogitTable
    labels: np.ndarray

    def __post_init__(self):
        check_type(self.logits, LogitTable, "logits")
        lab = np.asarray(self.labels)
        if lab.ndim != 1 or lab.shape[0] != self.logits.n_examples:
            raise DimensionError("labels length must equal number of rows")
        if not np.issubdtype(lab.dtype, np.integer):
            raise InvalidInput(f"labels must be integers, got dtype {lab.dtype}")
        if lab.size and (lab.min() < 0 or lab.max() >= self.logits.n_classes):
            raise InvalidInput("labels must lie in [0, K)")
        object.__setattr__(self, "labels", _freeze(lab, np.int64))

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


def class_blocks(labels: np.ndarray, k: int) -> tuple[np.ndarray | None, np.ndarray]:
    """Row indices grouped by label and the K+1 block bounds: the rows of
    class c are order[bounds[c]:bounds[c + 1]], in increasing order, as
    np.nonzero(labels == c) would give them.  One stable sort (a radix sort
    on labels narrowed to the smallest unsigned type), not K label scans.
    Class-major labels (sorted, as in balanced shots) need no sort: order
    is then None, and the rows of class c are bounds[c]:bounds[c + 1]."""
    bounds = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(labels, minlength=k), out=bounds[1:])
    if np.all(labels[1:] >= labels[:-1]):
        return None, bounds
    return np.argsort(labels.astype(np.min_scalar_type(k - 1)), kind="stable"), bounds


def row_blocks(n: int, k: int, fields: int = LOGIT_BLOCK_FIELDS):
    """Slices of about `fields` fields (at least one row each) that cover
    the N rows of an N x K array in order."""
    step = max(1, fields // k)
    return (slice(start, start + step) for start in range(0, n, step))


def softmax_row(v) -> ProbabilitySimplex:
    """Stable softmax of a single score vector.

    Uses max-subtraction so any finite input is safe, and is invariant to
    adding a constant to every entry.
    """
    arr = finite_vector(v, "v")
    # an entry more than the float range below the top overflows to -inf
    # when shifted, and its exp is the 0 it would round to anyway
    with np.errstate(over="ignore"):
        return ProbabilitySimplex(softmax_matrix(arr[None, :])[0])


def log_prior(p: ProbabilitySimplex) -> np.ndarray:
    """Elementwise log of a simplex, flooring entries at LOG_FLOOR so the
    result is finite.

    When the floor raises an entry, the floored vector is renormalized, so
    the result always exponentiates to a simplex; argmax claims are
    unaffected by the constant shift.  Entries at or above the floor are
    logged as they are.
    """
    check_type(p, ProbabilitySimplex, "p")
    floored = np.maximum(p.probs, LOG_FLOOR)
    if np.any(p.probs < LOG_FLOOR):
        floored /= floored.sum()
    return np.log(floored)


def l1_distance(a: ProbabilitySimplex, b: ProbabilitySimplex) -> float:
    """Total-variation-style l1 distance between two simplices."""
    check_type(a, ProbabilitySimplex, "a")
    check_type(b, ProbabilitySimplex, "b")
    if a.k != b.k:
        raise DimensionError(f"dimension mismatch: {a.k} vs {b.k}")
    return float(np.abs(a.probs - b.probs).sum())


def project_to_simplex(v) -> ProbabilitySimplex:
    """Euclidean projection of an arbitrary finite vector onto the simplex.

    Sort-based algorithm; the result is clipped and renormalized at the end
    so the simplex invariants hold exactly.
    """
    arr = finite_vector(v, "v")
    u = np.sort(arr)[::-1]
    css = np.cumsum(u) - 1.0
    passing = np.flatnonzero(u - css / np.arange(1, arr.size + 1) > 0.0)
    if passing.size:
        rho = int(passing[-1])
        out = np.maximum(arr - css[rho] / (rho + 1), 0.0)
    else:
        # rho = 0, which the largest entry passes in exact arithmetic; past
        # about 2**53 u[0] - 1 rounds back to u[0], so theta = u[0] - 1 is
        # applied as arr - u[0] + 1, exact at the largest entry (an entry
        # past the float range below it overflows to -inf, and gets 0)
        with np.errstate(over="ignore"):
            out = np.maximum(arr - u[0] + 1.0, 0.0)
    return ProbabilitySimplex(out / out.sum())


def argmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row argmax of an N x K array with ties resolved to the lowest class
    index, a block of rows at a time: numpy (2.x at least) copies a
    read-only array, and every LogitTable is one, before an argmax along its
    rows, so whole it would copy the table, and in blocks it copies one block."""
    scores = np.asarray(scores)
    preds = np.empty(scores.shape[0], dtype=np.intp)
    for rows in row_blocks(*scores.shape):
        np.argmax(scores[rows], axis=-1, out=preds[rows])
    return preds
