import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gla.ensemble import AdjustmentSpec
from gla.errors import DimensionError, InvalidInput
from gla.evaluation import balanced_error, breakdown_report, per_class_accuracy, top1_error
from gla.numerics import (
    LabelledLogits,
    LogitTable,
    ProbabilitySimplex,
    as_int,
    as_real,
    finite_vector,
    l1_distance,
    log_prior,
    project_to_simplex,
    softmax_row,
)

finite_vectors = arrays(
    np.float64,
    st.integers(1, 8),
    elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)


class TestAsInt:
    def test_accepts_python_and_numpy_ints(self):
        for value in (0, -3, 2**70, np.int8(5), np.uint64(7), np.int64(-2)):
            out = as_int(value, "x")
            assert type(out) is int and out == value

    def test_rejects_everything_else(self):
        for value in (True, np.bool_(True), 1.0, 2.5, np.float64(3.0), "3", None, [1]):
            with pytest.raises(InvalidInput, match=r"^count must be an integer, got "):
                as_int(value, "count")

    def test_lower_bound(self):
        assert as_int(np.int64(0), "seed", 0) == 0 and as_int(5, "n", 1) == 5
        for value in (-1, np.int64(-1)):
            with pytest.raises(InvalidInput, match=r"^seed must be >= 0, got -1$"):
                as_int(value, "seed", 0)
        with pytest.raises(InvalidInput, match=r"^n must be an integer, got 0\.5$"):
            as_int(0.5, "n", 1)  # the type is checked before the bound


class TestAsReal:
    @pytest.mark.parametrize("value", [0, 1, 0.5, np.float32(0.25), np.float64(1.0), np.int64(0), np.uint8(1)])
    def test_returns_value_unconverted(self, value):
        assert as_real(value, "alpha", 0.0, 1.0) is value

    @pytest.mark.parametrize(
        "value",
        [True, np.True_, None, "0.5", [0.5], np.array([0.5]), 1j, math.inf, -math.inf, math.nan, 10**400],
        ids=["True", "np.True_", "None", "str", "list", "array", "complex", "inf", "-inf", "nan", "10**400"],
    )
    def test_rejects_non_reals(self, value):
        with pytest.raises(InvalidInput, match=r"^x must be a finite real number, got "):
            as_real(value, "x")

    def test_bounds(self):
        assert as_real(-1e300, "x") == -1e300
        assert as_real(0.0, "alpha", 0.0, 1.0) == 0.0
        with pytest.raises(InvalidInput, match=re.escape("alpha must lie in [0, 1], got 1.5")):
            as_real(1.5, "alpha", 0.0, 1.0)
        for value in (0.0, 1, -0.5):
            with pytest.raises(InvalidInput, match=re.escape(f"delta must lie in (0, 1), got {value!r}")):
                as_real(value, "delta", 0.0, 1.0, open=True)


class TestFiniteVector:
    def test_accepts_finite_vectors(self):
        out = finite_vector([1, 2.5, -3], "v")
        assert out.dtype == np.float64 and out.tolist() == [1.0, 2.5, -3.0]

    def test_keeps_a_float64_vector_as_is(self):
        arr = np.array([0.25, 0.75])
        assert finite_vector(arr, "v") is arr

    @pytest.mark.parametrize("value", [[], 0.5, [[0.5, 0.5]], [np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0]])
    @pytest.mark.parametrize(
        "entry, name",
        [
            (ProbabilitySimplex, "simplex"),
            (ProbabilitySimplex.from_weights, "weights"),
            (softmax_row, "v"),
            (project_to_simplex, "v"),
            (lambda v: AdjustmentSpec(pi_s=v, pi_p=[0.0]), "pi_s"),
            (lambda v: AdjustmentSpec(pi_s=[0.0], pi_p=v), "pi_p"),
            (lambda v: AdjustmentSpec(pi_s=[0.0], pi_p=[0.0], pi_t=v), "pi_t"),
        ],
        ids=["simplex", "from_weights", "softmax_row", "project_to_simplex", "pi_s", "pi_p", "pi_t"],
    )
    def test_every_entry_point_names_its_argument(self, entry, name, value):
        with pytest.raises(InvalidInput, match=f"^{name} must be a non-empty 1-d vector of finite numbers$"):
            entry(value)


class TestProbabilitySimplex:
    def test_valid(self):
        s = ProbabilitySimplex([0.25, 0.75])
        assert s.k == 2

    def test_rejects_negative(self):
        with pytest.raises(InvalidInput):
            ProbabilitySimplex([-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidInput):
            ProbabilitySimplex([0.5, 0.6])

    def test_uniform(self):
        assert np.allclose(ProbabilitySimplex.uniform(4).probs, 0.25)

    def test_immutable(self):
        s = ProbabilitySimplex([0.5, 0.5])
        with pytest.raises(ValueError):
            s.probs[0] = 1.0


class TestLogitTable:
    def test_shape_properties(self):
        t = LogitTable([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert t.n_examples == 3 and t.n_classes == 2

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            LogitTable([[1.0, np.inf]])

    def test_rejects_single_class(self):
        with pytest.raises(InvalidInput):
            LogitTable([[1.0]])


class TestLabelledLogits:
    def test_label_bounds(self):
        t = LogitTable([[0.0, 1.0]])
        with pytest.raises(InvalidInput):
            LabelledLogits(t, [2])

    def test_length_mismatch(self):
        t = LogitTable([[0.0, 1.0]])
        with pytest.raises(DimensionError):
            LabelledLogits(t, [0, 1])

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint64, np.int64])
    def test_integer_dtypes_accepted(self, dtype):
        lab = LabelledLogits(LogitTable(np.zeros((3, 2))), np.array([1, 0, 1], dtype=dtype)).labels
        assert lab.dtype == np.int64 and lab.tolist() == [1, 0, 1]

    @pytest.mark.parametrize(
        "labels",
        [[True, False], np.array([True, False]), ["1", "0"], [1.0, 0.0], [np.inf, 0.0], [np.nan, 0.0], [0.5, 1.0]],
        ids=["bool-list", "bool-array", "str", "integral-float", "inf", "nan", "fraction"],
    )
    @pytest.mark.parametrize(
        "entry",
        [
            lambda t, lab: LabelledLogits(t, np.asarray(lab)),
            top1_error,
            per_class_accuracy,
            balanced_error,
            lambda t, lab: breakdown_report(t, lab, np.log([0.5, 0.5])),
        ],
        ids=["LabelledLogits", "top1_error", "per_class_accuracy", "balanced_error", "breakdown_report"],
    )
    @pytest.mark.filterwarnings("error")
    def test_non_integer_labels_named(self, entry, labels):
        with pytest.raises(InvalidInput, match=r"^labels must be integers, got dtype "):
            entry(LogitTable(np.zeros((2, 2))), labels)


class TestSoftmaxRow:
    def test_symmetry(self):
        assert np.allclose(softmax_row([0.0, 0.0]).probs, [0.5, 0.5])

    def test_ln2(self):
        # e^{ln 2} / (e^{ln 2} + 1) = 2/3
        assert np.allclose(softmax_row([math.log(2), 0.0]).probs, [2 / 3, 1 / 3])

    def test_no_overflow_on_large_input(self):
        p = softmax_row([1000.0, 0.0]).probs
        assert p[0] == pytest.approx(1.0)
        assert p[1] < 1e-300

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            softmax_row([np.nan, 0.0])

    @given(finite_vectors)
    def test_output_is_simplex(self, v):
        s = softmax_row(v)
        assert np.all(s.probs >= 0)
        assert abs(s.probs.sum() - 1.0) <= 1e-9

    @given(finite_vectors, st.floats(-20, 20, allow_nan=False))
    def test_shift_invariance(self, v, c):
        assert np.allclose(softmax_row(v).probs, softmax_row(v + c).probs, atol=1e-12)

    @given(finite_vectors)
    def test_argmax_preserved(self, v):
        # gaps below exp's float resolution collapse to exact ties, where
        # both sides resolve to the lowest index anyway
        near_max = v.max() - v < 1e-9
        assume(np.all(v[near_max] == v.max()))
        assert np.argmax(softmax_row(v).probs) == np.argmax(v)


class TestLogPrior:
    def test_uniform(self):
        out = log_prior(ProbabilitySimplex.uniform(4))
        assert np.allclose(out, math.log(0.25))

    def test_direct_values(self):
        out = log_prior(ProbabilitySimplex([0.8, 0.2]))
        assert out == pytest.approx([-0.22314, -1.60944], abs=1e-5)

    def test_floor_keeps_finite(self):
        out = log_prior(ProbabilitySimplex([1.0, 0.0]))
        assert out == pytest.approx([0.0, -27.631], abs=1e-3)
        assert np.all(np.isfinite(out))

    def test_unfloored_entries_logged_as_is(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = ProbabilitySimplex.from_weights(rng.random(7) + 0.01)
            assert np.array_equal(log_prior(p), np.log(p.probs))


class TestSimplexArguments:
    @pytest.mark.parametrize("value", [[0.5, 0.5], np.array([0.5, 0.5]), None])
    def test_log_prior_and_l1_distance_name_a_non_simplex(self, value):
        p = ProbabilitySimplex([0.5, 0.5])
        kind = type(value).__name__
        with pytest.raises(InvalidInput, match=f"^p must be a ProbabilitySimplex, got {kind}$"):
            log_prior(value)
        with pytest.raises(InvalidInput, match=f"^a must be a ProbabilitySimplex, got {kind}$"):
            l1_distance(value, p)
        with pytest.raises(InvalidInput, match=f"^b must be a ProbabilitySimplex, got {kind}$"):
            l1_distance(p, value)


class TestL1Distance:
    def test_identity(self):
        a = ProbabilitySimplex([0.3, 0.7])
        assert l1_distance(a, a) == 0.0

    def test_maximal(self):
        assert l1_distance(ProbabilitySimplex([1, 0]), ProbabilitySimplex([0, 1])) == 2.0

    def test_direct(self):
        a = ProbabilitySimplex([0.7, 0.3])
        b = ProbabilitySimplex([0.5, 0.5])
        assert l1_distance(a, b) == pytest.approx(0.4)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            l1_distance(ProbabilitySimplex([1.0]), ProbabilitySimplex([0.5, 0.5]))

    @given(st.data())
    def test_triangle_inequality(self, data):
        k = data.draw(st.integers(2, 6))
        simplex = st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k).map(
            lambda w: ProbabilitySimplex.from_weights(np.asarray(w))
        )
        a, b, c = data.draw(simplex), data.draw(simplex), data.draw(simplex)
        assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-12


class TestProjectToSimplex:
    def test_already_feasible(self):
        assert np.allclose(project_to_simplex([1 / 3] * 3).probs, 1 / 3)

    def test_symmetry(self):
        assert np.allclose(project_to_simplex([1.0, 1.0, 1.0]).probs, 1 / 3)

    def test_corner_matches_brute_force(self):
        # brute-force grid minimization of ||q - v||_2 over the 2-simplex
        v = np.array([2.0, 0.0])
        grid = np.linspace(0, 1, 100_001)
        dists = (grid - 2.0) ** 2 + (1 - grid) ** 2
        best = grid[np.argmin(dists)]
        assert best == pytest.approx(1.0)
        assert np.allclose(project_to_simplex(v).probs, [1.0, 0.0])

    @given(finite_vectors)
    def test_idempotent(self, v):
        once = project_to_simplex(v).probs
        twice = project_to_simplex(once).probs
        assert np.allclose(once, twice, atol=1e-12)

    @given(finite_vectors)
    @settings(max_examples=50)
    def test_is_nearest_point(self, v):
        # any random feasible point must be at least as far from v
        proj = project_to_simplex(v).probs
        rng = np.random.default_rng(0)
        for _ in range(20):
            other = rng.dirichlet(np.ones(v.size))
            assert np.sum((proj - v) ** 2) <= np.sum((other - v) ** 2) + 1e-9
