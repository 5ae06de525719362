import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gla.ensemble import AdjustmentSpec, alpha_mix, debias_zero_shot, gla_combine, logit_adjust, naive_ensemble
from gla.errors import DimensionError, InvalidInput
from gla.evaluation import (
    balanced_error, breakdown_groups, breakdown_report, loglog_slope, per_class_accuracy, rule_errors,
    run_convergence_study, top1_error,
)
from gla.io_formats import PriorDocument, save_logits, save_prior, save_report, save_study_csv
from gla.prior_estimation import (
    TransitionMatrix,
    build_transition_matrix,
    estimate_prior_m1,
    estimate_prior_m2,
    estimate_prior_naive,
    power_iterate,
)
from gla.synthlab import (
    SyntheticTaskConfig, bayes_risk, class_log_likelihoods, make_task, sample_batch, sample_shots,
    single_view_bayes_risk, zero_shot_shots,
)
from gla.numerics import (
    LOGIT_BLOCK_FIELDS,
    LabelledLogits,
    LogitTable,
    ProbabilitySimplex,
    as_int,
    argmax_rows,
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

    def test_accepts_the_largest_finite_entries_without_warning(self):
        big = np.full((3, 2), np.finfo(np.float64).max)
        big[0, 0] = -big[0, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert finite_vector(big, "m", 2) is big
            assert finite_vector([1e308, 1e308, -1.0], "v").tolist() == [1e308, 1e308, -1.0]

    @pytest.mark.parametrize(
        "value",
        [
            [], 0.5, [[0.5, 0.5]], [np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0], ["a", "b"], {"a": 1}, [[0.5], [0.5, 0.1]],
            # complex, even with a zero imaginary part: numpy would drop it with only a warning
            np.array([0.5 + 1j, 0.5]), np.array([0.5 + 0j, 0.5 + 0j]), [np.complex128(0.5 + 1j), 0.5], [0.5 + 1j, 0.5],
        ],
    )
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
            (lambda v: debias_zero_shot(LogitTable(np.zeros((1, 2))), v), "pi_p"),
            (lambda v: logit_adjust(LogitTable(np.zeros((1, 2))), v), "pi_s"),
            (lambda v: breakdown_groups(v, 2), "pi_p"),
        ],
        ids=[
            "simplex", "from_weights", "softmax_row", "project_to_simplex", "pi_s", "pi_p", "pi_t",
            "debias_zero_shot", "logit_adjust", "breakdown_groups",
        ],
    )
    def test_every_entry_point_names_its_argument(self, entry, name, value):
        with pytest.raises(InvalidInput, match=f"^{name} must be a non-empty 1-d vector of finite numbers$"):
            entry(value)

    @pytest.mark.parametrize(
        "value",
        [
            [[np.nan, 0.5], [0.5, 0.5]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, -np.inf]],
            [["a", "b"], ["c", "d"]],
            [[0.5], [0.5, 0.5]],
            "ab",
            [0.5, 0.5],
            np.zeros((0, 2)),
            np.array([[1.0 + 1j, 0.0], [0.0, 1.0]]),
            np.eye(2, dtype=np.complex64),
            [[np.complex128(1.0), 0.0], [0.0, 1.0]],
        ],
        ids=["nan", "inf", "-inf", "strings", "ragged", "str", "1-d", "empty", "complex", "complex64", "complex-scalar"],
    )
    @pytest.mark.parametrize("entry, name", [(LogitTable, "scores"), (TransitionMatrix, "entries")])
    def test_every_matrix_entry_point_names_its_argument(self, entry, name, value):
        with pytest.raises(InvalidInput, match=f"^{name} must be a non-empty 2-d matrix of finite numbers$"):
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

    def test_overflowing_sum_named_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match=r"^simplex entries sum to np\.float64\(inf\), not 1$"):
                ProbabilitySimplex([1e308, 1e308])

    def test_weights_with_overflowing_sum(self):
        # rescaled by the largest weight only when the plain sum overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ProbabilitySimplex.from_weights([1e308, 1e308]).probs.tolist() == [0.5, 0.5]
            assert ProbabilitySimplex.from_weights([1e308, 5e307, 1e308]).probs.tolist() == [0.4, 0.2, 0.4]

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

    def test_span_past_float_range_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert softmax_row([1e308, -1e308]).probs.tolist() == [1.0, 0.0]

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


def _table():
    return LogitTable(np.zeros((2, 2)))


def _labelled():
    return LabelledLogits(_table(), [0, 1])


def _adj2():
    return AdjustmentSpec(pi_s=np.log([0.5, 0.5]), pi_p=np.log([0.5, 0.5]))


# every argument that must be one of the package's value types:
# (entry point, argument name, the type it must be, a value of another type)
TYPED_ARGUMENTS = {
    "SyntheticTaskConfig.pretrain_prior": (
        lambda v: SyntheticTaskConfig(k=2, pretrain_prior=v), "pretrain_prior", "ProbabilitySimplex", [0.5, 0.5]
    ),
    "SyntheticTaskConfig.source_prior": (
        lambda v: SyntheticTaskConfig(k=2, source_prior=v), "source_prior", "ProbabilitySimplex", [0.5, 0.5]
    ),
    "sample_batch.prior": (
        lambda v: sample_batch(make_task(SyntheticTaskConfig(k=2)), v, 4, 0), "prior", "ProbabilitySimplex", [0.5, 0.5]
    ),
    "bayes_risk.eval_prior": (
        lambda v: bayes_risk(make_task(SyntheticTaskConfig(k=2)), v, 10), "eval_prior", "ProbabilitySimplex", [0.5, 0.5]
    ),
    "single_view_bayes_risk.eval_prior": (
        lambda v: single_view_bayes_risk(make_task(SyntheticTaskConfig(k=2)), v, n_mc=10),
        "eval_prior", "ProbabilitySimplex", np.array([0.5, 0.5]),
    ),
    "LabelledLogits.logits": (lambda v: LabelledLogits(v, [0, 1]), "logits", "LogitTable", np.zeros((2, 2))),
    "top1_error.logits": (lambda v: top1_error(v, [0, 1]), "logits", "LogitTable", np.zeros((2, 2))),
    "estimate_prior_m1.validation": (estimate_prior_m1, "validation", "LabelledLogits", _table()),
    "estimate_prior_m1.start": (
        lambda v: estimate_prior_m1(_labelled(), start=v), "start", "ProbabilitySimplex", [0.5, 0.5]
    ),
    "estimate_prior_m2.data": (estimate_prior_m2, "data", "LabelledLogits", _table()),
    "build_transition_matrix.data": (build_transition_matrix, "data", "LabelledLogits", _table()),
    "power_iterate.p": (power_iterate, "p", "TransitionMatrix", np.eye(2)),
    "estimate_prior_naive.logits": (estimate_prior_naive, "logits", "LogitTable", np.zeros((2, 2))),
    "gla_combine.ft": (lambda v: gla_combine(v, v, None), "ft", "LogitTable", np.zeros((2, 2))),
    "gla_combine.zs": (lambda v: gla_combine(_table(), v, _adj2()), "zs", "LogitTable", np.zeros((2, 2))),
    "gla_combine.adj": (lambda v: gla_combine(_table(), _table(), v), "adj", "AdjustmentSpec", None),
    "alpha_mix.adj": (lambda v: alpha_mix(_table(), _table(), v, 0.5), "adj", "AdjustmentSpec", np.zeros(2)),
    "naive_ensemble.zs": (lambda v: naive_ensemble(_table(), v), "zs", "LogitTable", _labelled()),
    "debias_zero_shot.zs": (lambda v: debias_zero_shot(v, [0.0, 0.0]), "zs", "LogitTable", np.zeros((2, 2))),
    "logit_adjust.ft": (lambda v: logit_adjust(v, [0.0, 0.0]), "ft", "LogitTable", np.zeros((2, 2))),
    "make_task.cfg": (make_task, "cfg", "SyntheticTaskConfig", {"k": 2}),
    "sample_batch.task": (lambda v: sample_batch(v, ProbabilitySimplex.uniform(2), 4, 0), "task", "SyntheticTask", np.zeros(2)),
    "sample_shots.task": (lambda v: sample_shots(v, 4, 0), "task", "SyntheticTask", SyntheticTaskConfig(k=2)),
    "zero_shot_shots.task": (lambda v: zero_shot_shots(v, 4, 0), "task", "SyntheticTask", None),
    "bayes_risk.task": (lambda v: bayes_risk(v, ProbabilitySimplex.uniform(2), 10), "task", "SyntheticTask", None),
    "single_view_bayes_risk.task": (
        lambda v: single_view_bayes_risk(v, ProbabilitySimplex.uniform(2), n_mc=10), "task", "SyntheticTask", "task",
    ),
    "class_log_likelihoods.task": (
        lambda v: class_log_likelihoods(v, np.zeros((2, 2)), 1), "task", "SyntheticTask", "task",
    ),
    "run_convergence_study.task_cfg": (
        lambda v: run_convergence_study(v, "m2", [10], 1), "task_cfg", "SyntheticTaskConfig", None,
    ),
    "rule_errors.task_cfg": (lambda v: rule_errors(v, 0), "task_cfg", "SyntheticTaskConfig", {"k": 2}),
    "loglog_slope.study": (loglog_slope, "study", "ConvergenceStudy", "x"),
    # the check comes before any write: a path in a missing directory is never opened
    "save_logits.table": (
        lambda v: save_logits("no-such-dir/t.csv", v), "table", "LogitTable", np.zeros((2, 2)),
    ),
    "save_prior.doc": (
        lambda v: save_prior("no-such-dir/p.json", v), "doc", "PriorDocument", {"prior": [0.5, 0.5]},
    ),
    "save_report.report": (lambda v: save_report("no-such-dir/r.json", v), "report", "EvalReport", None),
    "save_study_csv.study": (lambda v: save_study_csv("no-such-dir/s.csv", v), "study", "ConvergenceStudy", []),
    "PriorDocument.prior": (PriorDocument, "prior", "ProbabilitySimplex", np.array([0.5, 0.5])),
}


class TestTypedArguments:
    @pytest.mark.parametrize("case", TYPED_ARGUMENTS.values(), ids=TYPED_ARGUMENTS.keys())
    def test_other_types_named(self, case):
        entry, name, kind, value = case
        with pytest.raises(InvalidInput, match=f"^{name} must be a {kind}, got {type(value).__name__}$"):
            entry(value)


class TestOwnership:
    def test_values_copy_what_they_keep(self):
        """The caller's arrays stay writable, and editing them does not reach the value."""
        probs, entries, log_p, labels = np.array([0.5, 0.5]), np.eye(2), np.log([0.25, 0.75]), np.array([0, 1])
        simplex, matrix = ProbabilitySimplex(probs), TransitionMatrix(entries)
        adj = AdjustmentSpec(pi_s=log_p, pi_p=log_p, pi_t=log_p)
        data = LabelledLogits(_table(), labels)
        assert top1_error(_table(), labels) == 0.5
        for arr in (probs, entries, log_p, labels):
            assert arr.flags.writeable
        probs[0], entries[0, 0], log_p[0], labels[0] = 0.0, 0.0, 0.0, 1
        assert simplex.probs.tolist() == [0.5, 0.5]
        assert matrix.entries.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert adj.pi_s.tolist() == adj.pi_p.tolist() == adj.pi_t.tolist() == np.log([0.25, 0.75]).tolist()
        assert data.labels.tolist() == [0, 1]
        for kept in (simplex.probs, matrix.entries, adj.pi_s, adj.pi_p, adj.pi_t, data.labels):
            assert not kept.flags.writeable
        # the one documented exception: a table adopts its array and freezes it
        scores = np.zeros((2, 2))
        assert LogitTable(scores).scores is scores and not scores.flags.writeable


# values that hold arrays, and configs and documents that hold such values
VALUES = {
    "ProbabilitySimplex": lambda: ProbabilitySimplex.uniform(2),
    "LogitTable": _table,
    "LabelledLogits": _labelled,
    "TransitionMatrix": lambda: TransitionMatrix(np.eye(2)),
    "AdjustmentSpec": _adj2,
    "SyntheticTaskConfig": lambda: SyntheticTaskConfig(k=2),
    "SyntheticTask": lambda: make_task(SyntheticTaskConfig(k=2)),
    "SyntheticBatch": lambda: sample_shots(make_task(SyntheticTaskConfig(k=2)), 2, 0),
    "EvalReport": lambda: breakdown_report(_table(), [0, 1], ProbabilitySimplex.uniform(2).probs),
    "PriorDocument": lambda: PriorDocument(ProbabilitySimplex.uniform(2)),
}


class TestValueIdentity:
    @pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
    def test_compare_and_hash_by_identity(self, make):
        """== and hash never compare array fields: a value equals only itself, and a set holds it."""
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, a, b}) == 2


class TestArgmaxRows:
    """Blocked row argmax against np.argmax of a writable copy of the whole table."""

    @pytest.mark.parametrize("k", [2, 20, 1000])
    @pytest.mark.parametrize("rows", ["below", "equal", "above", "not_multiple"])
    def test_matches_whole_table_argmax(self, k, rows):
        step = max(1, LOGIT_BLOCK_FIELDS // k)
        n = {"below": step - 1, "equal": step, "above": step + 1, "not_multiple": 2 * step + 7}[rows]
        rng = np.random.default_rng([k, n])
        # small integers: most rows have tied maxima
        scores = rng.integers(0, 3, size=(n, k)).astype(np.float64)
        scores[::2] = rng.normal(size=scores[::2].shape)
        table = LogitTable(scores.copy())
        preds = argmax_rows(table.scores)
        assert preds.dtype == np.intp
        assert np.array_equal(preds, np.argmax(scores, axis=1))
        # ties go to the lowest index: the first column holding the row maximum
        assert np.array_equal(preds, (scores == scores.max(axis=1, keepdims=True)).argmax(axis=1))
        assert np.any((scores == scores.max(axis=1, keepdims=True)).sum(axis=1) > 1)

    def test_empty_table(self):
        assert argmax_rows(np.zeros((0, 3))).shape == (0,)


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

    @pytest.mark.parametrize("v, expected", [([1e16, 0.0], [1.0, 0.0]), ([9.1e15, 0.0, -3.0], [1.0, 0.0, 0.0])])
    def test_huge_entries(self, v, expected):
        # past about 2**53, u[0] - 1 rounds back to u[0] and no sorted
        # entry passes the float test that the largest passes exactly
        assert project_to_simplex(v).probs.tolist() == expected

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
