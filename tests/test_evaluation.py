import math
import tracemalloc

import numpy as np
import pytest

import gla.evaluation
import gla.prior_estimation
from gla.errors import ConvergenceWarning, DimensionError, InvalidInput, MissingClassError, OptimizationError
from gla.evaluation import (
    balanced_error,
    breakdown_groups,
    breakdown_report,
    loglog_slope,
    per_class_accuracy,
    run_convergence_study,
    top1_error,
)
from gla.numerics import LogitTable, ProbabilitySimplex, l1_distance
from gla.prior_estimation import m2_error_bound
from gla.synthlab import SyntheticTaskConfig, make_task, zero_shot_shots


def one_hot_logits(labels, k):
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 10.0
    return LogitTable(out)


class TestTop1Error:
    def test_perfect(self):
        labels = [0, 1, 2, 1]
        assert top1_error(one_hot_logits(labels, 3), labels) == 0.0

    def test_tie_resolves_to_class_zero(self):
        t = LogitTable(np.zeros((4, 2)))
        assert top1_error(t, [0, 0, 0, 0]) == 0.0
        assert top1_error(t, [1, 1, 1, 1]) == 1.0

    def test_hand_count(self):
        t = LogitTable([[2.0, 1.0], [0.0, 3.0], [5.0, 4.0]])
        assert top1_error(t, [0, 0, 1]) == pytest.approx(2 / 3)

    def test_complements_accuracy(self):
        rng = np.random.default_rng(1)
        t = LogitTable(rng.normal(size=(100, 3)))
        labels = rng.integers(0, 3, 100)
        err = top1_error(t, labels)
        acc = float(np.mean(np.argmax(t.scores, 1) == labels))
        assert err + acc == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            top1_error(LogitTable(np.zeros((2, 2))), [0])

    def test_float_labels_rejected(self):
        with pytest.raises(InvalidInput):
            top1_error(LogitTable(np.zeros((2, 2))), [1.5, 0.2])


class TestReportMemory:
    """Metrics on a read-only table, at K=100 and 20k rows: numpy copies a
    read-only array for a row argmax, so a whole-table argmax would copy it."""

    @pytest.fixture(scope="class")
    def data(self):
        k = 100
        return zero_shot_shots(make_task(SyntheticTaskConfig(k=k, dim=32, mean_separation=3.0, seed=5)), 200, seed=6)

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_top1_error_holds_a_tenth_of_a_table(self, data):
        assert not data.logits.scores.flags.writeable
        assert self.traced_peak(top1_error, data.logits, data.labels) <= 0.1 * data.logits.scores.nbytes

    def test_breakdown_report_holds_a_tenth_of_a_table(self, data):
        pi_p = np.linspace(1.0, 2.0, data.n_classes)
        peak = self.traced_peak(breakdown_report, data.logits, data.labels, pi_p)
        assert peak <= 0.1 * data.logits.scores.nbytes


class TestBalancedError:
    def test_balanced_data_equals_top1(self):
        rng = np.random.default_rng(2)
        t = LogitTable(rng.normal(size=(60, 3)))
        labels = np.repeat(np.arange(3), 20)
        assert balanced_error(t, labels) == pytest.approx(top1_error(t, labels))

    def test_per_class_averaging(self):
        # 9 correct class-0 rows plus 1 wrong class-1 row
        scores = np.tile([5.0, 0.0], (10, 1))
        labels = [0] * 9 + [1]
        t = LogitTable(scores)
        assert top1_error(t, labels) == pytest.approx(0.1)
        assert balanced_error(t, labels) == pytest.approx(0.5)

    def test_perfect(self):
        labels = [0, 1, 0, 1]
        assert balanced_error(one_hot_logits(labels, 2), labels) == 0.0

    def test_invariant_to_class_duplication(self):
        rng = np.random.default_rng(3)
        t = LogitTable(rng.normal(size=(30, 3)))
        labels = np.repeat(np.arange(3), 10)
        base = balanced_error(t, labels)
        dup_scores = np.vstack([t.scores, t.scores[labels == 1]])
        dup_labels = np.concatenate([labels, labels[labels == 1]])
        assert balanced_error(LogitTable(dup_scores), dup_labels) == pytest.approx(base)

    def test_missing_class(self):
        with pytest.raises(MissingClassError):
            balanced_error(LogitTable(np.zeros((2, 3))), [0, 1])
        with pytest.raises(MissingClassError) as info:
            per_class_accuracy(LogitTable(np.zeros((4, 5))), [0, 4, 1, 4])
        assert info.value.class_index == 2


class TestBreakdown:
    def test_sorted_thirds(self):
        pi_p = np.log([0.3, 0.25, 0.2, 0.15, 0.07, 0.03])
        groups = breakdown_groups(pi_p, 6)
        assert groups == {"head": [0, 1], "medium": [2, 3], "tail": [4, 5]}

    def test_uniform_ties_use_index_order(self):
        groups = breakdown_groups(np.zeros(3), 3)
        assert groups == {"head": [0], "medium": [1], "tail": [2]}

    def test_k4_split(self):
        pi_p = np.log([0.4, 0.3, 0.2, 0.1])
        groups = breakdown_groups(pi_p, 4)
        assert len(groups["head"]) == 1
        assert len(groups["tail"]) == 1
        assert len(groups["medium"]) == 2

    def test_groups_partition_classes(self):
        rng = np.random.default_rng(4)
        for k in (2, 3, 5, 7, 9):
            groups = breakdown_groups(rng.normal(size=k), k)
            seen = sorted(groups["head"] + groups["medium"] + groups["tail"])
            assert seen == list(range(k))

    def test_report_consistency(self):
        rng = np.random.default_rng(6)
        k, n = 6, 300
        t = LogitTable(rng.normal(size=(n, k)))
        labels = rng.integers(0, k, n)
        labels[:k] = np.arange(k)  # every class present
        pi_p = rng.normal(size=k)
        report = breakdown_report(t, labels, pi_p)
        counts = np.bincount(labels, minlength=k)
        weighted = float(np.sum(report.per_class_accuracy * counts) / n)
        assert weighted == pytest.approx(report.top1_accuracy, abs=1e-12)
        for acc in report.breakdown.values():
            assert 0.0 <= acc <= 1.0
        assert report.n_examples == n

    @pytest.mark.parametrize("k", [2, 3, 7, 50])
    def test_accuracies_match_masked_means_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        n = 40 * k + 3
        t = LogitTable(rng.normal(size=(n, k)))
        labels = rng.integers(0, k, n)
        labels[:k] = np.arange(k)
        pi_p = rng.normal(size=k)
        report = breakdown_report(t, labels, pi_p)
        preds = np.argmax(t.scores, axis=1)
        per_class = [float(np.mean(preds[labels == c] == c)) for c in range(k)]
        assert report.per_class_accuracy.tolist() == per_class
        assert per_class_accuracy(t, labels).tolist() == per_class
        for name, classes in breakdown_groups(pi_p, k).items():
            mask = np.isin(labels, classes)
            if classes:
                assert report.breakdown[name] == float(np.mean(preds[mask] == labels[mask]))
            else:
                assert np.isnan(report.breakdown[name])


class TestConvergenceStudy:
    def test_single_cell(self):
        cfg = SyntheticTaskConfig(k=2, seed=1)
        study = run_convergence_study(cfg, "m2", [50], trials=1, base_seed=3)
        assert len(study.rows) == 1
        assert study.rows[0].std == 0.0

    def test_reproducible(self):
        cfg = SyntheticTaskConfig(
            k=2, pretrain_prior=ProbabilitySimplex([0.6, 0.4]), seed=2
        )
        a = run_convergence_study(cfg, "m2", [25, 100], trials=3, base_seed=7)
        b = run_convergence_study(cfg, "m2", [25, 100], trials=3, base_seed=7)
        assert [(r.n, r.mean_l1, r.std, r.bound) for r in a.rows] == [
            (r.n, r.mean_l1, r.std, r.bound) for r in b.rows
        ]

    def test_rows_sorted_and_bound_attached(self):
        cfg = SyntheticTaskConfig(k=2, seed=3)
        study = run_convergence_study(cfg, "naive", [100, 25], trials=2)
        assert [r.n for r in study.rows] == [25, 100]
        assert all(r.bound > 0 for r in study.rows)

    def test_naive_plateaus_above_closed_form_bound(self):
        cfg = SyntheticTaskConfig(
            k=2, pretrain_prior=ProbabilitySimplex([2 / 3, 1 / 3]), seed=4
        )
        study = run_convergence_study(cfg, "naive", [400, 1600], trials=5, base_seed=11)
        # scalar lower bound 1/24; l1 doubles it for K=2
        for row in study.rows:
            assert row.mean_l1 > 2 * (1 / 24)

    def test_domain_error_drops_trial(self, monkeypatch):
        original = gla.evaluation.estimate_prior_m2
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise OptimizationError("injected")
            return original(*args, **kwargs)

        monkeypatch.setattr(gla.evaluation, "estimate_prior_m2", flaky)
        study = run_convergence_study(SyntheticTaskConfig(k=2, seed=1), "m2", [50], trials=3)
        assert study.rows[0].n_ok == 2

    @pytest.mark.parametrize("estimator, fail_first", [("m1", False), ("m2", False), ("naive", False),
                                                        ("m2", True), ("m1", True)])
    def test_rows_equal_per_cell_reference(self, monkeypatch, estimator, fail_first):
        """One draw per trial gives the rows of a fresh draw per cell, exactly;
        a GlaError on the first estimator call drops that one trial."""
        k, shots, trials, base_seed = 5, [30, 4, 12, 30], 3, 21
        cfg = SyntheticTaskConfig(k=k, dim=3, mean_separation=2.5, seed=8,
                                  pretrain_prior=ProbabilitySimplex.from_weights(np.arange(1.0, k + 1)))
        name = {"m1": "estimate_prior_m1", "m2": "estimate_prior_m2", "naive": "estimate_prior_naive"}[estimator]
        original = getattr(gla.evaluation, name)
        calls = []

        def flaky(*args, **kwargs):
            calls.append(args[0])
            if fail_first and len(calls) == 1:
                raise OptimizationError("injected")
            return original(*args, **kwargs)

        monkeypatch.setattr(gla.evaluation, name, flaky)
        study = run_convergence_study(cfg, estimator, shots, trials, base_seed=base_seed)
        # the first call is the first trial at the smallest count, as with a draw per cell
        assert calls[0].n_examples == k * 4
        task = make_task(cfg)
        for row, n in zip(study.rows, sorted(shots)):
            errors = []
            for trial in range(trials):
                data = zero_shot_shots(task, n, seed=base_seed + trial)
                if fail_first and n == 4 and trial == 0:
                    continue
                est = original(data.logits if estimator == "naive" else data)
                errors.append(l1_distance(est, cfg.pretrain_prior))
            arr = np.asarray(errors)
            assert (row.n, row.mean_l1, row.std, row.bound, row.n_ok) == (
                n, float(arr.mean()), float(arr.std()), m2_error_bound(k, n, 0.05), len(errors))

    @pytest.mark.filterwarnings("error")
    def test_unconverged_m1_fit_is_a_dropped_trial(self, monkeypatch):
        cfg = SyntheticTaskConfig(k=3, seed=1)
        converged = run_convergence_study(cfg, "m1", [20, 40], trials=3)
        assert [row.n_ok for row in converged.rows] == [3, 3]
        # one step cannot converge: every fit warns, so no trial counts
        monkeypatch.setattr(gla.prior_estimation, "M1_MAX_ITERS", 1)
        study = run_convergence_study(cfg, "m1", [20, 40], trials=3)
        assert [row.n_ok for row in study.rows] == [0, 0]
        assert all(math.isnan(row.mean_l1) and math.isnan(row.std) for row in study.rows)
        # a run of Method 1 outside the study still warns, and returns its iterate
        data = zero_shot_shots(make_task(cfg), 20, seed=0)
        with pytest.warns(ConvergenceWarning, match="did not converge"):
            gla.prior_estimation.estimate_prior_m1(data)

    def test_other_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(gla.evaluation, "estimate_prior_m2", broken)
        with pytest.raises(ZeroDivisionError):
            run_convergence_study(SyntheticTaskConfig(k=2, seed=1), "m2", [50], trials=3)

    def test_integer_arguments_checked(self):
        cfg = SyntheticTaskConfig(k=2, seed=1)
        for kwargs, name in (
            ({"shots": [10.7]}, r"shots\[0\]"),
            ({"shots": [5, True]}, r"shots\[1\]"),
            ({"shots": ["5"]}, r"shots\[0\]"),
            ({"trials": 1.5}, "trials"),
            ({"base_seed": None}, "base_seed"),
            ({"base_seed": 1.0}, "base_seed"),
        ):
            args = {"shots": [10], "trials": 1, "base_seed": 0, **kwargs}
            with pytest.raises(InvalidInput, match=name):
                run_convergence_study(cfg, "m2", **args)
        study = run_convergence_study(cfg, "m2", np.array([10, 20]), np.int64(2), base_seed=np.int32(3))
        assert study.shots == [10, 20] and study.metadata["base_seed"] == 3
        with pytest.raises(InvalidInput, match="k must be an integer"):
            breakdown_groups(np.zeros(3), 3.0)

    def test_m2_slope(self):
        cfg = SyntheticTaskConfig(
            k=2, pretrain_prior=ProbabilitySimplex([0.7, 0.3]), seed=5
        )
        study = run_convergence_study(
            cfg, "m2", [25, 100, 400, 1600], trials=10, base_seed=13
        )
        assert loglog_slope(study) == pytest.approx(-0.5, abs=0.15)
