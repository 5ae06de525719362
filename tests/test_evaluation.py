import math
import tracemalloc

import numpy as np
import pytest

import gla.evaluation
import gla.prior_estimation
from gla.errors import ConvergenceWarning, DimensionError, InvalidInput, MissingClassError, OptimizationError
from gla.ensemble import AdjustmentSpec, debias_zero_shot, gla_combine, logit_adjust, naive_ensemble
from gla.evaluation import (
    RULE_ROWS,
    RULES,
    StudyOptions,
    balanced_error,
    breakdown_groups,
    breakdown_report,
    loglog_slope,
    per_class_accuracy,
    rule_errors,
    run_convergence_study,
    top1_error,
)
from gla.numerics import LogitTable, ProbabilitySimplex, l1_distance, log_prior
from gla.synthlab import SyntheticTaskConfig, bayes_risk, make_task, sample_shots, zero_shot_shots


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
        assert [(r.estimator, r.n, r.mean_l1, r.std, r.n_ok) for r in a.rows] == [
            (r.estimator, r.n, r.mean_l1, r.std, r.n_ok) for r in b.rows
        ]

    def test_rows_grouped_by_estimator_and_sorted(self):
        cfg = SyntheticTaskConfig(k=2, seed=3)
        study = run_convergence_study(cfg, ("naive", "m2"), [100, 25], trials=2)
        assert [(r.estimator, r.n) for r in study.rows] == [("naive", 25), ("naive", 100), ("m2", 25), ("m2", 100)]
        assert study.metadata == {"estimators": ["naive", "m2"], "base_seed": 0}

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

    def test_one_name_equals_one_element_sequence(self):
        cfg = SyntheticTaskConfig(k=3, seed=6)
        rows = [run_convergence_study(cfg, names, [10, 40], trials=2, base_seed=4).rows
                for names in ("m1", ("m1",), ["m1"])]
        assert rows[0] == rows[1] == rows[2]
        assert [r.estimator for r in rows[0]] == ["m1", "m1"]

    @pytest.mark.parametrize("fail_first", [None, "m1", "m2", "naive"])
    def test_rows_equal_per_cell_reference(self, monkeypatch, fail_first):
        """One draw per trial, read by all three estimators, gives each
        estimator the rows of a fresh draw per cell, exactly, Method 1
        started at the trial's fit at the next smaller count (uniform after
        a dropped fit); a GlaError on one estimator's first call drops that
        estimator's trial alone."""
        k, shots, trials, base_seed = 5, [30, 4, 12], 3, 21
        cfg = SyntheticTaskConfig(k=k, dim=3, mean_separation=2.5, seed=8,
                                  pretrain_prior=ProbabilitySimplex.from_weights(np.arange(1.0, k + 1)))
        functions = {"m1": "estimate_prior_m1", "m2": "estimate_prior_m2", "naive": "estimate_prior_naive"}
        originals = {name: getattr(gla.evaluation, fn) for name, fn in functions.items()}
        calls = []

        def flaky(name):
            def call(*args, **kwargs):
                calls.append((name, args[0]))
                if name == fail_first and sum(c[0] == name for c in calls) == 1:
                    raise OptimizationError("injected")
                return originals[name](*args, **kwargs)
            return call

        for name, fn in functions.items():
            monkeypatch.setattr(gla.evaluation, fn, flaky(name))
        study = run_convergence_study(cfg, ("m1", "m2", "naive"), shots, trials, base_seed=base_seed)
        # each estimator's first call is the first trial at the smallest count, as with a draw per cell
        assert [(name, data.n_examples) for name, data in calls[:3]] == [("m1", k * 4), ("m2", k * 4), ("naive", k * 4)]
        task = make_task(cfg)
        expected = []
        for estimator in ("m1", "m2", "naive"):
            starts = [None] * trials
            for n in sorted(shots):
                errors = []
                for trial in range(trials):
                    data = zero_shot_shots(task, n, seed=base_seed + trial)
                    if estimator == fail_first and n == 4 and trial == 0:
                        continue
                    if estimator == "m1":
                        est = starts[trial] = originals["m1"](data, start=starts[trial])
                    else:
                        est = originals[estimator](data.logits if estimator == "naive" else data)
                    errors.append(l1_distance(est, cfg.pretrain_prior))
                arr = np.asarray(errors)
                expected.append((estimator, n, float(arr.mean()), float(arr.std()), len(errors)))
        assert [(r.estimator, r.n, r.mean_l1, r.std, r.n_ok) for r in study.rows] == expected

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
            ({"shots": [30, 4, 30]}, r"shots\[2\] repeats 30"),
            ({"trials": 1.5}, "trials"),
            ({"base_seed": None}, "base_seed"),
            ({"base_seed": 1.0}, "base_seed"),
            ({"estimators": ()}, "estimators must name one or more"),
            ({"estimators": ""}, r"estimators\[0\] must be one of"),
            ({"estimators": None}, "estimators must name one or more"),
            ({"estimators": "m3"}, r"estimators\[0\] must be one of .*, got 'm3'"),
            ({"estimators": ("m1", "M2")}, r"estimators\[1\] must be one of .*, got 'M2'"),
            ({"estimators": ["m2", 1]}, r"estimators\[1\] must be one of .*, got 1"),
            ({"estimators": ("m2", "naive", "m2")}, r"estimators\[2\] repeats 'm2'"),
        ):
            args = {"estimators": "m2", "shots": [10], "trials": 1, "base_seed": 0, **kwargs}
            with pytest.raises(InvalidInput, match=name):
                run_convergence_study(cfg, **args)
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

    def test_loglog_slope_fits_one_estimator(self):
        cfg = SyntheticTaskConfig(k=2, pretrain_prior=ProbabilitySimplex([0.7, 0.3]), seed=5)
        both = run_convergence_study(cfg, ("m2", "naive"), [25, 100, 400], trials=3, base_seed=13)
        with pytest.raises(InvalidInput, match="one estimator"):
            loglog_slope(both)
        one = run_convergence_study(cfg, "m2", [25, 100, 400], trials=3, base_seed=13)
        ns = [r.n for r in one.rows]
        errs = [r.mean_l1 for r in one.rows]
        assert loglog_slope(one) == float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
        assert one.rows == both.rows[:3]


class TestRuleErrors:
    def test_rows_equal_direct_computation(self):
        cfg = SyntheticTaskConfig(
            k=3, dim=4, pretrain_prior=ProbabilitySimplex([0.6, 0.3, 0.1]),
            source_prior=ProbabilitySimplex([0.1, 0.2, 0.7]), seed=8,
        )
        task = make_task(cfg)
        batch = sample_shots(task, math.ceil(RULE_ROWS / 3), 7)
        assert batch.labels.size == 3 * 3334
        ft, zs = batch.ft_logits, batch.zs_logits
        pi_s, pi_p, uniform = log_prior(cfg.source_prior), log_prior(cfg.pretrain_prior), np.log(np.full(3, 1 / 3))
        tables = [
            zs, ft, debias_zero_shot(zs, pi_p), logit_adjust(ft, pi_s), naive_ensemble(ft, zs),
            gla_combine(ft, zs, AdjustmentSpec(pi_s=pi_s, pi_p=pi_p)),
            gla_combine(ft, zs, AdjustmentSpec(pi_s=pi_s, pi_p=uniform)),
        ]
        expected = [top1_error(table, batch.labels) for table in tables]
        expected.append(bayes_risk(task, ProbabilitySimplex.uniform(3), 3 * 3334, seed=8))
        errors = rule_errors(cfg, 7)
        assert list(errors) == list(RULES)
        assert list(errors.values()) == expected

    def test_gla_meets_the_bayes_floor_on_the_quick_start_task(self):
        # the README's CLI quick-start task, at the seed `gla study` uses
        cfg = SyntheticTaskConfig(
            k=3, dim=3, pretrain_prior=ProbabilitySimplex([0.5, 0.3, 0.2]),
            source_prior=ProbabilitySimplex([0.2, 0.3, 0.5]), seed=11,
        )
        opts = StudyOptions()
        errors = rule_errors(cfg, opts.base_seed + opts.trials)
        gla, floor, n = errors["gla"], errors["bayes-floor"], 3 * math.ceil(RULE_ROWS / 3)
        se = math.sqrt((gla * (1 - gla) + floor * (1 - floor)) / n)
        assert abs(gla - floor) < 3 * se

    def test_each_rule_table_dropped_before_the_next(self):
        k = 100
        table_bytes = k * math.ceil(RULE_ROWS / k) * k * 8
        cfg = SyntheticTaskConfig(k=k, dim=8, seed=3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rule_errors(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the batch's two tables and one rule's
        assert peak < 3.3 * table_bytes
