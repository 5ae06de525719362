import math
import tracemalloc

import numpy as np
import pytest

from gla.errors import ConvergenceWarning, IdentifiabilityError, InvalidInput, MissingClassError
from gla.numerics import LOGIT_BLOCK_FIELDS, LabelledLogits, LogitTable, ProbabilitySimplex, l1_distance, softmax_matrix
from gla import prior_estimation
from gla.prior_estimation import (
    TransitionMatrix,
    build_transition_matrix,
    estimate_prior_m1,
    estimate_prior_m2,
    estimate_prior_naive,
    m2_error_bound,
    power_iterate,
)
from gla.synthlab import SyntheticTaskConfig, make_task, sample_shots, zero_shot_shots


def logits_for_probs(rows):
    """Invert softmax (up to a constant) so the table softmaxes to `rows`."""
    return LogitTable(np.log(np.asarray(rows, dtype=np.float64)))


# Method 1's warning that it stopped unconverged, as an error: a step rule
# that stalls fails these tests instead of returning quietly
M1_STALL_IS_ERROR = pytest.mark.filterwarnings("error:Method 1 did not converge:RuntimeWarning")


def m1_gradient_l1(data, q):
    """l1 norm of Method 1's risk gradient at the prior q."""
    debiased = data.logits.scores - np.log(q.probs)
    mean = np.exp(debiased - debiased.max(axis=1, keepdims=True))
    mean = (mean / mean.sum(axis=1, keepdims=True)).mean(axis=0)
    return np.abs(mean - np.bincount(data.labels, minlength=data.n_classes) / data.n_examples).sum()


class TestTransitionMatrix:
    def test_rejects_non_stochastic(self):
        with pytest.raises(InvalidInput):
            TransitionMatrix([[0.7, 0.2], [0.2, 0.8]])

    def test_column_means(self):
        # class-0 rows softmax to [0.9,0.1] and [0.7,0.3]; class-1 to [0.2,0.8]
        data = LabelledLogits(
            logits_for_probs([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8]]), [0, 0, 1]
        )
        p = build_transition_matrix(data)
        assert np.allclose(p.entries, [[0.8, 0.2], [0.2, 0.8]])

    def test_uniform_rows(self):
        data = LabelledLogits(LogitTable(np.zeros((4, 3))), [0, 1, 2, 0])
        p = build_transition_matrix(data)
        assert np.allclose(p.entries, 1 / 3)

    def test_one_hot_gives_identity(self):
        eps = 1e-12
        rows = [[1 - eps, eps], [eps, 1 - eps]]
        data = LabelledLogits(logits_for_probs(rows), [0, 1])
        p = build_transition_matrix(data)
        assert np.allclose(p.entries, np.eye(2), atol=1e-9)

    def test_missing_class(self):
        data = LabelledLogits(LogitTable(np.zeros((2, 3))), [0, 0])
        with pytest.raises(MissingClassError) as exc:
            build_transition_matrix(data)
        assert exc.value.class_index == 1

    @pytest.mark.parametrize("k, n", [(2, 9), (3, 40), (10, 1000), (300, 3000)])
    def test_shuffled_labels_match_mask_mean_oracle(self, k, n):
        rng = np.random.default_rng(k)
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        rng.shuffle(labels)
        data = LabelledLogits(LogitTable(rng.normal(size=(n, k)) * 4.0), labels)
        probs = softmax_matrix(data.logits.scores)
        oracle = np.stack([probs[labels == j].mean(axis=0) for j in range(k)], axis=1)
        assert np.array_equal(build_transition_matrix(data).entries, oracle)

    @pytest.mark.parametrize("missing", [[0], [3], [1, 4], [2, 3, 5]])
    def test_names_lowest_missing_class(self, missing):
        rng = np.random.default_rng(len(missing))
        present = [c for c in range(6) if c not in missing]
        labels = rng.permutation(np.repeat(present, 3))
        data = LabelledLogits(LogitTable(rng.normal(size=(labels.size, 6))), labels)
        with pytest.raises(MissingClassError) as exc:
            build_transition_matrix(data)
        assert exc.value.class_index == missing[0]

    def test_columns_stochastic_for_random_input(self):
        rng = np.random.default_rng(5)
        data = LabelledLogits(
            LogitTable(rng.normal(size=(50, 4))), rng.integers(0, 4, 50)
        )
        p = build_transition_matrix(data)
        assert np.allclose(p.entries.sum(axis=0), 1.0, atol=1e-9)


def analytic_stationary_2x2(p: TransitionMatrix) -> np.ndarray:
    """Independent oracle: solve q1 = p11 q1 + p12 (1 - q1) analytically."""
    p11, p12 = p.entries[0, 0], p.entries[0, 1]
    q1 = p12 / (1.0 - p11 + p12)
    return np.array([q1, 1.0 - q1])


class TestPowerIterate:
    def test_identity_returns_uniform(self):
        for k in (2, 3, 20):
            q, iters, residual = power_iterate(TransitionMatrix(np.eye(k)))
            assert np.allclose(q.probs, 1.0 / k)
            assert iters == 1
            assert residual == 0.0

    def test_rank_one(self):
        p = TransitionMatrix([[0.6, 0.6], [0.4, 0.4]])
        q, iters, _ = power_iterate(p)
        assert np.allclose(q.probs, [0.6, 0.4])
        assert iters <= 2

    def test_analytic_two_by_two(self):
        p = TransitionMatrix([[0.7, 0.4], [0.3, 0.6]])
        q, _, _ = power_iterate(p)
        assert np.allclose(q.probs, [4 / 7, 3 / 7], atol=1e-4)
        assert np.allclose(q.probs, analytic_stationary_2x2(p), atol=1e-8)

    def test_residual_below_tol_when_converged(self):
        rng = np.random.default_rng(11)
        tol, max_iters = 1e-8, 5000
        for _ in range(20):
            k = int(rng.integers(2, 6))
            p = TransitionMatrix(rng.dirichlet(np.ones(k), size=k).T)
            q, iters, residual = power_iterate(p)
            if iters < max_iters:
                assert residual <= tol

    def test_matches_dense_eigensolve(self):
        rng = np.random.default_rng(3)
        for k in (2, 3, 4, 8):
            for _ in range(10):
                p = TransitionMatrix(rng.dirichlet(np.ones(k), size=k).T)
                q, _, _ = power_iterate(p)
                w, v = np.linalg.eig(p.entries)
                lead = np.argmin(np.abs(w - 1.0))
                target = np.real(v[:, lead])
                target = target / target.sum()
                assert np.abs(q.probs - target).sum() < 1e-6

    def test_exact_without_configuration(self):
        # criterion 1's matrices, then K=50: the solve is exact to rounding
        rng = np.random.default_rng(7)
        for k in (2, 3, 4, 8, 50):
            for _ in range(25):
                p = TransitionMatrix(rng.dirichlet(np.ones(k), size=k).T)
                q, iters, residual = power_iterate(p)
                assert np.abs(q.probs - eigenvector_oracle(p)).sum() <= 1e-12
                assert iters == 1
                assert residual <= 1e-12

    def test_slowly_mixing_batch_is_exact(self):
        # lambda_2 = 0.989: power iteration stopped 7e-3 (l1) short of this
        k = 10
        cfg = SyntheticTaskConfig(
            k=k,
            dim=k,
            mean_separation=6.0,
            pretrain_prior=ProbabilitySimplex.from_weights(np.arange(1.0, k + 1)),
            seed=0,
        )
        p = build_transition_matrix(sample_shots(make_task(cfg), 2000, seed=1).labelled_zs())
        q, _, residual = power_iterate(p)
        assert residual <= 1e-12
        assert np.abs(q.probs - eigenvector_oracle(p)).sum() <= 1e-10

    def test_block_diagonal_raises_named_error(self):
        # two closed blocks: every mix of their stationary vectors is
        # stationary, and a bare solve may return any of them, or a vector
        # with negative entries
        for k in (4, 7, 20):
            for seed in range(10):
                rng = np.random.default_rng(seed)
                split = int(rng.integers(1, k))
                entries = np.zeros((k, k))
                entries[:split, :split] = rng.dirichlet(np.ones(split), size=split).T
                entries[split:, split:] = rng.dirichlet(np.ones(k - split), size=k - split).T
                with pytest.raises(IdentifiabilityError, match="no unique stationary"):
                    power_iterate(TransitionMatrix(entries))


def eigenvector_oracle(p: TransitionMatrix) -> np.ndarray:
    w, v = np.linalg.eig(p.entries)
    vec = np.real(v[:, np.argmin(np.abs(w - 1.0))])
    return vec / vec.sum()


class TestEstimatePriorM2:
    def test_one_hot_predictions_give_uniform(self):
        eps = 1e-12
        rows = [[1 - eps, eps], [eps, 1 - eps]]
        data = LabelledLogits(logits_for_probs(rows), [0, 1])
        q = estimate_prior_m2(data)
        assert np.allclose(q.probs, 0.5)

    def test_mass_on_single_class(self):
        eps = 1e-9
        rows = [[1 - eps, eps]] * 4
        data = LabelledLogits(logits_for_probs(rows), [0, 1, 0, 1])
        q = estimate_prior_m2(data)
        assert q.probs[0] > 1.0 - 1e-6

    def test_recovers_synthetic_prior(self):
        errs = []
        for seed in range(5):
            cfg = SyntheticTaskConfig(
                k=2, pretrain_prior=ProbabilitySimplex([0.7, 0.3]), seed=seed
            )
            batch = sample_shots(make_task(cfg), 1000, seed=50 + seed)
            q = estimate_prior_m2(batch.labelled_zs())
            errs.append(abs(q.probs[0] - 0.7))
        assert np.mean(errs) <= 0.05


class TestEstimatePriorM1:
    def test_single_step_returns_simplex(self, monkeypatch):
        monkeypatch.setattr(prior_estimation, "M1_MAX_ITERS", 1)
        rng = np.random.default_rng(2)
        data = LabelledLogits(LogitTable(rng.normal(size=(10, 3))), rng.integers(0, 3, 10))
        with pytest.warns(ConvergenceWarning, match="did not converge: stopped after 1 steps") as record:
            q = estimate_prior_m1(data)
        # a RuntimeWarning, so filters on that category still catch it
        assert issubclass(record[0].category, RuntimeWarning)
        assert np.all(q.probs >= 0)
        assert abs(q.probs.sum() - 1.0) <= 1e-9

    def test_missing_class(self):
        data = LabelledLogits(LogitTable(np.zeros((2, 3))), [0, 1])
        with pytest.raises(MissingClassError):
            estimate_prior_m1(data)

    def test_uniform_pretrain_prior_gives_uniform(self):
        cfg = SyntheticTaskConfig(k=3, dim=3, seed=4)
        batch = sample_shots(make_task(cfg), 400, seed=9)
        q = estimate_prior_m1(batch.labelled_zs())
        assert np.abs(q.probs - 1 / 3).sum() <= 0.05

    def test_recovers_skewed_prior(self):
        errs = []
        for seed in range(5):
            cfg = SyntheticTaskConfig(
                k=2, pretrain_prior=ProbabilitySimplex([2 / 3, 1 / 3]), seed=seed
            )
            batch = sample_shots(make_task(cfg), 500, seed=70 + seed)
            q = estimate_prior_m1(batch.labelled_zs())
            errs.append(abs(q.probs[0] - 2 / 3))
        assert np.mean(errs) <= 0.05

    def test_matches_m2_for_many_classes(self):
        for k, dim, shots in ((8, 8, 1000), (10, 10, 1000), (20, 20, 800), (1000, 32, 10)):
            prior = ProbabilitySimplex.from_weights(np.arange(1, k + 1, dtype=float))
            cfg = SyntheticTaskConfig(k=k, dim=dim, pretrain_prior=prior, seed=k)
            data = sample_shots(make_task(cfg), shots, seed=100 + k).labelled_zs()
            m1 = l1_distance(estimate_prior_m1(data), prior)
            m2 = l1_distance(estimate_prior_m2(data), prior)
            assert m1 <= m2 + 0.02, f"K={k}: m1 l1 {m1:.4f}, m2 l1 {m2:.4f}"

    @M1_STALL_IS_ERROR
    @pytest.mark.parametrize("k", [2, 5, 10, 20, 100])
    @pytest.mark.parametrize("separation", [1, 2, 3, 4, 5, 6, 8, 10])
    def test_gradient_vanishes_on_grid(self, k, separation):
        # m1_gradient_l1 works example-major, so this holds whatever layout M1
        # uses; at large separations most classes are rarely predicted, the
        # flat region the scaling step crosses
        prior = ProbabilitySimplex.from_weights(np.arange(1, k + 1, dtype=float))
        cfg = SyntheticTaskConfig(k=k, dim=k, mean_separation=float(separation), pretrain_prior=prior, seed=k)
        data = sample_shots(make_task(cfg), 50, seed=separation).labelled_zs()
        assert m1_gradient_l1(data, estimate_prior_m1(data)) <= 1e-9

    @M1_STALL_IS_ERROR
    @pytest.mark.parametrize("k", [100, 300, 1000])
    def test_k1000_converges_within_ten_steps(self, monkeypatch, k):
        # near the optimum Newton's predicted decrease is below the risk's
        # float resolution; a line search that demands a visible decrease
        # then backtracks to zero steps and leaves the gradient at ~1e-8
        prior = ProbabilitySimplex.from_weights(np.arange(1, k + 1, dtype=float))
        cfg = SyntheticTaskConfig(k=k, dim=32, pretrain_prior=prior, seed=k)
        data = sample_shots(make_task(cfg), 10, seed=100 + k).labelled_zs()
        monkeypatch.setattr(prior_estimation, "M1_MAX_ITERS", 10)
        assert m1_gradient_l1(data, estimate_prior_m1(data)) <= 1e-9

    @M1_STALL_IS_ERROR
    def test_degenerate_inputs_give_finite_simplex(self):
        rng = np.random.default_rng(6)
        labels = np.repeat(np.arange(3), 50)
        never = rng.normal(size=(150, 3))
        never[:, 2] = -1000.0  # class 2 is never predicted
        rare = rng.normal(size=(150, 3))
        rare[:, 2] = -30.0  # class 2 is predicted with probability ~1e-13
        always = rng.normal(size=(150, 3))
        always[:, 0] += 50.0  # every row predicts class 0
        fits = {}
        for name, scores in (("never", never), ("rare", rare), ("always", always)):
            data = LabelledLogits(LogitTable(scores), labels)
            if name == "never":
                # the prior returned cannot hold the optimum, so it says so
                with pytest.warns(RuntimeWarning, match="did not converge"):
                    q = estimate_prior_m1(data)
            else:
                q = estimate_prior_m1(data)
            assert np.all(np.isfinite(q.probs))
            assert abs(q.probs.sum() - 1.0) <= 1e-9
            fits[name] = data, q
        # the optimum needs q_2 ~ e^-1000, which underflows
        assert fits["never"][1].probs[2] == 0.0
        for name in ("rare", "always"):
            assert m1_gradient_l1(*fits[name]) <= 1e-8, name


    def test_refits_between_other_fits_are_byte_identical(self):
        # the fit's K x N block is np.empty: memory that fits at other K and
        # N, or a NaN-filled block of the same size, left in the heap must not
        # reach the prior
        def shots(k, n, seed):
            prior = ProbabilitySimplex.from_weights(np.arange(1, k + 1, dtype=float))
            cfg = SyntheticTaskConfig(k=k, dim=min(k, 32), pretrain_prior=prior, seed=k)
            return zero_shot_shots(make_task(cfg), n, seed=seed)

        data = shots(20, 200, 1)
        first = estimate_prior_m1(data).probs.tobytes()
        for k, n in ((2, 500), (50, 40), (20, 800), (100, 10), (20, 200)):
            estimate_prior_m1(shots(k, n, k + n))
            assert estimate_prior_m1(data).probs.tobytes() == first, (k, n)
            dirty = np.full((3, data.n_classes, data.n_examples), np.nan)
            del dirty
            assert estimate_prior_m1(data).probs.tobytes() == first, (k, n)


class TestEstimatePriorNaive:
    def test_uniform_rows(self):
        q = estimate_prior_naive(LogitTable(np.zeros((5, 4))))
        assert np.allclose(q.probs, 0.25)

    def test_mean_of_rows(self):
        q = estimate_prior_naive(logits_for_probs([[0.9, 0.1], [0.5, 0.5]]))
        assert np.allclose(q.probs, [0.7, 0.3])

    def test_balanced_equals_transition_times_uniform(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=(60, 3))
        labels = np.repeat(np.arange(3), 20)
        data = LabelledLogits(LogitTable(scores), labels)
        p = build_transition_matrix(data)
        naive = estimate_prior_naive(data.logits)
        assert np.abs(naive.probs - p.entries @ np.full(3, 1 / 3)).sum() <= 1e-9

    def test_population_bias_identity(self):
        # exact P built from (p11, p12); true prior solves the fixed point
        for p11, p12 in [(0.9, 0.2), (0.8, 0.3), (0.7, 0.35)]:
            q_true = p12 / (1 - p11 + p12)
            measured_naive = 0.5 * (p11 + p12)
            error = q_true - measured_naive
            assert error == pytest.approx((q_true - 0.5) * (p11 - p12), abs=1e-10)
            if p11 > 0.5 and (1 - p12) > 0.5:
                assert error > (q_true - 0.5) ** 2 / q_true


class TestM2ErrorBound:
    def test_value_k2_n100(self):
        b = m2_error_bound(2, 100, 0.05)
        assert b == pytest.approx(math.sqrt(0.02 * math.log(160)), abs=1e-12)
        assert b == pytest.approx(0.3186, abs=1e-4)

    def test_value_k2_n1000(self):
        assert m2_error_bound(2, 1000, 0.05) == pytest.approx(0.1008, abs=1e-4)

    def test_quadruple_n_halves_bound(self):
        for k, n, d in [(2, 50, 0.1), (5, 200, 0.05), (10, 16, 0.01)]:
            assert m2_error_bound(k, 4 * n, d) == pytest.approx(
                m2_error_bound(k, n, d) / 2
            )

    def test_query_validation(self):
        with pytest.raises(InvalidInput):
            m2_error_bound(1, 10, 0.05)
        with pytest.raises(InvalidInput):
            m2_error_bound(2, 0, 0.05)
        with pytest.raises(InvalidInput):
            m2_error_bound(2, 10, 1.5)
        with pytest.raises(InvalidInput, match="k must be an integer"):
            m2_error_bound(2.5, 10, 0.05)
        with pytest.raises(InvalidInput, match="n_per_class must be an integer"):
            m2_error_bound(3, 1.5, 0.05)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestEstimatorMemory:
    """Peak allocations in units of one K x N table, at K=100 and 200 shots."""

    @pytest.fixture(scope="class")
    def data(self):
        k = 100
        cfg = SyntheticTaskConfig(k=k, dim=32, mean_separation=3.0, seed=3,
                                  pretrain_prior=ProbabilitySimplex.from_weights(np.arange(1.0, k + 1)))
        return zero_shot_shots(make_task(cfg), 200, seed=4)

    def test_m1_holds_three_tables(self, data):
        # one block of three: the class-major scores, the current posteriors
        # and a line search's trial
        assert traced_peak(estimate_prior_m1, data) <= 3.5 * data.logits.scores.nbytes

    def test_m2_holds_a_fraction_of_a_table(self, data):
        # one class block at a time, never a softmax of the whole table
        assert traced_peak(estimate_prior_m2, data) <= 0.25 * data.logits.scores.nbytes

    def test_naive_holds_a_fraction_of_a_table(self, data):
        # one block of rows at a time
        assert traced_peak(estimate_prior_naive, data.logits) <= 0.25 * data.logits.scores.nbytes


def unblocked_softmax(scores):
    """Row softmax of the whole table at once, the formula the blocked kernels reproduce."""
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def block_rows(k):
    """Rows per block of the row-wise kernels."""
    return max(1, LOGIT_BLOCK_FIELDS // k)


def wide_scores(rng, n, k):
    """Scores over a wide range, so each softmax has large and tiny entries."""
    return rng.normal(size=(n, k)) * rng.choice([0.1, 3.0, 40.0], size=(n, 1))


class TestBlockIdentity:
    """The blocked estimators are bit for bit their whole-table formulas."""

    @pytest.mark.parametrize("k", [2, 20, 1000])
    @pytest.mark.parametrize("rows", ["below", "equal", "above", "not_multiple"])
    def test_naive_matches_whole_table_mean(self, k, rows):
        step = block_rows(k)
        n = {"below": step - 1, "equal": step, "above": step + 1, "not_multiple": 2 * step + 7}[rows]
        scores = wide_scores(np.random.default_rng([k, n]), n, k)
        mean = unblocked_softmax(scores).mean(axis=0)
        assert np.array_equal(estimate_prior_naive(LogitTable(scores)).probs, mean / mean.sum())

    # shots per class: small classes, and classes at and just past the
    # row-block size of the other row-wise kernels (LOGIT_BLOCK_FIELDS / K)
    @pytest.mark.parametrize(
        "k, shots",
        [(2, 3), (2, LOGIT_BLOCK_FIELDS // 2), (2, LOGIT_BLOCK_FIELDS // 2 + 1),
         (20, 3), (20, LOGIT_BLOCK_FIELDS // 20), (20, LOGIT_BLOCK_FIELDS // 20 + 1),
         (1000, 1), (1000, 3)],
    )
    @pytest.mark.parametrize("order", ["class_major", "shuffled"])
    def test_transition_matrix_matches_whole_table_means(self, k, shots, order):
        rng = np.random.default_rng([k, shots])
        # uneven classes: class 0 has five rows more than the others
        labels = np.concatenate([np.repeat(np.arange(k), shots), np.zeros(5, dtype=np.int64)])
        labels = rng.permutation(labels) if order == "shuffled" else np.sort(labels)
        scores = wide_scores(rng, labels.size, k)
        probs = unblocked_softmax(scores)
        expected = np.stack([probs[labels == j].mean(axis=0) for j in range(k)], axis=1)
        data = LabelledLogits(LogitTable(scores), labels)
        assert np.array_equal(build_transition_matrix(data).entries, expected)
