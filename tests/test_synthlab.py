import numpy as np
import pytest

from gla.errors import InvalidInput
from gla.numerics import ProbabilitySimplex, softmax_matrix
from gla.synthlab import (
    SyntheticTaskConfig,
    bayes_risk,
    binary_naive_bias,
    make_task,
    sample_batch,
    sample_shots,
    single_view_bayes_risk,
)


def skewed(k, seed=0):
    rng = np.random.default_rng(seed)
    return ProbabilitySimplex.from_weights(rng.uniform(0.5, 3.0, k))


class TestMakeTask:
    def test_deterministic(self):
        cfg = SyntheticTaskConfig(k=3, dim=3, seed=12)
        a, b = make_task(cfg), make_task(cfg)
        assert np.array_equal(a.means_view1, b.means_view1)
        assert np.array_equal(a.means_view2, b.means_view2)

    def test_zero_separation_posterior_equals_prior(self):
        prior = ProbabilitySimplex([0.7, 0.3])
        cfg = SyntheticTaskConfig(k=2, mean_separation=0.0, pretrain_prior=prior, seed=1)
        batch = sample_batch(make_task(cfg), prior, 200, seed=2)
        posts = softmax_matrix(batch.zs_logits.scores)
        assert np.allclose(posts, prior.probs, atol=1e-12)

    def test_pairwise_mean_distance(self):
        cfg = SyntheticTaskConfig(k=3, dim=5, mean_separation=2.5, seed=3)
        task = make_task(cfg)
        for i in range(3):
            for j in range(i + 1, 3):
                d = np.linalg.norm(task.means_view1[i] - task.means_view1[j])
                assert d == pytest.approx(2.5)

    def test_more_separation_lowers_bayes_error(self):
        risks = []
        for sep in (1.0, 2.0):
            cfg = SyntheticTaskConfig(k=2, mean_separation=sep, seed=4)
            risks.append(
                single_view_bayes_risk(
                    make_task(cfg), ProbabilitySimplex.uniform(2), n_mc=100_000, seed=5
                )
            )
        assert risks[1] < risks[0]


class TestSampleBatch:
    def test_one_hot_prior(self):
        cfg = SyntheticTaskConfig(k=2, seed=6)
        batch = sample_batch(make_task(cfg), ProbabilitySimplex([1.0, 0.0]), 50, seed=7)
        assert np.all(batch.labels == 0)

    def test_rejects_empty_batch(self):
        cfg = SyntheticTaskConfig(k=2, seed=6)
        with pytest.raises(InvalidInput):
            sample_batch(make_task(cfg), ProbabilitySimplex.uniform(2), 0, seed=7)

    def test_label_frequencies_concentrate(self):
        prior = ProbabilitySimplex([0.5, 0.3, 0.2])
        cfg = SyntheticTaskConfig(k=3, dim=3, seed=8)
        n = 20_000
        batch = sample_batch(make_task(cfg), prior, n, seed=9)
        freqs = np.bincount(batch.labels, minlength=3) / n
        for p, f in zip(prior.probs, freqs):
            assert abs(f - p) <= 3 * np.sqrt(p * (1 - p) / n)

    def test_deterministic(self):
        cfg = SyntheticTaskConfig(k=2, seed=10)
        task = make_task(cfg)
        a = sample_batch(task, ProbabilitySimplex.uniform(2), 100, seed=11)
        b = sample_batch(task, ProbabilitySimplex.uniform(2), 100, seed=11)
        assert np.array_equal(a.zs_logits.scores, b.zs_logits.scores)
        assert np.array_equal(a.labels, b.labels)

    def test_zs_rows_embed_pretrain_posterior(self):
        # softmax of each zs row must equal the view-1 posterior under the
        # pre-train prior, computed independently from the task parameters
        prior = ProbabilitySimplex([0.8, 0.2])
        cfg = SyntheticTaskConfig(k=2, pretrain_prior=prior, seed=12)
        task = make_task(cfg)
        batch = sample_batch(task, ProbabilitySimplex.uniform(2), 20, seed=13)
        posts = softmax_matrix(batch.zs_logits.scores)
        # recompute via Bayes rule on Gaussian densities
        for r in range(20):
            zs_row = batch.zs_logits.scores[r]
            dens = np.exp(zs_row - zs_row.max())
            assert np.allclose(posts[r], dens / dens.sum())

    def test_conditional_independence_of_views(self):
        cfg = SyntheticTaskConfig(k=2, seed=14)
        task = make_task(cfg)
        batch = sample_batch(task, ProbabilitySimplex([1.0, 0.0]), 10_000, seed=15)
        zs = batch.zs_logits.scores
        ft = batch.ft_logits.scores
        for i in range(2):
            for j in range(2):
                corr = np.corrcoef(zs[:, i], ft[:, j])[0, 1]
                assert abs(corr) <= 0.05

    def test_label_shift_faithfulness(self):
        # same seeds, different priors: per-class feature draws identical
        cfg = SyntheticTaskConfig(k=2, seed=16)
        task = make_task(cfg)
        a = sample_batch(task, ProbabilitySimplex([0.5, 0.5]), 2000, seed=17)
        b = sample_batch(task, ProbabilitySimplex([0.8, 0.2]), 2000, seed=17)
        for c in range(2):
            xa = a.zs_logits.scores[a.labels == c]
            xb = b.zs_logits.scores[b.labels == c]
            m = min(len(xa), len(xb))
            assert np.array_equal(xa[:m], xb[:m])


class TestSampleShots:
    def test_exact_counts(self):
        cfg = SyntheticTaskConfig(k=3, dim=3, seed=18)
        batch = sample_shots(make_task(cfg), 7, seed=19)
        assert np.array_equal(np.bincount(batch.labels), [7, 7, 7])

    def test_rejects_zero_shots(self):
        cfg = SyntheticTaskConfig(k=2, seed=18)
        with pytest.raises(InvalidInput):
            sample_shots(make_task(cfg), 0, seed=19)


class TestBayesRisk:
    def test_chance_level_at_zero_separation(self):
        cfg = SyntheticTaskConfig(k=2, mean_separation=0.0, seed=20)
        r = bayes_risk(make_task(cfg), ProbabilitySimplex.uniform(2), n_mc=50_000, seed=21)
        assert r == pytest.approx(0.5, abs=3 * np.sqrt(0.25 / 50_000))

    def test_huge_separation_is_near_perfect(self):
        cfg = SyntheticTaskConfig(k=2, mean_separation=50.0, seed=22)
        r = bayes_risk(make_task(cfg), ProbabilitySimplex.uniform(2), n_mc=50_000, seed=23)
        assert r <= 0.001

    def test_two_views_beat_one(self):
        cfg = SyntheticTaskConfig(k=3, dim=3, mean_separation=1.5, seed=24)
        task = make_task(cfg)
        u = ProbabilitySimplex.uniform(3)
        assert bayes_risk(task, u, 100_000, seed=25) <= single_view_bayes_risk(
            task, u, view=1, n_mc=100_000, seed=25
        )

    @pytest.mark.parametrize("risk", [bayes_risk, single_view_bayes_risk])
    def test_rejects_wrong_prior_length(self, risk):
        task = make_task(SyntheticTaskConfig(k=2, seed=26))
        with pytest.raises(InvalidInput, match="prior length"):
            risk(task, ProbabilitySimplex.uniform(3), n_mc=100, seed=27)

    @pytest.mark.parametrize("risk", [bayes_risk, single_view_bayes_risk])
    def test_rejects_negative_seed(self, risk):
        task = make_task(SyntheticTaskConfig(k=2, seed=26))
        with pytest.raises(InvalidInput, match="seed"):
            risk(task, ProbabilitySimplex.uniform(2), n_mc=100, seed=-1)

    @pytest.mark.parametrize("risk", [bayes_risk, single_view_bayes_risk])
    def test_rejects_empty_sample(self, risk):
        task = make_task(SyntheticTaskConfig(k=2, seed=26))
        with pytest.raises(InvalidInput):
            risk(task, ProbabilitySimplex.uniform(2), n_mc=0, seed=27)


class TestBinaryNaiveBias:
    def test_worked_point(self):
        out = binary_naive_bias(0.9, 0.2)
        assert out["q_true"] == pytest.approx(2 / 3)
        assert out["q_naive"] == pytest.approx(0.55)
        assert out["error"] == pytest.approx(7 / 60)
        assert out["lower_bound"] == pytest.approx(1 / 24)
        assert out["error"] > out["lower_bound"]

    def test_symmetric_limit(self):
        out = binary_naive_bias(0.51, 0.495)
        assert abs(out["error"]) < 1e-3
        assert out["lower_bound"] < 1e-3

    def test_degenerate_identity_transition(self):
        with pytest.raises(InvalidInput):
            binary_naive_bias(1.0, 0.0)

    def test_error_identity_and_bound_on_grid(self):
        for p11 in np.linspace(0.55, 0.99, 12):
            for p12 in np.linspace(0.02, 0.45, 12):
                if p12 >= p11 or p11 + p12 <= 1.0:
                    continue
                out = binary_naive_bias(float(p11), float(p12))
                q = out["q_true"]
                assert out["error"] == pytest.approx((q - 0.5) * (p11 - p12), abs=1e-14)
                assert out["error"] > out["lower_bound"]

    def test_precondition_validation(self):
        with pytest.raises(InvalidInput):
            binary_naive_bias(0.4, 0.2)  # p11 below 0.5
        with pytest.raises(InvalidInput):
            binary_naive_bias(0.9, 0.95)  # p12 above p11
