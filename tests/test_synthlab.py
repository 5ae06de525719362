import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from gla.ensemble import AdjustmentSpec, alpha_mix
from gla.errors import InvalidInput
from gla.evaluation import StudyOptions
from gla.numerics import LogitTable, ProbabilitySimplex, log_prior, softmax_matrix
from gla.prior_estimation import m2_error_bound
from gla.synthlab import (
    SyntheticTaskConfig,
    bayes_risk,
    binary_naive_bias,
    class_log_likelihoods,
    make_task,
    sample_batch,
    sample_shots,
    single_view_bayes_risk,
    zero_shot_shots,
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


def _task2():
    return make_task(SyntheticTaskConfig(k=2, seed=1))


_U2 = ProbabilitySimplex.uniform(2)

# every integer argument with a lower bound: (entry point, argument name, bound)
BOUNDED_INTEGERS = {
    "config.k": (lambda v: SyntheticTaskConfig(k=v), "k", 2),
    "config.dim": (lambda v: SyntheticTaskConfig(k=2, dim=v), "dim", 1),
    "config.seed": (lambda v: SyntheticTaskConfig(k=2, seed=v), "seed", 0),
    "sample_batch.n": (lambda v: sample_batch(_task2(), _U2, v, 0), "n", 1),
    "sample_batch.seed": (lambda v: sample_batch(_task2(), _U2, 4, v), "seed", 0),
    "zero_shot_shots.n_per_class": (lambda v: zero_shot_shots(_task2(), v, 0), "n_per_class", 1),
    "zero_shot_shots.seed": (lambda v: zero_shot_shots(_task2(), 2, v), "seed", 0),
    "sample_shots.n_per_class": (lambda v: sample_shots(_task2(), v, 0), "n_per_class", 1),
    "sample_shots.seed": (lambda v: sample_shots(_task2(), 2, v), "seed", 0),
    "study.shots": (lambda v: StudyOptions(shots=[10, v]), "shots[1]", 1),
    "study.trials": (lambda v: StudyOptions(trials=v), "trials", 1),
    "study.base_seed": (lambda v: StudyOptions(base_seed=v), "base_seed", 0),
    "m2_error_bound.k": (lambda v: m2_error_bound(v, 10, 0.05), "k", 2),
    "m2_error_bound.n_per_class": (lambda v: m2_error_bound(3, v, 0.05), "n_per_class", 1),
    "uniform.k": (ProbabilitySimplex.uniform, "k", 1),
    "bayes_risk.n_mc": (lambda v: bayes_risk(_task2(), _U2, n_mc=v), "n_mc", 1),
    "bayes_risk.seed": (lambda v: bayes_risk(_task2(), _U2, n_mc=10, seed=v), "seed", 0),
    "single_view_bayes_risk.n_mc": (lambda v: single_view_bayes_risk(_task2(), _U2, n_mc=v), "n_mc", 1),
    "single_view_bayes_risk.seed": (
        lambda v: single_view_bayes_risk(_task2(), _U2, n_mc=10, seed=v), "seed", 0
    ),
}


class TestIntegerArguments:
    @pytest.mark.parametrize("case", BOUNDED_INTEGERS.values(), ids=BOUNDED_INTEGERS.keys())
    def test_lower_bound(self, case):
        entry, name, low = case
        for value in (low - 1, np.int64(low - 1)):
            with pytest.raises(InvalidInput, match=f"^{re.escape(name)} must be >= {low}, got {low - 1}$"):
                entry(value)
        entry(low)
        entry(np.int32(low))

    @pytest.mark.parametrize("value", [2.0, 2.5, True, np.True_, "2", None])
    @pytest.mark.parametrize("case", BOUNDED_INTEGERS.values(), ids=BOUNDED_INTEGERS.keys())
    def test_non_integers_named(self, case, value):
        entry, name, _ = case
        with pytest.raises(InvalidInput, match=f"^{re.escape(name)} must be an integer, got "):
            entry(value)

    @pytest.mark.parametrize("field", ["k", "dim", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_config_fields(self, field, value):
        with pytest.raises(InvalidInput, match=f"{field} must be an integer"):
            SyntheticTaskConfig(**{"k": 3, field: value})

    @pytest.mark.parametrize("value", [True, np.True_, None, "2", [2.0], 1j, np.inf, -np.inf, np.nan, 10**400])
    def test_mean_separation_is_a_finite_real(self, value):
        with pytest.raises(InvalidInput, match="mean_separation must be a finite real number"):
            SyntheticTaskConfig(k=3, mean_separation=value)

    @pytest.mark.parametrize("value", [0, 3, 2.5, np.float32(1.5), np.int64(2)])
    def test_mean_separation_accepts_reals(self, value):
        assert SyntheticTaskConfig(k=3, mean_separation=value).mean_separation == value

    def test_config_accepts_numpy_ints(self):
        cfg = SyntheticTaskConfig(k=np.int64(3), dim=np.int32(2), seed=np.uint8(4))
        assert cfg.pretrain_prior.k == 3

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
    def test_sampler_arguments(self, value):
        task = make_task(SyntheticTaskConfig(k=2, seed=1))
        u = ProbabilitySimplex.uniform(2)
        with pytest.raises(InvalidInput, match="n must be an integer"):
            sample_batch(task, u, value, 0)
        with pytest.raises(InvalidInput, match="seed must be an integer"):
            sample_batch(task, u, 4, value)
        with pytest.raises(InvalidInput, match="n_per_class must be an integer"):
            sample_shots(task, value, 0)
        with pytest.raises(InvalidInput, match="seed must be an integer"):
            sample_shots(task, 2, value)

    def test_samplers_accept_numpy_ints(self):
        task = make_task(SyntheticTaskConfig(k=2, seed=1))
        a = sample_shots(task, np.int64(3), np.int32(5))
        b = sample_shots(task, 3, 5)
        assert np.array_equal(a.zs_logits.scores, b.zs_logits.scores)
        c = sample_batch(task, ProbabilitySimplex.uniform(2), np.int16(4), np.int64(5))
        assert np.array_equal(c.labels, sample_batch(task, ProbabilitySimplex.uniform(2), 4, 5).labels)


def _alpha_mix(alpha):
    t = LogitTable(np.zeros((2, 2)))
    adj = AdjustmentSpec(pi_s=log_prior(_U2), pi_p=log_prior(_U2))
    return alpha_mix(t, t, adj, alpha)


# every real argument: (entry point, argument name, values inside, values outside
# with the interval the message names)
BOUNDED_REALS = {
    "mean_separation": (
        lambda v: SyntheticTaskConfig(k=2, mean_separation=v), "mean_separation",
        [0, 0.0, 3, 1e300, np.float32(1.5)], [-1e-300, -1], "[0, inf]",
    ),
    "alpha_mix.alpha": (_alpha_mix, "alpha", [0, 0.0, 0.5, 1, np.float32(1.0)], [-0.1, 1.5, -1], "[0, 1]"),
    "m2_error_bound.delta": (
        lambda v: m2_error_bound(3, 10, v), "delta", [0.05, np.float32(0.5), 1e-300], [0, 0.0, 1, 1.0, 2], "(0, 1)",
    ),
}


class TestRealArguments:
    @pytest.mark.parametrize("case", BOUNDED_REALS.values(), ids=BOUNDED_REALS.keys())
    def test_bounds(self, case):
        entry, name, inside, outside, interval = case
        for value in inside:
            entry(value)
        for value in outside:
            with pytest.raises(InvalidInput, match=f"^{name} must lie in {re.escape(interval)}, got "):
                entry(value)

    @pytest.mark.parametrize(
        "value",
        [True, np.True_, None, "0.5", [0.5], 1j, math.inf, -math.inf, math.nan, 10**400],
        ids=["True", "np.True_", "None", "str", "list", "complex", "inf", "-inf", "nan", "10**400"],
    )
    @pytest.mark.parametrize("case", BOUNDED_REALS.values(), ids=BOUNDED_REALS.keys())
    def test_non_reals_named(self, case, value):
        entry, name = case[:2]
        with pytest.raises(InvalidInput, match=f"^{name} must be a finite real number, got "):
            entry(value)


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
        # a row's logits do not depend on the rest of its batch: scored
        # alone (N=1), inside a slice or inside a permuted batch, the bits
        # are the same
        rng = np.random.default_rng(18)
        for k, dim in ((2, 2), (7, 3), (50, 5), (1000, 32)):
            task = make_task(SyntheticTaskConfig(k=k, dim=dim, mean_separation=3.0, seed=k))
            x = task.means_view2[rng.integers(k, size=40)] + rng.standard_normal((40, dim))
            full = class_log_likelihoods(task, x, view=2)
            perm = rng.permutation(40)
            assert np.array_equal(class_log_likelihoods(task, x[perm], view=2), full[perm])
            assert np.array_equal(class_log_likelihoods(task, x[5:31], view=2), full[5:31])
            for i in (0, 17, 39):
                alone = class_log_likelihoods(task, x[i:i + 1], view=2)
                assert np.array_equal(alone, full[i:i + 1]), f"K={k}, row {i}"


class TestClassLogLikelihoods:
    @pytest.mark.parametrize("k, dim", [(2, 2), (10, 10), (20, 20), (7, 3), (1000, 32)])
    @pytest.mark.parametrize("separation", [0.0, 3.0, 10.0])
    def test_matches_broadcast_oracle(self, k, dim, separation):
        # the expanded square against -Σ(x - μ)²/2 formed directly, on rows
        # at a mean, near one, typical, and far from every mean, where the
        # expansion cancels most
        task = make_task(SyntheticTaskConfig(k=k, dim=dim, mean_separation=separation, seed=k))
        rng = np.random.default_rng(dim)
        for view, means in ((1, task.means_view1), (2, task.means_view2)):
            picks = rng.integers(k, size=20)
            x = np.vstack([
                means[picks[:5]],
                means[picks[5:10]] + 1e-6 * rng.standard_normal((5, dim)),
                means[picks[10:]] + rng.standard_normal((10, dim)),
                1e3 * rng.standard_normal((5, dim)),
            ])
            diff = x[:, None, :] - means[None, :, :]
            oracle = -np.sum(diff * diff, axis=2) / 2.0
            scale = 1.0 + np.sum(x * x, axis=1)[:, None] + np.sum(means * means, axis=1)
            err = np.abs(class_log_likelihoods(task, x, view=view) - oracle)
            assert np.all(err <= 1e-12 * scale), f"view {view}: worst {np.max(err / scale):.2e}"

    @pytest.mark.parametrize("view", [0, 3, "1", True, False, np.True_, 1.0, 2.0, np.float64(1.0), None])
    def test_rejects_unknown_view(self, view):
        task = make_task(SyntheticTaskConfig(k=3, seed=1))
        u = ProbabilitySimplex.uniform(3)
        with pytest.raises(InvalidInput, match="^view must be 1 or 2"):
            class_log_likelihoods(task, np.zeros((4, 2)), view=view)
        with pytest.raises(InvalidInput, match="^view must be 1 or 2"):
            single_view_bayes_risk(task, u, view=view, n_mc=10)

    def test_accepts_numpy_integer_view(self):
        task = make_task(SyntheticTaskConfig(k=3, seed=1))
        x = np.ones((4, 2))
        assert np.array_equal(class_log_likelihoods(task, x, np.int64(2)), class_log_likelihoods(task, x, 2))
        u = ProbabilitySimplex.uniform(3)
        assert single_view_bayes_risk(task, u, np.int8(2), 100) == single_view_bayes_risk(task, u, 2, 100)


class TestSampleShots:
    def test_k1000_fits_in_memory(self):
        # ImageNet's class count: N×K logit tables only, no N×K×D temporary
        task = make_task(SyntheticTaskConfig(k=1000, dim=32, seed=28))
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            batch = sample_shots(task, 10, seed=29)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.zs_logits.scores.shape == (10_000, 1000)
        assert peak < 512e6, f"peak {peak / 1e6:.0f} MB"

    def test_exact_counts(self):
        cfg = SyntheticTaskConfig(k=3, dim=3, seed=18)
        batch = sample_shots(make_task(cfg), 7, seed=19)
        assert np.array_equal(np.bincount(batch.labels), [7, 7, 7])

    def test_rejects_zero_shots(self):
        cfg = SyntheticTaskConfig(k=2, seed=18)
        with pytest.raises(InvalidInput):
            sample_shots(make_task(cfg), 0, seed=19)
        with pytest.raises(InvalidInput):
            zero_shot_shots(make_task(cfg), 0, seed=19)

    @pytest.mark.parametrize("k, dim, shots", [(2, 2, 40), (7, 3, 30), (50, 16, 6), (1000, 32, 3)])
    def test_zero_shot_shots_is_the_zero_shot_view(self, k, dim, shots):
        cfg = SyntheticTaskConfig(k=k, dim=dim, mean_separation=3.0, pretrain_prior=skewed(k, k), seed=k)
        task = make_task(cfg)
        a = zero_shot_shots(task, shots, seed=33)
        b = sample_shots(task, shots, seed=33).labelled_zs()
        assert a.logits.scores.tobytes() == b.logits.scores.tobytes()
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("k, dim, shots", [(2, 2, 40), (7, 3, 30), (50, 16, 6)])
    def test_smaller_batch_is_the_per_class_prefix(self, k, dim, shots):
        # the convergence study cuts every smaller shot count out of one draw
        cfg = SyntheticTaskConfig(k=k, dim=dim, mean_separation=3.0, pretrain_prior=skewed(k, k),
                                  source_prior=skewed(k, k + 1), seed=k)
        task = make_task(cfg)
        full = sample_shots(task, shots, seed=34)
        for n in (1, 2, shots // 2, shots - 1):
            part = sample_shots(task, n, seed=34)
            zs = zero_shot_shots(task, n, seed=34)
            for view, table in (("zs", part.zs_logits), ("ft", part.ft_logits), ("zero_shot_shots", zs.logits)):
                whole = (full.ft_logits if view == "ft" else full.zs_logits).scores
                prefix = whole.reshape(k, shots, k)[:, :n].reshape(k * n, k)
                assert table.scores.tobytes() == prefix.tobytes(), (view, n)
            assert np.array_equal(part.labels, full.labels.reshape(k, shots)[:, :n].ravel())
            assert np.array_equal(zs.labels, part.labels)


def batch_digest(batch):
    h = hashlib.sha256()
    for arr in (batch.zs_logits.scores, batch.ft_logits.scores, batch.labels):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# The prior entries are powers of two, whose logs numpy returns alike with
# and without its AVX-512 kernels, so the digests pin the seed streams and
# the scoring rather than the machine's log.
@pytest.mark.parametrize("k, dim, weights, batch, shots", [
    (4, 3, [4, 2, 1, 1],
     "ed595ab89a02d9b817092e7ca9a1589b812d21a787011e955921818003fd6e80",
     "8ceac93d15135a47002d16978e8412719d9c29c53660304396c0d04ded28395d"),
    (8, 5, [4, 4, 2, 2, 1, 1, 1, 1],
     "25f6ea6851556294ec113b7437c0e802841907307f16b4578e337c5a309fa5e3",
     "854d69bf1a2c6d4b16acfea09bd4e6aad8753cd3f4b6d13cba901c4fd42da1d1"),
])
def test_sampler_golden_digests(k, dim, weights, batch, shots):
    pre = ProbabilitySimplex.from_weights(weights)
    src = ProbabilitySimplex.from_weights(weights[::-1])
    cfg = SyntheticTaskConfig(k=k, dim=dim, mean_separation=2.5, pretrain_prior=pre, source_prior=src, seed=31)
    task = make_task(cfg)
    assert batch_digest(sample_batch(task, pre, 500, seed=7)) == batch
    assert batch_digest(sample_shots(task, 25, seed=8)) == shots


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
