import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gla.ensemble import (
    AdjustmentSpec,
    alpha_mix,
    debias_zero_shot,
    gla_combine,
    logit_adjust,
    naive_ensemble,
)
from gla.errors import DimensionError, InvalidInput
from gla.numerics import LOGIT_BLOCK_FIELDS, LogitTable, ProbabilitySimplex, log_prior


def log_vec(*probs):
    return np.log(np.asarray(probs))


@pytest.fixture
def rng_tables():
    rng = np.random.default_rng(17)
    ft = LogitTable(rng.normal(size=(40, 4)))
    zs = LogitTable(rng.normal(size=(40, 4)))
    return ft, zs


class TestAdjustmentSpec:
    def test_rejects_non_simplex_exponential(self):
        # an entry whose exp overflows is refused before it, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pi_s in ([0.0, 0.0], [1000.0, 0.0], [1e308, -1e308]):
                with pytest.raises(InvalidInput, match="^pi_s must exponentiate to a probability simplex$"):
                    AdjustmentSpec(pi_s=np.array(pi_s), pi_p=log_vec(0.5, 0.5))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DimensionError):
            AdjustmentSpec(pi_s=log_vec(0.5, 0.5), pi_p=log_vec(0.2, 0.3, 0.5))

    def test_alpha_bounds(self, rng_tables):
        ft, zs = rng_tables
        adj = AdjustmentSpec(pi_s=log_vec(*[0.25] * 4), pi_p=log_vec(*[0.25] * 4))
        for alpha in (1.5, -0.1, math.nan):
            with pytest.raises(InvalidInput):
                alpha_mix(ft, zs, adj, alpha)

    def test_accepts_floored_one_hot_prior(self):
        one_hot = ProbabilitySimplex(np.eye(10)[3])
        spec = AdjustmentSpec(
            pi_s=log_prior(one_hot), pi_p=log_prior(ProbabilitySimplex.uniform(10))
        )
        assert abs(np.exp(spec.pi_s).sum() - 1.0) <= 1e-12
        assert np.argmax(spec.pi_s) == 3


@st.composite
def priors_with_zeros(draw):
    """A K-class prior, K in [2, 1000], with any entries zero or subnormal."""
    k = draw(st.integers(2, 1000))
    weights = draw(arrays(np.float64, k, elements=st.floats(0.0, 1.0)))
    weights[draw(st.integers(0, k - 1))] = 1.0  # some mass somewhere
    return ProbabilitySimplex.from_weights(weights)


class TestFixedFloor:
    @settings(max_examples=60, deadline=None)
    @given(p=priors_with_zeros(), seed=st.integers(0, 2**32 - 1))
    def test_any_prior_gives_finite_logits(self, p, seed):
        lp = log_prior(p)
        assert np.all(np.isfinite(lp))
        assert abs(float(np.exp(lp).sum()) - 1.0) <= 1e-12
        spec = AdjustmentSpec(pi_s=lp, pi_p=lp[::-1])
        rng = np.random.default_rng(seed)
        ft, zs = (LogitTable(rng.normal(size=(3, p.k))) for _ in range(2))
        assert np.all(np.isfinite(gla_combine(ft, zs, spec).scores))


class TestDebiasZeroShot:
    def test_uniform_prior_keeps_argmax(self, rng_tables):
        _, zs = rng_tables
        out = debias_zero_shot(zs, np.full(4, math.log(0.25)))
        assert np.array_equal(np.argmax(out.scores, 1), np.argmax(zs.scores, 1))

    def test_worked_row(self):
        out = debias_zero_shot(LogitTable([[1.0, 1.0]]), log_vec(0.9, 0.1))
        assert out.scores[0] == pytest.approx(
            [1 - math.log(0.9), 1 - math.log(0.1)], abs=1e-5
        )
        assert np.argmax(out.scores[0]) == 1  # argmax flips from the tie at 0

    def test_inverse_round_trip(self, rng_tables):
        _, zs = rng_tables
        pi = log_vec(0.1, 0.2, 0.3, 0.4)
        back = debias_zero_shot(debias_zero_shot(zs, pi), -pi)
        # (a - b) + b is only exact up to one ulp in floats
        assert np.allclose(back.scores, zs.scores, rtol=0, atol=1e-14)

    def test_dimension_error(self, rng_tables):
        _, zs = rng_tables
        with pytest.raises(DimensionError):
            debias_zero_shot(zs, log_vec(0.5, 0.5))


class TestLogitAdjust:
    def test_uniform_keeps_argmax(self, rng_tables):
        ft, _ = rng_tables
        out = logit_adjust(ft, np.full(4, math.log(0.25)))
        assert np.array_equal(np.argmax(out.scores, 1), np.argmax(ft.scores, 1))

    def test_worked_row(self):
        out = logit_adjust(LogitTable([[0.0, 0.0]]), log_vec(0.75, 0.25))
        assert out.scores[0] == pytest.approx([0.28768, 1.38629], abs=1e-5)

    def test_floored_prior_stays_finite(self):
        from gla.numerics import ProbabilitySimplex, log_prior

        pi = log_prior(ProbabilitySimplex([1.0, 0.0]))
        out = logit_adjust(LogitTable([[1.0, 2.0]]), pi)
        assert np.all(np.isfinite(out.scores))


class TestGlaCombine:
    def test_uniform_priors_match_naive_argmax(self, rng_tables):
        ft, zs = rng_tables
        u = np.full(4, math.log(0.25))
        out = gla_combine(ft, zs, AdjustmentSpec(pi_s=u, pi_p=u))
        naive = naive_ensemble(ft, zs)
        assert np.array_equal(np.argmax(out.scores, 1), np.argmax(naive.scores, 1))

    def test_worked_row(self):
        ft = LogitTable([[1.0, 2.0]])
        zs = LogitTable([[0.5, 0.5]])
        adj = AdjustmentSpec(pi_s=log_vec(0.5, 0.5), pi_p=log_vec(0.8, 0.2))
        out = gla_combine(ft, zs, adj)
        # direct evaluation: 1.5 + ln 2 + ln 1.25 and 2.5 + ln 2 + ln 5
        expected = [
            1.5 - math.log(0.5) - math.log(0.8),
            2.5 - math.log(0.5) - math.log(0.2),
        ]
        assert out.scores[0] == pytest.approx(expected, abs=1e-12)
        assert out.scores[0] == pytest.approx([2.41629, 4.80259], abs=1e-5)

    def test_uninformative_zs_reduces_to_logit_adjust(self, rng_tables):
        ft, _ = rng_tables
        zs = LogitTable(np.zeros((40, 4)))
        pi_s = log_vec(0.1, 0.2, 0.3, 0.4)
        adj = AdjustmentSpec(pi_s=pi_s, pi_p=np.full(4, math.log(0.25)))
        out = gla_combine(ft, zs, adj)
        la = logit_adjust(ft, pi_s)
        assert np.array_equal(np.argmax(out.scores, 1), np.argmax(la.scores, 1))

    def test_decomposes_into_two_debiased_models(self, rng_tables):
        ft, zs = rng_tables
        pi_s = log_vec(0.1, 0.2, 0.3, 0.4)
        pi_p = log_vec(0.4, 0.3, 0.2, 0.1)
        combined = gla_combine(ft, zs, AdjustmentSpec(pi_s=pi_s, pi_p=pi_p))
        decomposed = naive_ensemble(logit_adjust(ft, pi_s), debias_zero_shot(zs, pi_p))
        assert np.allclose(combined.scores, decomposed.scores, atol=1e-12)

    def test_pi_t_term(self, rng_tables):
        ft, zs = rng_tables
        pi = np.full(4, math.log(0.25))
        pi_t = log_vec(0.4, 0.3, 0.2, 0.1)
        out = gla_combine(ft, zs, AdjustmentSpec(pi_s=pi, pi_p=pi, pi_t=pi_t))
        base = gla_combine(ft, zs, AdjustmentSpec(pi_s=pi, pi_p=pi))
        assert np.allclose(out.scores, base.scores + pi_t)

    def test_requires_both_priors(self):
        u = np.full(4, math.log(0.25))
        with pytest.raises(TypeError):
            AdjustmentSpec(pi_s=u)
        with pytest.raises(TypeError):
            AdjustmentSpec(pi_p=u)
        with pytest.raises(InvalidInput):
            AdjustmentSpec(pi_s=None, pi_p=u)


def test_combine_and_mix_equal_written_formulas():
    rng = np.random.default_rng(5)
    for k in (2, 7, 50):
        ft = rng.normal(scale=30.0, size=(300, k))
        zs = rng.normal(scale=30.0, size=(300, k))
        pi_s, pi_p, pi_t = (np.log(rng.dirichlet(np.ones(k))) for _ in range(3))
        for adj in (AdjustmentSpec(pi_s=pi_s, pi_p=pi_p), AdjustmentSpec(pi_s=pi_s, pi_p=pi_p, pi_t=pi_t)):
            expected = ft + zs - pi_s - pi_p
            if adj.pi_t is not None:
                expected = expected + pi_t
            assert np.array_equal(gla_combine(LogitTable(ft), LogitTable(zs), adj).scores, expected)
            for alpha in (0.0, 0.3, 0.5, 1.0):
                if adj.pi_t is not None:
                    with pytest.raises(InvalidInput, match="pi_t"):
                        alpha_mix(LogitTable(ft), LogitTable(zs), adj, alpha)
                    continue
                mixed = alpha_mix(LogitTable(ft), LogitTable(zs), adj, alpha).scores
                assert np.array_equal(mixed, (1.0 - alpha) * (zs - pi_p) + alpha * (ft - pi_s))


class TestNaiveEnsemble:
    def test_zero_zs_is_identity(self, rng_tables):
        ft, _ = rng_tables
        out = naive_ensemble(ft, LogitTable(np.zeros((40, 4))))
        assert np.array_equal(out.scores, ft.scores)

    def test_tie_breaks_to_lowest_index(self):
        out = naive_ensemble(LogitTable([[1.0, 0.0]]), LogitTable([[0.0, 1.0]]))
        assert np.allclose(out.scores, [[1.0, 1.0]])
        assert np.argmax(out.scores[0]) == 0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            naive_ensemble(LogitTable(np.zeros((2, 2))), LogitTable(np.zeros((3, 2))))


class TestAlphaMix:
    def setup_method(self):
        rng = np.random.default_rng(23)
        self.ft = LogitTable(rng.normal(size=(30, 3)))
        self.zs = LogitTable(rng.normal(size=(30, 3)))
        self.adj = AdjustmentSpec(
            pi_s=log_vec(0.5, 0.3, 0.2), pi_p=log_vec(0.2, 0.3, 0.5)
        )

    def test_alpha_one_is_logit_adjust(self):
        out = alpha_mix(self.ft, self.zs, self.adj, 1.0)
        assert np.array_equal(out.scores, logit_adjust(self.ft, self.adj.pi_s).scores)

    def test_alpha_zero_is_debias(self):
        out = alpha_mix(self.ft, self.zs, self.adj, 0.0)
        assert np.array_equal(out.scores, debias_zero_shot(self.zs, self.adj.pi_p).scores)

    def test_half_matches_gla_argmax(self):
        out = alpha_mix(self.ft, self.zs, self.adj, 0.5)
        combined = gla_combine(self.ft, self.zs, self.adj)
        assert np.array_equal(
            np.argmax(out.scores, 1), np.argmax(combined.scores, 1)
        )


def test_alpha_mix_holds_one_table():
    # tables of many row blocks: the mix allocates its output and one
    # block, as gla_combine allocates its output, with the written
    # formula's bits
    rng = np.random.default_rng(9)
    n, k = 24 * (LOGIT_BLOCK_FIELDS // 1000) + 7, 1000
    ft, zs = LogitTable(rng.normal(size=(n, k))), LogitTable(rng.normal(size=(n, k)))
    pi_s, pi_p = (np.log(rng.dirichlet(np.ones(k))) for _ in range(2))
    adj = AdjustmentSpec(pi_s=pi_s, pi_p=pi_p)
    peaks = {}
    for name, combine in (("mix", lambda: alpha_mix(ft, zs, adj, 0.3)), ("combine", lambda: gla_combine(ft, zs, adj))):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = combine()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / ft.scores.nbytes
        finally:
            tracemalloc.stop()
    assert peaks["mix"] <= 1.1, peaks
    assert np.array_equal(out.scores, ft.scores + zs.scores - pi_s - pi_p)
    mixed = alpha_mix(ft, zs, adj, 0.3).scores
    assert np.array_equal(mixed, 0.7 * (zs.scores - pi_p) + 0.3 * (ft.scores - pi_s))
