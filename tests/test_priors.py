import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from bvmlab import priors
from bvmlab.errors import ConfigurationError, RareEventError
from bvmlab.priors import (
    GaussianPrior,
    RateBranch,
    concentration_ladder,
    matern_prior,
    predict_rate,
    quadratic_form_quantile,
    small_ball_ladder,
    truncation_tail,
)
from bvmlab.spectral import BasisKind, build_basis, coeff_vector


@pytest.fixture(scope="module")
def interval():
    return build_basis(BasisKind.DIRICHLET_SINE, 24, 8)


@pytest.fixture(scope="module")
def prior(interval):
    return matern_prior(interval, r=1.0, amplitude=1.0)


class TestMaternPrior:
    def test_first_mode_variance(self, prior):
        np.testing.assert_allclose(prior.variances[0], 1.0 / (1 + math.pi**2), rtol=1e-15)

    def test_rough_prior_rejected(self, interval):
        with pytest.raises(ConfigurationError, match="r > d/2"):
            matern_prior(interval, r=0.4)

    @pytest.mark.parametrize("r, amplitude", [(1e6, 1.0), (1.0, 1e-320), (1.0, math.inf)])
    def test_variance_leaving_the_doubles_refused(self, interval, r, amplitude):
        with pytest.raises(ConfigurationError, match="0 or inf"):
            matern_prior(interval, r=r, amplitude=amplitude)

    def test_amplitude_scales_exactly(self, interval):
        base = matern_prior(interval, r=1.0, amplitude=1.0)
        doubled = matern_prior(interval, r=1.0, amplitude=2.0)
        np.testing.assert_array_equal(doubled.variances, 2.0 * base.variances)

    def test_variances_nonincreasing(self, prior):
        assert np.all(np.diff(prior.variances) <= 0)
        assert np.all(prior.variances > 0)


def _single_mode_prior(variance=1.0):
    basis = build_basis(BasisKind.DIRICHLET_SINE, 1, 8)
    tau = np.array([variance])
    tau.flags.writeable = False
    return GaussianPrior(basis=basis, variances=tau, rkhs_exponent=1.0, amplitude=variance)


class TestSmallBall:
    def test_single_gaussian_against_cdf(self):
        prior = _single_mode_prior(1.0)
        (est,) = small_ball_ladder(prior, 0.0, (1.0,), mc_samples=200_000, seed=11)
        exact = math.log(2 * scipy.stats.norm.cdf(1.0) - 1.0)
        p = math.exp(est.log_prob)
        se = math.sqrt(p * (1 - p) / est.n_samples)
        assert abs(p - math.exp(exact)) <= 4 * se
        assert est.log_low <= est.log_prob <= est.log_high

    def test_whole_space_limit(self, prior):
        (est,) = small_ball_ladder(prior, 0.0, (1e3,), mc_samples=2000, seed=3)
        assert est.log_prob == 0.0

    def test_two_mode_weighted_chi2_quadrature_oracle(self):
        basis = build_basis(BasisKind.DIRICHLET_SINE, 2, 8)
        tau = np.array([0.6, 0.2])
        tau.flags.writeable = False
        prior = GaussianPrior(basis=basis, variances=tau, rkhs_exponent=1.0, amplitude=1.0)
        delta = 0.7
        (est,) = small_ball_ladder(prior, 0.0, (delta,), mc_samples=200_000, seed=21)
        # oracle: integrate the second mode's Gaussian mass over the first mode's density
        u = np.linspace(-delta / math.sqrt(tau[0]), delta / math.sqrt(tau[0]), 20_001)
        inner_r2 = (delta**2 - tau[0] * u**2) / tau[1]
        mass = 2 * scipy.stats.norm.cdf(np.sqrt(np.clip(inner_r2, 0, None))) - 1
        exact = np.trapezoid(scipy.stats.norm.pdf(u) * mass, u)
        p = math.exp(est.log_prob)
        se = math.sqrt(p * (1 - p) / est.n_samples)
        assert abs(p - exact) <= 3 * se

    def test_rare_event_gate(self, prior):
        with pytest.raises(RareEventError):
            small_ball_ladder(prior, 0.0, (1e-9,), mc_samples=2000, seed=5)

    def test_sample_count_floor(self, prior):
        with pytest.raises(ConfigurationError):
            small_ball_ladder(prior, 0.0, (1.0,), mc_samples=500, seed=5)


def _per_delta_hits(prior, norm_exponent, delta, mc_samples, seed):
    """Reference: one fresh sample per delta, counted the way the estimator does."""
    weights = (1.0 + prior.basis.eigenvalues) ** norm_exponent * prior.variances
    rng = np.random.default_rng(seed)
    hits, remaining = 0, mc_samples
    while remaining > 0:
        block = min(4096, remaining)
        norms_sq = (rng.standard_normal((block, prior.basis.n_modes)) ** 2) @ weights
        hits += int(np.count_nonzero(norms_sq <= delta**2))
        remaining -= block
    return hits


@pytest.fixture(scope="module")
def tiny_prior():
    return matern_prior(build_basis(BasisKind.DIRICHLET_SINE, 4, 8), r=1.0)


class TestSmallBallLadder:
    def test_hits_match_per_delta_runs(self, prior):
        deltas = (0.3, 0.05, 0.1, 0.2)
        ladder = small_ball_ladder(prior, -2.0, deltas, 10_000, seed=31)
        for delta, est in zip(deltas, ladder):
            assert est.hits == _per_delta_hits(prior, -2.0, delta, 10_000, 31)
            assert est == small_ball_ladder(prior, -2.0, (delta,), 10_000, seed=31)[0]

    def test_chunk_size_changes_no_estimate(self, prior, monkeypatch):
        # the draws are read row by row and each norm is one dot product, so
        # the chunk size only bounds memory
        deltas = (0.03, 0.012, 0.02, 0.015)
        ladders = []
        for chunk in (1, 7, 256, 4096):
            monkeypatch.setattr(priors, "_MC_CHUNK", chunk)
            ladders.append(small_ball_ladder(prior, -2.0, deltas, 10_000, seed=31))
        assert all(ladder == ladders[0] for ladder in ladders)
        assert 0 < ladders[0][1].hits < ladders[0][0].hits < 10_000

    @settings(max_examples=30, deadline=None)
    @given(
        deltas=st.lists(st.floats(0.15, 2.0), min_size=1, max_size=6),
        mc_samples=st.integers(1000, 5000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hits_nondecreasing_in_delta(self, tiny_prior, deltas, mc_samples, seed):
        ladder = small_ball_ladder(tiny_prior, 0.0, deltas, mc_samples, seed)
        assert len(ladder) == len(deltas)
        ordered = sorted(zip(deltas, (est.hits for est in ladder)))
        hits = [h for _, h in ordered]
        assert all(lo <= hi for lo, hi in zip(hits, hits[1:]))
        assert all(est.n_samples == mc_samples for est in ladder)

    @pytest.mark.parametrize(
        "deltas",
        [(1e-9, 1.0), (1.0, 1e-9), (1e3, 1.0, 1e-9, 1e-12)],
        ids=["first", "second", "third"],
    )
    def test_rare_event_names_first_failing_delta(self, prior, deltas):
        with pytest.raises(RareEventError, match=r"^delta=1e-09: only 0 of 2000 draws"):
            small_ball_ladder(prior, 0.0, deltas, 2000, seed=5)

    @pytest.mark.parametrize("deltas", [(), (0.1, 0.0), (-0.1,)], ids=["empty", "zero", "negative"])
    def test_bad_deltas_rejected(self, prior, deltas):
        with pytest.raises(ConfigurationError):
            small_ball_ladder(prior, 0.0, deltas, 2000, seed=5)

    def test_concentration_ladder_matches_per_delta_terms(self, prior, interval):
        rng = np.random.default_rng(17)
        f = coeff_vector(interval, rng.standard_normal(interval.n_modes))
        deltas = (0.02, 0.04, 0.01)
        values = concentration_ladder(prior, f, deltas, -2.0, 5000, seed=9)
        for delta, value in zip(deltas, values):
            (single,) = concentration_ladder(prior, f, (delta,), -2.0, 5000, seed=9)
            assert value == single
            assert value.smallball_term == -math.log(
                _per_delta_hits(prior, -2.0, delta, 5000, 9) / 5000
            )
        ordered = [v.phi for _, v in sorted(zip(deltas, values))]
        assert ordered[0] > ordered[1] > ordered[2]


def _projected_gradient_cost(prior, f_dagger, delta, ambient_exponent, iters=200_000):
    """Independent convex-solver oracle for the constrained RKHS program."""
    tau = prior.variances
    w = (1.0 + prior.basis.eigenvalues) ** ambient_exponent
    f = f_dagger.coeffs
    g = f.copy()
    step = 0.45 * tau.min()
    for _ in range(iters):
        g = g - step * (g / tau)
        u = np.sqrt(w) * (g - f)
        r = np.linalg.norm(u)
        if r > delta:
            g = f + (delta / r) * u / np.sqrt(w)
    return 0.5 * float(np.sum(g**2 / tau))


class TestConcentrationFn:
    def test_zero_truth_has_zero_approx_cost(self, prior, interval):
        zero = coeff_vector(interval, np.zeros(interval.n_modes))
        (val,) = concentration_ladder(prior, zero, (0.05,), -2.0, 5000, seed=9)
        assert val.approx_term == 0.0
        assert val.phi == val.smallball_term

    def test_approx_term_nonincreasing_in_delta(self, prior, interval):
        rng = np.random.default_rng(17)
        f = coeff_vector(interval, rng.standard_normal(interval.n_modes))
        costs = []
        for delta in (0.05, 0.1, 0.2, 0.4):
            (val,) = concentration_ladder(prior, f, (delta,), -2.0, 2000, seed=9)
            costs.append(val.approx_term)
        assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_kkt_matches_projected_gradient(self):
        basis = build_basis(BasisKind.DIRICHLET_SINE, 20, 8)
        prior = matern_prior(basis, r=1.0)
        rng = np.random.default_rng(4)
        f = coeff_vector(basis, rng.standard_normal(basis.n_modes))
        delta = 0.08
        (val,) = concentration_ladder(prior, f, (delta,), -2.0, 2000, seed=13)
        oracle = _projected_gradient_cost(prior, f, delta, -2.0)
        assert abs(val.approx_term - oracle) <= 1e-6 * max(oracle, 1.0)

    def test_propagates_rare_event(self, prior, interval):
        zero = coeff_vector(interval, np.zeros(interval.n_modes))
        with pytest.raises(RareEventError):
            concentration_ladder(prior, zero, (1e-9,), -2.0, 2000, seed=9)


class TestConcentrationCondition:
    def test_desk_scale_inequality(self):
        # phi(delta_eps / 2c) <= (delta_eps/eps)^2 (1 + tol) with tol = 0.5 on
        # an eps-ladder, delta_eps = K eps^rho at the predicted exponent rho
        # and c the calibrated forward-map embedding constant
        from bvmlab.operators import EllipticCoefficient, elliptic_operator, embedding_constant
        from bvmlab.spectral import analyze, coeff_vector, make_bump

        basis = build_basis(BasisKind.DIRICHLET_SINE, 256, 8)
        _, l_inv = elliptic_operator(
            EllipticCoefficient(lambda x: np.ones_like(x)), basis
        )
        c = embedding_constant(l_inv, -2.0)
        assert c == pytest.approx((1 + math.pi**2) / math.pi**2, rel=1e-12)
        prior = matern_prior(basis, r=1.0, amplitude=1e5)
        bump = analyze(make_bump((0.2, 0.7), (0.35, 0.55))(basis.grid), basis)
        f_dagger = coeff_vector(basis, 50.0 * bump.coeffs)
        rho = predict_rate(2.0, 1.0, 2.0).exponent
        for eps in (0.3, 0.1, 0.05):
            delta = 5.0 * eps**rho
            (val,) = concentration_ladder(
                prior, f_dagger, (delta / (2 * c),), -2.0, mc_samples=100_000, seed=77
            )
            assert val.smallball_term >= 1.0  # the check must not be vacuous
            assert val.phi <= 1.5 * (delta / eps) ** 2


class TestQuadraticFormQuantile:
    LEVELS = (1e-12, 0.01, 0.05, 0.5, 0.95, 0.999, 1 - 1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5, 50])
    def test_chi_square_quantiles(self, k):
        # k equal weights 0.7 give 0.7 chi^2_k; zero weights drop out
        weights = np.concatenate([np.full(k, 0.7), np.zeros(3)])
        for level in self.LEVELS:
            chi2 = scipy.stats.chi2
            want = 0.7 * (chi2.ppf(level, k) if level < 0.5 else chi2.isf(1 - level, k))
            got = quadratic_form_quantile(weights, level)
            assert abs(got / want - 1) <= 1e-12, (k, level, got, want)

    def test_chi_square_two_closed_form(self):
        for level in self.LEVELS:
            want = -2.0 * math.log1p(-level)
            assert abs(quadratic_form_quantile([1.0, 1.0], level) / want - 1) <= 1e-12

    def test_hypoexponential_tail(self):
        # Z1^2 + Z2^2 + 0.3 (Z3^2 + Z4^2) is a sum of exponentials of means 2 and 0.6
        r1, r2 = 0.5, 1 / 0.6
        for level in (1e-6, 0.01, 0.3, 0.9, 0.999, 1 - 1e-9):
            x = quadratic_form_quantile([1.0, 0.3, 1.0, 0.3], level)
            if level < 0.5:
                tail = (r1 * math.expm1(-r2 * x) - r2 * math.expm1(-r1 * x)) / (r2 - r1)
                want = level
            else:
                tail = (r2 * math.exp(-r1 * x) - r1 * math.exp(-r2 * x)) / (r2 - r1)
                want = 1 - level
            assert abs(tail / want - 1) <= 1e-12, (level, tail, want)

    def test_increasing_in_level(self):
        weights = np.arange(1.0, 65.0) ** -4
        quantiles = [quadratic_form_quantile(weights, level) for level in self.LEVELS]
        assert all(np.isfinite(quantiles))
        assert quantiles == sorted(quantiles) and len(set(quantiles)) == len(quantiles)

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.1, math.nan])
    def test_level_validation(self, level):
        with pytest.raises(ConfigurationError, match="level"):
            quadratic_form_quantile([1.0, 2.0], level)

    @pytest.mark.parametrize(
        "weights", [[], [0.0, 0.0], [1.0, -0.5], [1.0, math.nan], [1.0, math.inf], [[1.0]]]
    )
    def test_weight_validation(self, weights):
        with pytest.raises(ConfigurationError, match="weights"):
            quadratic_form_quantile(weights, 0.95)


class TestPredictRate:
    def test_bvp_smooth_truth(self):
        pred = predict_rate(2.0, 1.0, 2.0)
        assert pred.exponent == pytest.approx(5.0 / 6.0)
        assert pred.which is RateBranch.SMALL_BALL_LIMITED

    def test_balanced_case(self):
        pred = predict_rate(2.0, 1.0, 0.5)
        assert pred.exponent == pytest.approx(5.0 / 6.0)
        both = (2.0 + 0.5) / (2.0 + 1.0)
        assert pred.exponent == pytest.approx(both)

    def test_rough_truth_is_approx_limited(self):
        pred = predict_rate(2.0, 1.0, 0.2)
        assert pred.which is RateBranch.APPROX_LIMITED
        assert pred.exponent == pytest.approx(2.2 / 3.0)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            predict_rate(-1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            predict_rate(2.0, 0.5, 1.0)
        with pytest.raises(ConfigurationError):
            predict_rate(2.0, 1.0, -2.5)

    def test_negative_alpha_allowed_with_smoothing(self):
        pred = predict_rate(2.0, 1.0, -1.0)
        assert pred.which is RateBranch.APPROX_LIMITED


class TestTruncationTail:
    def test_tail_positive_and_small(self, prior):
        tail = truncation_tail(prior)
        assert 0 < tail < prior.variances.sum()

    def test_tail_shrinks_with_smoother_prior(self, interval):
        rough = truncation_tail(matern_prior(interval, r=1.0))
        smooth = truncation_tail(matern_prior(interval, r=2.0))
        assert smooth < rough

    def test_torus_tail(self):
        torus = build_basis(BasisKind.FOURIER_TORUS, 33, 8)
        tail = truncation_tail(matern_prior(torus, r=1.0))
        assert 0 < tail < 1.0
