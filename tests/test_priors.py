import math
import time

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from bvmlab import priors
from bvmlab.errors import ConfigurationError, NumericalError, RareEventError
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

import reference
from reference import field_ladder_hits


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
        # the mass the count is drawn from is the closed form
        assert est.log_exact == pytest.approx(exact, rel=1e-13)

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
        assert abs(math.exp(est.log_exact) - exact) <= 1e-6

    def test_rare_event_gate(self, prior):
        with pytest.raises(RareEventError):
            small_ball_ladder(prior, 0.0, (1e-9,), mc_samples=2000, seed=5)

    def test_sample_count_floor(self, prior):
        with pytest.raises(ConfigurationError):
            small_ball_ladder(prior, 0.0, (1.0,), mc_samples=500, seed=5)


@pytest.fixture(scope="module")
def tiny_prior():
    return matern_prior(build_basis(BasisKind.DIRICHLET_SINE, 4, 8), r=1.0)


def _ladder_prior():
    """The prior of the benchmark's smallball-ladder workload: 256 modes, r = 1."""
    return matern_prior(build_basis(BasisKind.DIRICHLET_SINE, 256, 8), r=1.0)


def _norm_weights(prior, norm_exponent):
    return (1.0 + prior.basis.eigenvalues) ** norm_exponent * prior.variances


class TestFieldOracle:
    def test_chunk_size_changes_no_estimate(self, prior, monkeypatch):
        # the draws are read row by row and each norm is one dot product, so
        # the chunk size only bounds memory
        deltas = (0.03, 0.012, 0.02, 0.015)
        ladders = []
        for chunk in (1, 7, 256, 4096):
            monkeypatch.setattr(reference, "MC_CHUNK", chunk)
            ladders.append(field_ladder_hits(prior, -2.0, deltas, 10_000, seed=31))
        assert all(ladder == ladders[0] for ladder in ladders)
        assert 0 < ladders[0][1] < ladders[0][0] < 10_000

    @pytest.mark.parametrize(
        "case",
        ["interval-24", "tiny-l2", "smallball-ladder"],
    )
    def test_exact_mass_in_field_wilson_band(self, prior, tiny_prior, case):
        # the exact mass each count is drawn from lies in the Wilson 95% band
        # (the one the CLI reports) of simulated prior fields, and in that of
        # the drawn count
        setting, norm_exponent, deltas, n = {
            "interval-24": (prior, -2.0, (0.03, 0.012, 0.02, 0.015), 100_000),
            "tiny-l2": (tiny_prior, 0.0, (0.2, 0.3, 0.45, 0.7), 100_000),
            "smallball-ladder": (_ladder_prior(), -2.0, (0.02, 0.01, 0.005, 0.0025), 50_000),
        }[case]
        field = field_ladder_hits(setting, norm_exponent, deltas, n, seed=2024)
        ladder = small_ball_ladder(setting, norm_exponent, deltas, n, seed=2024)
        for hits, est in zip(field, ladder):
            p = math.exp(est.log_exact)
            for count in (hits, est.hits):
                low, high = priors._wilson_interval(count, n)
                assert low <= p <= high
            assert 0.01 < p < 0.99  # every band is informative


class TestSmallBallLadder:
    def test_cells_have_binomial_moments(self, tiny_prior):
        # each shell between neighbouring balls (and the inside of the
        # narrowest, the outside of the widest) holds a Bin(N, c) count, c its
        # exact mass; mean and variance over 300 seeds within 4 standard errors
        deltas, n, runs = (0.45, 0.2, 0.3), 2000, 300
        order = np.argsort(deltas)
        counts = []
        for seed in range(runs):
            ladder = small_ball_ladder(tiny_prior, 0.0, deltas, n, seed)
            hits = [ladder[k].hits for k in order]
            counts.append(np.diff(hits, prepend=0, append=n))
        counts = np.array(counts, dtype=float)
        masses = [math.exp(ladder[k].log_exact) for k in order]
        cells = np.diff(masses, prepend=0.0, append=1.0)
        assert np.all(cells > 0.05)
        for c, column in zip(cells, counts.T):
            var = n * c * (1 - c)
            fourth = var * (1 + 3 * (n - 2) * c * (1 - c))
            assert abs(column.mean() - n * c) <= 4 * math.sqrt(var / runs)
            var_se = math.sqrt((fourth - var**2 * (runs - 3) / (runs - 1)) / runs)
            assert abs(column.var(ddof=1) - var) <= 4 * var_se

    def test_permuted_deltas_permute_estimates(self, prior):
        # the draw depends on the set of radii only; a repeated delta gets
        # the same count
        deltas = (0.03, 0.012, 0.02, 0.015, 0.02)
        ladder = small_ball_ladder(prior, -2.0, deltas, 10_000, seed=31)
        assert ladder[2] == ladder[4]
        for perm in ((4, 3, 2, 1, 0), (1, 3, 2, 4, 0), (2, 0, 4, 1, 3)):
            permuted = small_ball_ladder(prior, -2.0, [deltas[i] for i in perm], 10_000, seed=31)
            assert permuted == tuple(ladder[i] for i in perm)
        by_delta = sorted(zip(deltas, (est.hits for est in ladder)))
        assert all(lo[1] < hi[1] or lo[0] == hi[0] for lo, hi in zip(by_delta, by_delta[1:]))

    def test_widest_count_matches_single_delta_run(self, prior):
        # the draws outside the widest ball are drawn first, as in a run at
        # that delta alone
        deltas = (0.012, 0.03, 0.02)
        ladder = small_ball_ladder(prior, -2.0, deltas, 10_000, seed=31)
        assert ladder[1] == small_ball_ladder(prior, -2.0, (0.03,), 10_000, seed=31)[0]

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

    @pytest.mark.parametrize(
        "deltas",
        [(), (0.1, 0.0), (-0.1,), (math.nan,), (1e300,)],
        ids=["empty", "zero", "negative", "nan", "square-overflows"],
    )
    def test_bad_deltas_rejected(self, prior, deltas):
        with pytest.raises(ConfigurationError):
            small_ball_ladder(prior, 0.0, deltas, 2000, seed=5)

    def test_sample_count_ceiling(self, prior):
        # NumPy's multinomial counts in int64; the cost does not grow with the count
        most = 2**63 - 1
        (est,) = small_ball_ladder(prior, -2.0, (0.02,), most, seed=5)
        assert est.n_samples == most
        assert abs(est.log_prob - est.log_exact) <= 1e-6
        with pytest.raises(ConfigurationError, match="2\\*\\*63 - 1"):
            small_ball_ladder(prior, -2.0, (0.02,), most + 1, seed=5)

    def test_concentration_ladder_permutes_per_delta_terms(self, prior, interval):
        rng = np.random.default_rng(17)
        f = coeff_vector(interval, rng.standard_normal(interval.n_modes))
        deltas = (0.02, 0.04, 0.01)
        values = concentration_ladder(prior, f, deltas, -2.0, 5000, seed=9)
        reversed_values = concentration_ladder(prior, f, deltas[::-1], -2.0, 5000, seed=9)
        assert reversed_values == values[::-1]
        for delta, value in zip(deltas, values):
            (single,) = concentration_ladder(prior, f, (delta,), -2.0, 5000, seed=9)
            assert value.approx_term == single.approx_term
            assert value.smallball_term == -math.log(value.estimate.hits / 5000)
            assert value.phi == value.approx_term + value.smallball_term
        ordered = [v.phi for _, v in sorted(zip(deltas, values))]
        assert ordered[0] > ordered[1] > ordered[2]


class TestBallMasses:
    # weights of the ladder, of an L2 ball, of one and two modes, of a flat
    # spectrum and of one dominant mode among 255 negligible ones
    WEIGHTS = {
        "smallball-ladder": lambda: _norm_weights(_ladder_prior(), -2.0),
        "tiny-l2": lambda: _norm_weights(
            matern_prior(build_basis(BasisKind.DIRICHLET_SINE, 4, 8), r=1.0), 0.0
        ),
        "one-mode": lambda: np.array([3.0]),
        "two-mode": lambda: np.array([0.6, 0.2]),
        "flat-64": lambda: np.ones(64),
        "dominant": lambda: np.array([1.0] + [1e-200] * 255),
    }

    @pytest.mark.parametrize("case", list(WEIGHTS))
    def test_sweep_from_subnormal_to_whole_space(self, case):
        # delta^2 / sum(w) over 1e-300 ... 1e6: no NumericalError at either
        # end, masses in [0, 1] and non-decreasing, exactly 0 and 1 at the ends
        weights = self.WEIGHTS[case]()
        points = np.logspace(-300, 6, 613) * weights.sum()
        log_mass = priors._ball_log_masses(weights, points)
        mass = np.exp(log_mass)
        assert np.all((mass >= 0) & (mass <= 1))
        assert np.all(np.diff(mass) >= 0)
        assert mass[0] == 0.0 and mass[-1] == 1.0
        interior = np.isfinite(log_mass) & (log_mass < 0)
        assert np.count_nonzero(interior) >= 3  # the contour integral ran
        # the Chernoff bounds that short-circuit the ends hold at every
        # point the contour integral evaluated
        w = weights / weights.sum()
        for x, lm in zip(points[interior] / weights.sum(), log_mass[interior]):
            lower, upper = (priors._chernoff_log_bound(w, x, side) for side in (False, True))
            assert lm <= lower + 1e-12
            assert math.log(-math.expm1(lm)) <= upper + 1e-12
        # the points may come in any order
        shuffled = np.random.default_rng(1).permutation(points.size)
        np.testing.assert_array_equal(
            priors._ball_log_masses(weights, points[shuffled]), log_mass[shuffled]
        )

    def test_contour_work_is_bounded(self, monkeypatch):
        # 64 equal weights at x = 1e4 times their sum, past the Chernoff cut-off
        # that keeps every caller away: the trapezoid never converges, and its
        # halvings used to evaluate 21 million contour points in about 50 s
        points = []
        cgf = priors._cgf
        monkeypatch.setattr(priors, "_cgf", lambda w, s: points.append(s.size) or cgf(w, s))
        start = time.process_time()
        with pytest.raises(NumericalError, match="trapezoid passes .* did not converge"):
            priors._tail_and_density(np.full(64, 1 / 64), 1e4, upper=False)
        assert time.process_time() - start < 1.0
        assert sum(points) <= 2 * priors._MAX_CONTOUR_POINTS

    @pytest.mark.parametrize("points", [1, 15, 16, 17, 400])
    def test_cgf_blocks_keep_the_bits(self, points):
        # the blocked, in-place cumulant against the whole expression at once:
        # 256 weights make blocks of _CONTOUR_BLOCK_ENTRIES // 256 contour
        # points, and each row sums its own weights in the same order in any block
        weights = np.linspace(1.0, 0.01, 256)
        s = 0.1 + 1j * np.linspace(0.0, 5.0, points)
        whole = -0.5 * np.sum(np.log1p(-2.0 * np.multiply.outer(s, weights)), axis=1)
        np.testing.assert_array_equal(priors._cgf(weights, s), whole)
        real = np.linspace(-3.0, 0.4, points)
        whole = -0.5 * np.sum(np.log1p(-2.0 * np.multiply.outer(real, weights)), axis=1)
        np.testing.assert_array_equal(priors._cgf(weights, real), whole)

    def test_radius_squared_zero_or_inf(self):
        log_mass = priors._ball_log_masses(np.array([1.0, 0.5]), np.array([0.0, math.inf]))
        assert log_mass.tolist() == [-math.inf, 0.0]


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

    @pytest.mark.parametrize("kind", list(BasisKind))
    @pytest.mark.parametrize("n_modes", [1, 33])
    @pytest.mark.parametrize("r", [0.51, 0.75, 1.0, 4 / 3, 2.0, 3.5, 7.0])
    def test_in_place_terms_keep_the_bits(self, kind, n_modes, r):
        # the head is summed over one array computed in place; the oracle
        # builds a new array at each step of the same expression.  One mode
        # puts the torus's top frequency at 0, the edge the series starts past
        prior = matern_prior(build_basis(kind, n_modes, 4), r, amplitude=1.7)
        assert truncation_tail(prior) == reference.truncation_tail_expression(prior)
