import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from bvmlab.errors import ConfigurationError, NumericalError, ShapeError
from bvmlab.operators import (
    EllipticCoefficient,
    apply,
    as_dense,
    elliptic_operator,
    heat_semigroup,
    identity_operator,
    psido_multiplier,
)
from bvmlab.posterior import (
    Observation,
    credible_interval,
    exact_ball_radius,
    functional_marginal,
    noise_draw,
    observe,
    posterior_factor,
    posterior_sample,
    posterior_update,
    tikhonov_solve,
    two_sided_quantile,
)
from bvmlab.priors import GaussianPrior, _wilson_interval, matern_prior
from bvmlab.spectral import (
    BasisKind,
    build_basis,
    coeff_vector,
    dual_norm,
    sobolev_draw,
    unit_vector,
    zero_vector,
)


@pytest.fixture(scope="module")
def interval():
    return build_basis(BasisKind.DIRICHLET_SINE, 32, 8)


@pytest.fixture(scope="module")
def prior(interval):
    return matern_prior(interval, r=1.0)


@pytest.fixture(scope="module")
def bvp_inv(interval):
    return elliptic_operator(EllipticCoefficient(lambda x: np.ones_like(x)), interval)[1]


def scalar_setup(measurement):
    basis = build_basis(BasisKind.DIRICHLET_SINE, 1, 8)
    tau = np.array([1.0])
    tau.flags.writeable = False
    prior = GaussianPrior(basis=basis, variances=tau, rkhs_exponent=1.0, amplitude=1.0)
    op = identity_operator(basis)
    obs = Observation(data=coeff_vector(basis, [measurement]), epsilon=1.0)
    return prior, op, obs


class TestObservation:
    def test_simulated_data_reproducible(self, interval, prior, bvp_inv):
        f = sobolev_draw(interval, 2.0, 1)
        a = observe(bvp_inv, f, 1e-2, seed=42)
        b = observe(bvp_inv, f, 1e-2, seed=42)
        np.testing.assert_array_equal(a.data.coeffs, b.data.coeffs)
        # data decomposes into signal plus the seeded noise draw
        w = noise_draw(interval, a.noise_seed)
        np.testing.assert_array_equal(
            a.data.coeffs, apply(bvp_inv, f).coeffs + 1e-2 * w.coeffs
        )

    def test_epsilon_must_be_positive(self, interval):
        with pytest.raises(ConfigurationError):
            Observation(data=zero_vector(interval), epsilon=0.0)


class TestPosteriorUpdate:
    def test_scalar_conjugate_gaussian(self):
        prior, op, obs = scalar_setup(2.0)
        post = posterior_update(prior, op, obs)
        assert post.mean.coeffs[0] == pytest.approx(1.0, rel=1e-15)
        assert post.factor.variances[0] == pytest.approx(0.5, rel=1e-15)

    def test_dense_path_matches_diagonal(self, interval, prior, bvp_inv):
        f = sobolev_draw(interval, 2.0, 3)
        obs = observe(bvp_inv, f, 1e-2, seed=5)
        diag_post = posterior_update(prior, bvp_inv, obs)
        dense_post = posterior_update(prior, as_dense(bvp_inv), obs)
        np.testing.assert_allclose(
            dense_post.mean.coeffs, diag_post.mean.coeffs, atol=1e-10
        )
        np.testing.assert_allclose(
            np.diag(dense_post.factor.covariance), diag_post.factor.variances, atol=1e-10
        )
        off = dense_post.factor.covariance - np.diag(np.diag(dense_post.factor.covariance))
        assert np.abs(off).max() <= 1e-10

    def test_no_information_limit(self, interval, prior, bvp_inv):
        f = sobolev_draw(interval, 2.0, 3)
        obs = observe(bvp_inv, f, 1e6, seed=5)
        post = posterior_update(prior, bvp_inv, obs)
        np.testing.assert_allclose(post.factor.variances, prior.variances, rtol=1e-6)

    def test_variance_monotone_in_epsilon(self, interval, prior, bvp_inv):
        f = sobolev_draw(interval, 2.0, 3)
        variances = []
        for eps in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
            obs = observe(bvp_inv, f, eps, seed=5)
            variances.append(posterior_update(prior, bvp_inv, obs).factor.variances)
        for lo, hi in zip(variances, variances[1:]):
            assert np.all(hi > lo)

    def test_posterior_never_exceeds_prior_variance(self, interval, prior, bvp_inv):
        f = sobolev_draw(interval, 2.0, 3)
        obs = observe(bvp_inv, f, 1e-3, seed=5)
        post = posterior_update(prior, as_dense(bvp_inv), obs)
        rng = np.random.default_rng(8)
        for _ in range(20):
            psi = rng.standard_normal(interval.n_modes)
            quad_post = psi @ post.factor.covariance @ psi
            quad_prior = np.dot(prior.variances, psi**2)
            assert quad_post <= quad_prior + 1e-10

    def test_basis_mismatch(self, prior, interval):
        other = build_basis(BasisKind.DIRICHLET_SINE, 16, 8)
        op = identity_operator(other)
        obs = Observation(data=zero_vector(other), epsilon=1.0)
        with pytest.raises(ShapeError):
            posterior_update(prior, op, obs)


# the operator families of the conjugacy experiment, diagonal and dense
CONJUGACY_FAMILIES = (
    "bvp",
    "bvp_dense",
    "bvp_variable",
    "heat",
    "heat_dense",
    "psido",
    "psido_dense",
)


@pytest.fixture(scope="module")
def families(interval):
    torus = build_basis(BasisKind.FOURIER_TORUS, 33, 8)
    constant = EllipticCoefficient(lambda x: np.ones_like(x))
    variable = EllipticCoefficient(lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x), floor=0.4)
    ops = {
        "bvp": elliptic_operator(constant, interval)[1],
        "bvp_variable": elliptic_operator(variable, interval)[1],
        "heat": heat_semigroup(interval, 0.1),
        "psido": psido_multiplier(torus, 2.0),
    }
    for name in ("bvp", "heat", "psido"):
        ops[f"{name}_dense"] = as_dense(ops[name])
    assert set(ops) == set(CONJUGACY_FAMILIES)
    assert not ops["bvp_variable"].is_diagonal and ops["bvp"].is_diagonal
    return ops


class TestTikhonovSolve:
    def test_zero_data_gives_zero(self, interval, prior, bvp_inv):
        obs = Observation(data=zero_vector(interval), epsilon=0.1)
        out = tikhonov_solve(prior, bvp_inv, obs)
        np.testing.assert_allclose(out.coeffs, 0.0, atol=1e-15)

    @pytest.mark.parametrize("family", ["bvp", "bvp_variable", "heat", "psido"])
    def test_matches_posterior_mean(self, family, interval):
        if family == "psido":
            basis = build_basis(BasisKind.FOURIER_TORUS, 33, 8)
            op = psido_multiplier(basis, 2.0)
        elif family == "heat":
            basis = interval
            op = heat_semigroup(basis, 0.1)
        elif family == "bvp_variable":
            basis = interval
            coeff = EllipticCoefficient(lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x), floor=0.4)
            op = elliptic_operator(coeff, basis)[1]
        else:
            basis = interval
            op = elliptic_operator(EllipticCoefficient(lambda x: np.ones_like(x)), basis)[1]
        prior = matern_prior(basis, r=1.2, amplitude=0.8)
        for seed in range(10):
            f = sobolev_draw(basis, 1.5, seed)
            obs = observe(op, f, 10 ** (-1 - 2 * (seed % 3) / 2), seed=seed)
            mean = posterior_update(prior, op, obs).mean
            tik = tikhonov_solve(prior, op, obs)
            gap = np.linalg.norm(tik.coeffs - mean.coeffs)
            assert gap <= 1e-8 * max(np.linalg.norm(mean.coeffs), 1e-30)

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(sorted(CONJUGACY_FAMILIES)),
        r=st.floats(0.8, 2.2),
        amplitude=st.floats(0.5, 2.0),
        log_epsilon=st.floats(-3.0, -1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_posterior_mean_is_tikhonov_property(
        self, families, family, r, amplitude, log_epsilon, seed
    ):
        op = families[family]
        prior = matern_prior(op.basis, r=r, amplitude=amplitude)
        truth = sobolev_draw(op.basis, 1.5, seed)
        obs = observe(op, truth, 10.0**log_epsilon, seed=seed + 1)
        mean = posterior_update(prior, op, obs).mean
        tik = tikhonov_solve(prior, op, obs)
        gap = np.linalg.norm(tik.coeffs - mean.coeffs)
        assert gap <= 1e-8 * max(np.linalg.norm(mean.coeffs), 1e-30)

    def test_indefinite_normal_equations_raise(self):
        # hess = 1 + 1 / (-0.5) = -1 is nonsingular, so only the Cholesky gate can refuse it
        prior, op, obs = scalar_setup(1.0)
        bad = GaussianPrior(
            basis=prior.basis, variances=np.array([-0.5]), rkhs_exponent=1.0, amplitude=1.0
        )
        with pytest.raises(NumericalError, match="normal-equation solve failed"):
            tikhonov_solve(bad, op, obs)

    def test_vanishing_regularisation_recovers_rkhs_truth(self, interval, prior, bvp_inv):
        f = sobolev_draw(interval, 1.0, 9)
        obs = Observation(data=apply(bvp_inv, f), epsilon=1e-6)
        out = tikhonov_solve(prior, bvp_inv, obs)
        err = coeff_vector(interval, out.coeffs - f.coeffs)
        assert dual_norm(err, 2.0) <= 1e-3


class TestFunctionalMarginal:
    def test_coordinate_functional(self, interval, prior, bvp_inv):
        f = sobolev_draw(interval, 2.0, 3)
        post = posterior_update(prior, bvp_inv, observe(bvp_inv, f, 1e-2, seed=5))
        law = functional_marginal(post, unit_vector(interval, 0))
        assert law.mean == pytest.approx(post.mean.coeffs[0])
        assert law.variance == pytest.approx(post.factor.variances[0])

    def test_variance_positive_for_nonzero_psi(self, interval, prior, bvp_inv):
        f = sobolev_draw(interval, 2.0, 3)
        post = posterior_update(prior, bvp_inv, observe(bvp_inv, f, 1e-2, seed=5))
        rng = np.random.default_rng(2)
        psi = coeff_vector(interval, rng.standard_normal(interval.n_modes))
        assert functional_marginal(post, psi).variance > 0
        assert functional_marginal(post, zero_vector(interval)).variance == 0.0

    def test_against_sampling(self, prior, interval, bvp_inv):
        f = sobolev_draw(interval, 2.0, 3)
        post = posterior_update(prior, bvp_inv, observe(bvp_inv, f, 1e-2, seed=5))
        psi = unit_vector(interval, 1)
        law = functional_marginal(post, psi)
        n = 100_000
        rng = np.random.default_rng(77)
        sd = math.sqrt(post.factor.variances[1])
        draws = post.mean.coeffs[1] + sd * rng.standard_normal(n)
        se_mean = math.sqrt(law.variance / n)
        assert abs(draws.mean() - law.mean) <= 3 * se_mean
        se_var = law.variance * math.sqrt(2.0 / (n - 1))
        assert abs(draws.var(ddof=1) - law.variance) <= 3 * se_var


class TestCredibleInterval:
    def test_standard_normal_radius(self):
        prior, op, _ = scalar_setup(0.0)
        # prior variance 2 at noise sqrt(2) puts the marginal exactly at unit variance
        prior2 = GaussianPrior(
            basis=prior.basis,
            variances=np.array([2.0]),
            rkhs_exponent=1.0,
            amplitude=2.0,
        )
        obs2 = Observation(data=coeff_vector(prior.basis, [0.0]), epsilon=math.sqrt(2.0))
        post = posterior_update(prior2, op, obs2)
        assert post.factor.variances[0] == pytest.approx(1.0, rel=1e-14)
        ci = credible_interval(post, unit_vector(prior.basis, 0), 0.95)
        assert ci.radius == pytest.approx(1.959964, abs=1e-6)

    def test_radius_vanishes_with_level(self):
        prior, op, obs = scalar_setup(1.0)
        post = posterior_update(prior, op, obs)
        psi = unit_vector(prior.basis, 0)
        assert credible_interval(post, psi, 1e-9).radius < 1e-8

    def test_mass_identity(self, interval, prior, bvp_inv):
        f = sobolev_draw(interval, 2.0, 3)
        post = posterior_update(prior, bvp_inv, observe(bvp_inv, f, 1e-2, seed=5))
        psi = unit_vector(interval, 2)
        law = functional_marginal(post, psi)
        for level in (0.5, 0.9, 0.95, 0.99):
            ci = credible_interval(post, psi, level)
            mass = 2 * scipy.stats.norm.cdf(ci.radius / math.sqrt(law.variance)) - 1
            assert mass == pytest.approx(level, abs=1e-12)

    def test_level_validation(self, interval, prior, bvp_inv):
        f = sobolev_draw(interval, 2.0, 3)
        post = posterior_update(prior, bvp_inv, observe(bvp_inv, f, 1e-2, seed=5))
        with pytest.raises(ConfigurationError):
            credible_interval(post, unit_vector(interval, 0), 1.0)
        # 0.5 + level / 2 rounds to 1, whose quantile is infinite
        with pytest.raises(ConfigurationError, match="too close to 1"):
            credible_interval(post, unit_vector(interval, 0), math.nextafter(1.0, 0.0))

    @pytest.mark.parametrize("level", [1e-9, 0.5, 0.68, 0.9, 0.95, 0.99, 0.999999])
    def test_quantile_matches_scipy_stats_to_8_ulp(self, level):
        want = scipy.stats.norm.ppf(0.5 + level / 2.0)
        np.testing.assert_array_max_ulp(two_sided_quantile(level), want, maxulp=8)


class TestPosteriorSample:
    def test_deterministic(self, interval, prior, bvp_inv):
        f = sobolev_draw(interval, 2.0, 3)
        post = posterior_update(prior, bvp_inv, observe(bvp_inv, f, 1e-2, seed=5))
        np.testing.assert_array_equal(
            posterior_sample(post, 4).coeffs, posterior_sample(post, 4).coeffs
        )

    @pytest.mark.parametrize("dense", [False, True])
    def test_moments(self, interval, prior, bvp_inv, dense):
        basis = build_basis(BasisKind.DIRICHLET_SINE, 8, 8)
        pr = matern_prior(basis, r=1.0)
        op = elliptic_operator(EllipticCoefficient(lambda x: np.ones_like(x)), basis)[1]
        if dense:
            op = as_dense(op)
        f = sobolev_draw(basis, 2.0, 3)
        post = posterior_update(pr, op, observe(op, f, 1e-1, seed=5))
        n = 100_000
        # vectorised equivalent of repeated posterior_sample calls
        rng = np.random.default_rng(31)
        z = rng.standard_normal((n, basis.n_modes))
        if dense:
            draws = post.mean.coeffs[None, :] + z @ post.factor.root.T
            var = np.diag(post.factor.covariance)
        else:
            draws = post.mean.coeffs[None, :] + z * np.sqrt(post.factor.variances)[None, :]
            var = post.factor.variances
        se_var = var * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(draws.var(axis=0, ddof=1) - var) <= 3.5 * se_var)
        se_mean = np.sqrt(var / n)
        assert np.all(np.abs(draws.mean(axis=0) - post.mean.coeffs) <= 3.5 * se_mean)

    def test_sample_seed_paths_match_sampler(self, interval, prior, bvp_inv):
        f = sobolev_draw(interval, 2.0, 3)
        post = posterior_update(prior, bvp_inv, observe(bvp_inv, f, 1e-2, seed=5))
        draw = posterior_sample(post, 123)
        rng = np.random.default_rng(123)
        z = rng.standard_normal(interval.n_modes)
        want = post.mean.coeffs + np.sqrt(post.factor.variances) * z
        np.testing.assert_array_equal(draw.coeffs, want)


class TestExactBallRadius:
    @pytest.fixture(params=["diagonal", "dense"])
    def factor(self, request, prior, families):
        # the radius depends on the covariance only, so no data are needed
        op = families["bvp" if request.param == "diagonal" else "bvp_variable"]
        return posterior_factor(prior, op, 1e-2)

    def test_monte_carlo_hit_rate_in_wilson_band(self, factor, interval):
        # oracle: the dual norms of 200k centred draws, counted against the radius
        level, n_draws, block = 0.95, 200_000, 20_000
        radius = exact_ball_radius(factor, 3.5, level)
        weights = (1.0 + interval.eigenvalues) ** (-3.5)
        rng = np.random.default_rng(6)
        hits = 0
        for _ in range(n_draws // block):
            centred = factor.centred_draws(rng.standard_normal((block, interval.n_modes)))
            hits += int(np.count_nonzero(np.sqrt((centred**2) @ weights) <= radius))
        low, high = _wilson_interval(hits, n_draws)
        assert low <= level <= high, (hits / n_draws, low, high)

    def test_weighted_spectrum_paths_agree(self, prior, families, interval):
        weights = (1.0 + interval.eigenvalues) ** (-3.5)
        diagonal = posterior_factor(prior, families["bvp"], 1e-2)
        dense = posterior_factor(prior, as_dense(families["bvp"]), 1e-2)
        np.testing.assert_allclose(
            np.sort(dense.weighted_spectrum(weights)),
            np.sort(diagonal.weighted_spectrum(weights)),
            rtol=1e-9,
        )

    def test_monotone_in_beta_and_level(self, factor):
        levels = (0.5, 0.9, 0.95, 0.999, 1 - 1e-12)
        by_level = [exact_ball_radius(factor, 3.5, level) for level in levels]
        assert all(math.isfinite(r) for r in by_level)
        assert all(a < b for a, b in zip(by_level, by_level[1:]))
        by_beta = [exact_ball_radius(factor, beta, 0.95) for beta in (0.0, 1.0, 2.0, 3.5, 5.0)]
        assert all(a >= b for a, b in zip(by_beta, by_beta[1:]))

    def test_validation(self, factor):
        with pytest.raises(ConfigurationError, match="beta"):
            exact_ball_radius(factor, -0.5, 0.95)
        for level in (0.0, 1.0):
            with pytest.raises(ConfigurationError, match="level"):
                exact_ball_radius(factor, 3.5, level)
