import dataclasses
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
    PosteriorFactor,
    exact_ball_radius,
    noise_draw,
    observe,
    posterior_factor,
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
        for epsilon in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                Observation(data=zero_vector(interval), epsilon=epsilon)


class TestPosteriorUpdate:
    def test_scalar_conjugate_gaussian(self):
        prior, op, obs = scalar_setup(2.0)
        assert posterior_update(prior, op, obs).coeffs[0] == pytest.approx(1.0, rel=1e-15)
        root = posterior_factor(prior, op, obs.epsilon).root
        assert root[0] ** 2 == pytest.approx(0.5, rel=1e-15)

    def test_dense_path_matches_diagonal(self, interval, prior, bvp_inv):
        f = sobolev_draw(interval, 2.0, 3)
        obs = observe(bvp_inv, f, 1e-2, seed=5)
        np.testing.assert_allclose(
            posterior_update(prior, as_dense(bvp_inv), obs).coeffs,
            posterior_update(prior, bvp_inv, obs).coeffs,
            atol=1e-10,
        )
        diag_root = posterior_factor(prior, bvp_inv, 1e-2).root
        dense_root = posterior_factor(prior, as_dense(bvp_inv), 1e-2).root
        np.testing.assert_allclose(dense_root @ dense_root.T, np.diag(diag_root**2), atol=1e-10)

    def test_no_information_limit(self, prior, bvp_inv):
        root = posterior_factor(prior, bvp_inv, 1e6).root
        np.testing.assert_allclose(root**2, prior.variances, rtol=1e-6)

    def test_variance_monotone_in_epsilon(self, prior, bvp_inv):
        variances = [
            posterior_factor(prior, bvp_inv, eps).root ** 2
            for eps in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
        ]
        for lo, hi in zip(variances, variances[1:]):
            assert np.all(hi > lo)

    def test_posterior_never_exceeds_prior_variance(self, interval, prior, bvp_inv):
        factor = posterior_factor(prior, as_dense(bvp_inv), 1e-3)
        rng = np.random.default_rng(8)
        for _ in range(20):
            psi = rng.standard_normal(interval.n_modes)
            quad_post = factor.functional_variance(coeff_vector(interval, psi))
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
            mean = posterior_update(prior, op, obs)
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
        mean = posterior_update(prior, op, obs)
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


@pytest.fixture(params=["diagonal", "dense"])
def factor(request, prior, families):
    # the factor depends on (prior, operator, epsilon) only, so no data are needed
    op = families["bvp" if request.param == "diagonal" else "bvp_variable"]
    return posterior_factor(prior, op, 1e-2)


def _normal_equation_covariance(factor):
    """(A^T A / eps^2 + S^{-1})^{-1}, the oracle for the covariance R R^T of the root."""
    op = factor.operator
    amat = np.diag(op.multipliers) if op.is_diagonal else op.matrix
    hess = amat.T @ amat / factor.epsilon**2 + np.diag(1.0 / factor.prior.variances)
    return np.linalg.inv(hess)


class TestPosteriorFactor:
    def test_array_fields_are_gain_and_root(self):
        names = [field.name for field in dataclasses.fields(PosteriorFactor)]
        assert names == ["prior", "operator", "epsilon", "gain", "root"]

    def test_shapes_follow_the_operator(self, factor, interval):
        n = interval.n_modes
        assert factor.is_diagonal == factor.operator.is_diagonal
        shape = (n,) if factor.is_diagonal else (n, n)
        assert factor.gain.shape == shape and factor.root.shape == shape

    def test_arrays_are_frozen_copies(self, factor):
        gain, root = factor.gain.copy(), factor.root.copy()
        rebuilt = PosteriorFactor(
            prior=factor.prior,
            operator=factor.operator,
            epsilon=factor.epsilon,
            gain=gain,
            root=root,
        )
        for name in ("gain", "root"):
            array = getattr(rebuilt, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        # the caller's arrays stay writeable and are not aliased
        gain[0] = root[0] = 0.0
        np.testing.assert_array_equal(rebuilt.gain, factor.gain)
        np.testing.assert_array_equal(rebuilt.root, factor.root)

    def test_basis_mismatch(self, factor):
        other = build_basis(BasisKind.DIRICHLET_SINE, 16, 8)
        with pytest.raises(ShapeError):
            factor.update(zero_vector(other))
        with pytest.raises(ShapeError):
            factor.update_block(np.zeros((3, other.n_modes)))
        with pytest.raises(ShapeError):
            factor.functional_variance(zero_vector(other))


class TestSamplingRoot:
    def test_moments(self, factor, interval):
        # centred draws R z have mean 0 and covariance R R^T, which must be the
        # normal-equation covariance
        n = 100_000
        z = np.random.default_rng(31).standard_normal((n, interval.n_modes))
        draws = factor.centred_draws(z)
        var = np.diag(_normal_equation_covariance(factor))
        se_var = var * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(draws.var(axis=0, ddof=1) - var) <= 3.5 * se_var)
        assert np.all(np.abs(draws.mean(axis=0)) <= 3.5 * np.sqrt(var / n))


    def test_centred_draws_apply_root(self, factor, interval):
        z = np.random.default_rng(123).standard_normal((4, interval.n_modes))
        draws = factor.centred_draws(z)
        if factor.is_diagonal:
            np.testing.assert_array_equal(draws, factor.root * z)
        else:
            want = np.array([factor.root @ row for row in z])
            np.testing.assert_allclose(draws, want, rtol=1e-13, atol=1e-15)
        # a single vector maps like a row of a block
        np.testing.assert_allclose(factor.centred_draws(z[1]), draws[1], rtol=1e-13, atol=1e-15)


class TestFunctionalVariance:
    def test_coordinate_functional(self, prior, bvp_inv, interval):
        factor = posterior_factor(prior, bvp_inv, 1e-2)
        variance = factor.functional_variance(unit_vector(interval, 0))
        assert variance == pytest.approx(factor.root[0] ** 2)

    def test_matches_normal_equation_covariance(self, factor, interval):
        psi = np.random.default_rng(2).standard_normal(interval.n_modes)
        want = psi @ _normal_equation_covariance(factor) @ psi
        got = factor.functional_variance(coeff_vector(interval, psi))
        assert got == pytest.approx(want, rel=1e-10)

    def test_variance_positive_for_nonzero_psi(self, factor, interval):
        rng = np.random.default_rng(2)
        psi = coeff_vector(interval, rng.standard_normal(interval.n_modes))
        assert factor.functional_variance(psi) > 0
        assert factor.functional_variance(zero_vector(interval)) == 0.0

    def test_quadratic_in_psi(self, factor, interval):
        psi = np.random.default_rng(4).standard_normal(interval.n_modes)
        variance = factor.functional_variance(coeff_vector(interval, psi))
        for c in (-3.0, 0.5, 2.0):
            scaled = factor.functional_variance(coeff_vector(interval, c * psi))
            assert scaled == pytest.approx(c**2 * variance, rel=1e-14)

    def test_against_sampling(self, factor, interval):
        psi = coeff_vector(interval, np.random.default_rng(3).standard_normal(interval.n_modes))
        variance = factor.functional_variance(psi)
        n = 100_000
        z = np.random.default_rng(77).standard_normal((n, interval.n_modes))
        draws = factor.centred_draws(z) @ psi.coeffs
        assert abs(draws.mean()) <= 3 * math.sqrt(variance / n)
        se_var = variance * math.sqrt(2.0 / (n - 1))
        assert abs(draws.var(ddof=1) - variance) <= 3 * se_var


class TestTwoSidedQuantile:
    def test_level_validation(self):
        for level in (0.0, 1.0):
            with pytest.raises(ConfigurationError):
                two_sided_quantile(level)
        # 0.5 + level / 2 rounds to 1, whose quantile is infinite
        with pytest.raises(ConfigurationError, match="too close to 1"):
            two_sided_quantile(math.nextafter(1.0, 0.0))

    def test_standard_normal_radius(self):
        prior, op, _ = scalar_setup(0.0)
        # prior variance 2 at noise sqrt(2) puts the marginal exactly at unit variance
        prior2 = GaussianPrior(
            basis=prior.basis, variances=np.array([2.0]), rkhs_exponent=1.0, amplitude=2.0
        )
        factor = posterior_factor(prior2, op, math.sqrt(2.0))
        variance = factor.functional_variance(unit_vector(prior.basis, 0))
        assert variance == pytest.approx(1.0, rel=1e-14)
        radius = two_sided_quantile(0.95) * math.sqrt(variance)
        assert radius == pytest.approx(1.959964, abs=1e-6)

    def test_radius_vanishes_with_level(self):
        assert 0.0 < two_sided_quantile(1e-9) < 1e-8

    def test_mass_identity(self, prior, bvp_inv, interval):
        # the interval of half-width q sd about the posterior mean of <f, psi>
        # carries exactly the requested posterior mass
        factor = posterior_factor(prior, bvp_inv, 1e-2)
        sd = math.sqrt(factor.functional_variance(unit_vector(interval, 2)))
        for level in (0.5, 0.9, 0.95, 0.99):
            radius = two_sided_quantile(level) * sd
            mass = 2 * scipy.stats.norm.cdf(radius / sd) - 1
            assert mass == pytest.approx(level, abs=1e-12)

    @pytest.mark.parametrize("level", [1e-9, 0.5, 0.68, 0.9, 0.95, 0.99, 0.999999])
    def test_quantile_matches_scipy_stats_to_8_ulp(self, level):
        want = scipy.stats.norm.ppf(0.5 + level / 2.0)
        np.testing.assert_array_max_ulp(two_sided_quantile(level), want, maxulp=8)


class TestExactBallRadius:
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
