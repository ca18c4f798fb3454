import dataclasses
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from bvmlab.errors import ConfigurationError, NumericalError, ShapeError
from bvmlab.operators import (
    EllipticCoefficient,
    ForwardOperator,
    apply,
    elliptic_operator,
    heat_semigroup,
    psido_multiplier,
)
from bvmlab.posterior import (
    PosteriorSystem,
    exact_ball_radius,
    noise_block,
    noise_draw,
    observe,
    posterior_system,
    tikhonov_solve,
    two_sided_quantile,
)
from bvmlab.priors import GaussianPrior, _wilson_interval, matern_prior
from bvmlab.spectral import (
    BasisKind,
    build_basis,
    coeff_vector,
    sobolev_draw,
    sobolev_norm,
    unit_vector,
)
from reference import centred_draws, per_level_factor


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
    op = ForwardOperator(basis=basis, array=np.ones(1))
    # observed at noise level 1
    return prior, op, coeff_vector(basis, [measurement])


class TestObserve:
    def test_simulated_data_reproducible(self, interval, prior, bvp_inv):
        f = sobolev_draw(interval, 2.0, 1)
        a = observe(bvp_inv, f, 1e-2, seed=42)
        b = observe(bvp_inv, f, 1e-2, seed=42)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        # data decomposes into signal plus the seeded noise draw
        w = noise_draw(interval, 42)
        np.testing.assert_array_equal(a.coeffs, apply(bvp_inv, f).coeffs + 1e-2 * w.coeffs)


def _philox_rows(basis, keys):
    return [
        np.random.Generator(np.random.Philox(key=k)).standard_normal(basis.n_modes).tobytes()
        for k in keys
    ]


class TestNoiseBlock:
    """Row r of ``noise_block`` is bitwise what a fresh ``Generator(Philox(key))``
    draws first: the reused generator must be reset to exactly that state."""

    EDGE_KEYS = [0, 1, 2**64 - 1, 2**64, 2**64 + 1, 2**127, 2**128 - 2, 2**128 - 1]

    def test_edge_keys_match_fresh_philox(self, interval):
        block = noise_block(interval, self.EDGE_KEYS)
        assert block.shape == (len(self.EDGE_KEYS), interval.n_modes)
        want = _philox_rows(interval, self.EDGE_KEYS)
        assert [row.tobytes() for row in block] == want
        draws = [noise_draw(interval, k).coeffs.tobytes() for k in self.EDGE_KEYS]
        assert draws == want

    @settings(max_examples=200, deadline=None)
    @given(keys=st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=6))
    def test_matches_fresh_philox(self, interval, keys):
        block = noise_block(interval, keys)
        assert [row.tobytes() for row in block] == _philox_rows(interval, keys)

    def test_draws_past_the_buffer_are_reset(self):
        # an odd length leaves the previous row's generator mid-buffer
        basis = build_basis(BasisKind.DIRICHLET_SINE, 7, 4)
        keys = [3, 3, 2**64 + 3, 3]
        block = noise_block(basis, keys)
        assert [row.tobytes() for row in block] == _philox_rows(basis, keys)

    def test_empty_block(self, interval):
        assert noise_block(interval, []).shape == (0, interval.n_modes)

    @pytest.mark.parametrize("key", [-1, 2**128, 2**200])
    def test_key_outside_128_bits_refused(self, interval, key):
        with pytest.raises(OverflowError):
            noise_block(interval, [key])
        with pytest.raises(OverflowError):
            noise_draw(interval, key)

    @pytest.mark.parametrize("key", [1.5, "3"])
    def test_non_integer_key_refused(self, interval, key):
        with pytest.raises(TypeError):
            noise_block(interval, [key])
        with pytest.raises(TypeError):
            noise_draw(interval, key)


class TestPosteriorUpdate:
    def test_epsilon_must_be_positive(self, interval, prior, bvp_inv):
        # 1e300 squares to inf and 1e-200 to 0; the mean and the cross-check
        # each refuse the noise level
        system = posterior_system(prior, bvp_inv)
        data = unit_vector(interval, 0)
        for epsilon in (0.0, -1.0, math.inf, math.nan, 1e300, 1e-200):
            with pytest.raises(ConfigurationError, match="noise level epsilon"):
                system.update(data, epsilon)
            with pytest.raises(ConfigurationError, match="noise level epsilon"):
                tikhonov_solve(prior, bvp_inv, data, epsilon)

    def test_scalar_conjugate_gaussian(self):
        prior, op, data = scalar_setup(2.0)
        assert posterior_system(prior, op).update(data, 1.0).coeffs[0] == pytest.approx(
            1.0, rel=1e-15
        )
        variance = posterior_system(prior, op).functional_variance(unit_vector(prior.basis, 0), 1.0)
        assert variance == pytest.approx(0.5, rel=1e-15)

    def test_dense_path_matches_diagonal(self, interval, prior, bvp_inv):
        f = sobolev_draw(interval, 2.0, 3)
        data = observe(bvp_inv, f, 1e-2, seed=5)
        dense = ForwardOperator(basis=interval, array=np.diag(bvp_inv.multipliers))
        np.testing.assert_allclose(
            posterior_system(prior, dense).update(data, 1e-2).coeffs,
            posterior_system(prior, bvp_inv).update(data, 1e-2).coeffs,
            atol=1e-10,
        )
        np.testing.assert_allclose(
            _covariance(posterior_system(prior, dense), 1e-2),
            _covariance(posterior_system(prior, bvp_inv), 1e-2),
            atol=1e-10,
        )

    def test_no_information_limit(self, prior, bvp_inv):
        system = posterior_system(prior, bvp_inv)
        np.testing.assert_allclose(np.diag(_covariance(system, 1e6)), prior.variances, rtol=1e-6)

    def test_variance_monotone_in_epsilon(self, prior, bvp_inv):
        system = posterior_system(prior, bvp_inv)
        variances = [np.diag(_covariance(system, eps)) for eps in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)]
        for lo, hi in zip(variances, variances[1:]):
            assert np.all(hi > lo)

    def test_posterior_never_exceeds_prior_variance(self, interval, prior, bvp_inv):
        dense = ForwardOperator(basis=interval, array=np.diag(bvp_inv.multipliers))
        system = posterior_system(prior, dense)
        rng = np.random.default_rng(8)
        for _ in range(20):
            psi = rng.standard_normal(interval.n_modes)
            quad_post = system.functional_variance(coeff_vector(interval, psi), 1e-3)
            quad_prior = np.dot(prior.variances, psi**2)
            assert quad_post <= quad_prior + 1e-10

    def test_basis_mismatch(self, prior, interval):
        other = build_basis(BasisKind.DIRICHLET_SINE, 16, 8)
        op = ForwardOperator(basis=other, array=np.ones(other.n_modes))
        data = coeff_vector(other, np.zeros(other.n_modes))
        with pytest.raises(ShapeError):
            posterior_system(prior, op)
        with pytest.raises(ShapeError):
            tikhonov_solve(prior, op, data, 1.0)
        with pytest.raises(ShapeError):
            tikhonov_solve(prior, ForwardOperator(interval, np.ones(interval.n_modes)), data, 1.0)


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
        op = ops[name]
        ops[f"{name}_dense"] = ForwardOperator(basis=op.basis, array=np.diag(op.multipliers))
    assert set(ops) == set(CONJUGACY_FAMILIES)
    assert not ops["bvp_variable"].is_diagonal and ops["bvp"].is_diagonal
    return ops


class TestTikhonovSolve:
    def test_zero_data_gives_zero(self, interval, prior, bvp_inv):
        zero = coeff_vector(interval, np.zeros(interval.n_modes))
        out = tikhonov_solve(prior, bvp_inv, zero, 0.1)
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
            epsilon = 10 ** (-1 - 2 * (seed % 3) / 2)
            data = observe(op, f, epsilon, seed=seed)
            mean = posterior_system(prior, op).update(data, epsilon)
            tik = tikhonov_solve(prior, op, data, epsilon)
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
        epsilon = 10.0**log_epsilon
        data = observe(op, truth, epsilon, seed=seed + 1)
        mean = posterior_system(prior, op).update(data, epsilon)
        tik = tikhonov_solve(prior, op, data, epsilon)
        gap = np.linalg.norm(tik.coeffs - mean.coeffs)
        assert gap <= 1e-8 * max(np.linalg.norm(mean.coeffs), 1e-30)

    def test_indefinite_normal_equations_raise(self):
        # hess = 1 + 1 / (-0.5) = -1 is nonsingular, so only the Cholesky gate can refuse it
        prior, op, data = scalar_setup(1.0)
        bad = GaussianPrior(
            basis=prior.basis, variances=np.array([-0.5]), rkhs_exponent=1.0, amplitude=1.0
        )
        with pytest.raises(NumericalError, match="normal-equation solve failed"):
            tikhonov_solve(bad, op, data, 1.0)

    def test_vanishing_regularisation_recovers_rkhs_truth(self, interval, prior, bvp_inv):
        f = sobolev_draw(interval, 1.0, 9)
        out = tikhonov_solve(prior, bvp_inv, apply(bvp_inv, f), 1e-6)
        err = coeff_vector(interval, out.coeffs - f.coeffs)
        assert sobolev_norm(err, -2.0) <= 1e-3


# the posterior system's noise level in the shared fixtures
EPS = 1e-2


@pytest.fixture(params=["diagonal", "dense"])
def system(request, prior, families):
    # the system depends on (prior, operator) only, so no data are needed
    op = families["bvp" if request.param == "diagonal" else "bvp_variable"]
    return posterior_system(prior, op)


def _covariance(system, epsilon):
    """The posterior covariance at one noise level, formed densely from centred
    draws of the unit vectors: row i is the draw of e_i, so the rows form R^T."""
    root_t = centred_draws(system, epsilon, np.eye(system.prior.basis.n_modes))
    return root_t.T @ root_t


def _normal_equation_covariance(system, epsilon):
    """(A^T A / eps^2 + S^{-1})^{-1}, the oracle for the covariance of the system."""
    op = system.operator
    amat = np.diag(op.multipliers) if op.is_diagonal else op.matrix
    hess = amat.T @ amat / epsilon**2 + np.diag(1.0 / system.prior.variances)
    return np.linalg.inv(hess)


def _assert_rel(got, want, rtol):
    gap = np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want)
    assert gap <= rtol, gap


class TestPosteriorSystem:
    def test_array_fields(self):
        names = [field.name for field in dataclasses.fields(PosteriorSystem)]
        assert names == ["prior", "operator", "ut", "sigma", "w"]

    def test_shapes_follow_the_operator(self, system, interval):
        # the rotation and the synthesis are matrices on the dense path only;
        # a noise level adds only the O(n) gains and spreads
        n = interval.n_modes
        shape = (n,) if system.operator.is_diagonal else (n, n)
        assert system.ut.shape == system.w.shape == shape
        assert system.sigma.shape == system.gains(EPS).shape == system.spreads(EPS).shape == (n,)

    def test_arrays_are_frozen_copies(self, system):
        arrays = {name: getattr(system, name).copy() for name in ("ut", "sigma", "w")}
        rebuilt = PosteriorSystem(system.prior, system.operator, **arrays)
        for name, original in arrays.items():
            array = getattr(rebuilt, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
            # the caller's arrays stay writeable and are not aliased
            original[0] = 0.0
            np.testing.assert_array_equal(array, getattr(system, name))

    def test_basis_mismatch(self, system):
        other = build_basis(BasisKind.DIRICHLET_SINE, 16, 8)
        with pytest.raises(ShapeError):
            system.update(coeff_vector(other, np.zeros(other.n_modes)), EPS)
        with pytest.raises(ShapeError):
            system.functional_variance(coeff_vector(other, np.zeros(other.n_modes)), EPS)

    @pytest.mark.parametrize("epsilon", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_matches_per_level_factor(self, system, interval, epsilon):
        # the oracle decomposes each noise level afresh; the system serves every
        # level from one decomposition
        gain, root = per_level_factor(system.prior, system.operator, epsilon)
        rng = np.random.default_rng(17)
        data = rng.standard_normal(interval.n_modes)
        want = gain * data if gain.ndim == 1 else gain @ data
        _assert_rel(system.update(coeff_vector(interval, data), epsilon).coeffs, want, 1e-12)
        psi = rng.standard_normal(interval.n_modes)
        spread = root * psi if root.ndim == 1 else psi @ root
        got = system.functional_variance(coeff_vector(interval, psi), epsilon)
        assert got == pytest.approx(np.dot(spread, spread), rel=1e-12)
        weights = (1.0 + interval.eigenvalues) ** (-3.5)
        if root.ndim == 1:
            want_spectrum = weights * root**2
        else:
            want_spectrum = np.linalg.svd(np.sqrt(weights)[:, None] * root, compute_uv=False) ** 2
        _assert_rel(
            np.sort(system.weighted_spectrum(weights, epsilon)), np.sort(want_spectrum), 1e-12
        )


class TestSamplingRoot:
    def test_moments(self, system, interval):
        # centred draws have mean 0 and covariance W diag(h^2) W^T, which must be
        # the normal-equation covariance
        n = 100_000
        z = np.random.default_rng(31).standard_normal((n, interval.n_modes))
        draws = centred_draws(system, EPS, z)
        var = np.diag(_normal_equation_covariance(system, EPS))
        se_var = var * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(draws.var(axis=0, ddof=1) - var) <= 3.5 * se_var)
        assert np.all(np.abs(draws.mean(axis=0)) <= 3.5 * np.sqrt(var / n))

    def test_centred_draws_apply_root(self, system, interval):
        z = np.random.default_rng(123).standard_normal((4, interval.n_modes))
        draws = centred_draws(system, EPS, z)
        _, root = per_level_factor(system.prior, system.operator, EPS)
        want = root * z if root.ndim == 1 else z @ root.T
        np.testing.assert_allclose(draws, want, rtol=1e-12, atol=1e-15)
        # a single vector maps like a row of a block
        np.testing.assert_array_equal(centred_draws(system, EPS, z[1]), draws[1])


class TestFunctionalVariance:
    def test_coordinate_functional(self, prior, bvp_inv, interval):
        system = posterior_system(prior, bvp_inv)
        variance = system.functional_variance(unit_vector(interval, 0), EPS)
        _, root = per_level_factor(prior, bvp_inv, EPS)
        assert variance == pytest.approx(root[0] ** 2)

    def test_matches_normal_equation_covariance(self, system, interval):
        psi = np.random.default_rng(2).standard_normal(interval.n_modes)
        want = psi @ _normal_equation_covariance(system, EPS) @ psi
        got = system.functional_variance(coeff_vector(interval, psi), EPS)
        assert got == pytest.approx(want, rel=1e-10)

    def test_variance_positive_for_nonzero_psi(self, system, interval):
        rng = np.random.default_rng(2)
        psi = coeff_vector(interval, rng.standard_normal(interval.n_modes))
        assert system.functional_variance(psi, EPS) > 0
        zero = coeff_vector(interval, 0.0 * psi.coeffs)
        assert system.functional_variance(zero, EPS) == 0.0

    def test_quadratic_in_psi(self, system, interval):
        psi = np.random.default_rng(4).standard_normal(interval.n_modes)
        variance = system.functional_variance(coeff_vector(interval, psi), EPS)
        for c in (-3.0, 0.5, 2.0):
            scaled = system.functional_variance(coeff_vector(interval, c * psi), EPS)
            assert scaled == pytest.approx(c**2 * variance, rel=1e-14)

    def test_against_sampling(self, system, interval):
        psi = coeff_vector(interval, np.random.default_rng(3).standard_normal(interval.n_modes))
        variance = system.functional_variance(psi, EPS)
        n = 100_000
        z = np.random.default_rng(77).standard_normal((n, interval.n_modes))
        draws = centred_draws(system, EPS, z) @ psi.coeffs
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
        system = posterior_system(prior2, op)
        variance = system.functional_variance(unit_vector(prior.basis, 0), math.sqrt(2.0))
        assert variance == pytest.approx(1.0, rel=1e-14)
        radius = two_sided_quantile(0.95) * math.sqrt(variance)
        assert radius == pytest.approx(1.959964, abs=1e-6)

    def test_radius_vanishes_with_level(self):
        assert 0.0 < two_sided_quantile(1e-9) < 1e-8

    def test_level_rounding_to_zero_rejected(self):
        # below about 1.1e-16, 0.5 + level / 2 rounds to 0.5, whose quantile is 0
        assert 0.0 < two_sided_quantile(1.2e-16)
        for level in (1e-16, 1e-17, 1e-300):
            with pytest.raises(ConfigurationError, match="too close to 0"):
                two_sided_quantile(level)

    def test_mass_identity(self, prior, bvp_inv, interval):
        # the interval of half-width q sd about the posterior mean of <f, psi>
        # carries exactly the requested posterior mass
        system = posterior_system(prior, bvp_inv)
        sd = math.sqrt(system.functional_variance(unit_vector(interval, 2), EPS))
        for level in (0.5, 0.9, 0.95, 0.99):
            radius = two_sided_quantile(level) * sd
            mass = 2 * scipy.stats.norm.cdf(radius / sd) - 1
            assert mass == pytest.approx(level, abs=1e-12)

    @pytest.mark.parametrize("level", [0.5, 0.68, 0.9, 0.95, 0.99, 0.999999])
    def test_quantile_matches_scipy_stats_to_8_ulp(self, level):
        want = scipy.stats.norm.ppf(0.5 + level / 2.0)
        np.testing.assert_array_max_ulp(two_sided_quantile(level), want, maxulp=8)

    def test_small_levels_keep_relative_precision(self):
        # 0.5 + level / 2 drops the low digits of a small level: from 1.2e-16
        # and 2.3e-16 alike, the normal quantile of the sum is 2.783e-16
        levels = np.geomspace(2.5e-16, 0.49, 400).tolist() + [1.2e-16, 2.3e-16, 1e-12, 1e-9]
        for level in levels:
            want = math.sqrt(2.0) * scipy.special.erfinv(level)
            assert two_sided_quantile(level) == pytest.approx(want, rel=1e-15, abs=0.0), level
        assert two_sided_quantile(1.2e-16) < two_sided_quantile(2.3e-16)


class TestExactBallRadius:
    def test_monte_carlo_hit_rate_in_wilson_band(self, system, interval):
        # oracle: the dual norms of 200k centred draws, counted against the radius
        level, n_draws, block = 0.95, 200_000, 20_000
        radius = exact_ball_radius(system, EPS, 3.5, level)
        weights = (1.0 + interval.eigenvalues) ** (-3.5)
        rng = np.random.default_rng(6)
        hits = 0
        for _ in range(n_draws // block):
            centred = centred_draws(system, EPS, rng.standard_normal((block, interval.n_modes)))
            hits += int(np.count_nonzero(np.sqrt((centred**2) @ weights) <= radius))
        low, high = _wilson_interval(hits, n_draws)
        assert low <= level <= high, (hits / n_draws, low, high)

    def test_weighted_spectrum_paths_agree(self, prior, families, interval):
        weights = (1.0 + interval.eigenvalues) ** (-3.5)
        diagonal = posterior_system(prior, families["bvp"])
        dense_op = ForwardOperator(basis=interval, array=np.diag(families["bvp"].multipliers))
        dense = posterior_system(prior, dense_op)
        np.testing.assert_allclose(
            np.sort(dense.weighted_spectrum(weights, EPS)),
            np.sort(diagonal.weighted_spectrum(weights, EPS)),
            rtol=1e-9,
        )

    def test_monotone_in_beta_and_level(self, system):
        levels = (0.5, 0.9, 0.95, 0.999, 1 - 1e-12)
        by_level = [exact_ball_radius(system, EPS, 3.5, level) for level in levels]
        assert all(math.isfinite(r) for r in by_level)
        assert all(a < b for a, b in zip(by_level, by_level[1:]))
        betas = (0.0, 1.0, 2.0, 3.5, 5.0)
        by_beta = [exact_ball_radius(system, EPS, beta, 0.95) for beta in betas]
        assert all(a >= b for a, b in zip(by_beta, by_beta[1:]))

    def test_validation(self, system):
        with pytest.raises(ConfigurationError, match="beta"):
            exact_ball_radius(system, EPS, -0.5, 0.95)
        for level in (0.0, 1.0):
            with pytest.raises(ConfigurationError, match="level"):
                exact_ball_radius(system, EPS, 3.5, level)

    def test_vanishing_level_is_a_numerical_error(self, system):
        # the lower quantile shrinks with the level until the saddlepoint's
        # curvature underflows to 0; that was a ZeroDivisionError
        assert 0.0 < exact_ball_radius(system, EPS, 3.5, 1e-100)
        with pytest.raises(NumericalError, match="curvature underflows"):
            exact_ball_radius(system, EPS, 3.5, 1e-300)
