import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

from bvmlab.bvm import (
    CoverageKind,
    TightnessVerdict,
    coverage_report,
    credible_sets,
    heat_psi_from_representer,
    ks_distance,
    rate_fit,
    replicate_table,
    representer,
    tightness_series,
)
from bvmlab.errors import ConfigurationError, IllPosedError, NumericalError
from bvmlab.operators import (
    EllipticCoefficient,
    ForwardOperator,
    apply,
    elliptic_operator,
    heat_semigroup,
)
from bvmlab.posterior import noise_draw, observe, posterior_system
from bvmlab.priors import matern_prior
from bvmlab.seeds import derive_seed
from bvmlab.spectral import (
    BasisKind,
    analyze,
    bandlimit_approx,
    build_basis,
    coeff_vector,
    inner,
    make_bump,
    sobolev_draw,
    unit_vector,
)
from reference import oracle_truncation_level, svd_truncated_functional


@pytest.fixture(scope="module")
def interval():
    return build_basis(BasisKind.DIRICHLET_SINE, 32, 8)


@pytest.fixture(scope="module")
def bvp_pair(interval):
    return elliptic_operator(EllipticCoefficient(lambda x: np.ones_like(x)), interval)


@pytest.fixture(scope="module")
def setup_bvp(interval, bvp_pair):
    """Small BVP experiment: prior, solution map, truth, and one functional."""
    _, l_inv = bvp_pair
    prior = matern_prior(interval, r=1.0, amplitude=1.0)
    zeta = make_bump((0.02, 0.98), (0.10, 0.90))
    g = bandlimit_approx(
        analyze(zeta(interval.grid) * np.sin(2 * np.pi * interval.grid), interval), 8
    )
    psi = apply(l_inv, g)
    tf = representer(l_inv, psi)
    fdag = analyze(make_bump((0.2, 0.7), (0.35, 0.55))(interval.grid), interval)
    return prior, l_inv, fdag, tf


class TestRepresenter:
    def test_identity_flips_sign(self, interval):
        op = ForwardOperator(basis=interval, array=np.ones(interval.n_modes))
        psi = sobolev_draw(interval, 2.0, 0)
        tf = representer(op, psi)
        np.testing.assert_array_equal(tf.psi_tilde.coeffs, -psi.coeffs)

    def test_differential_operator_closed_form(self, interval, bvp_pair):
        # the companion of L is its solution map, so psi_tilde = -L^-1(L^-1 psi)
        l_op, l_inv = bvp_pair
        psi = bandlimit_approx(sobolev_draw(interval, 2.0, 5), 4)
        tf = representer(l_op, psi)
        want = -apply(l_inv, apply(l_inv, psi)).coeffs
        np.testing.assert_allclose(tf.psi_tilde.coeffs, want, rtol=1e-12, atol=1e-18)

    def test_bvp_first_mode_closed_form(self, interval, bvp_pair):
        _, l_inv = bvp_pair
        tf = representer(l_inv, unit_vector(interval, 0))
        want = np.zeros(interval.n_modes)
        want[0] = -math.pi**4
        np.testing.assert_allclose(tf.psi_tilde.coeffs, want, rtol=1e-12)
        np.testing.assert_allclose(tf.limiting_variance, math.pi**4, rtol=1e-12)

    def test_variable_coefficient_paths_agree(self, interval):
        coeff = EllipticCoefficient(lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x), floor=0.4)
        _, l_inv = elliptic_operator(coeff, interval)
        rng = np.random.default_rng(5)
        c = rng.standard_normal(interval.n_modes)
        c[interval.n_modes // 2 :] = 0.0
        tf = representer(l_inv, coeff_vector(interval, c))
        assert tf.limiting_variance > 0

    @pytest.mark.parametrize("kind", ["diagonal", "dense"])
    def test_zero_psi_refused(self, interval, bvp_pair, kind):
        op = bvp_pair[1]
        if kind == "dense":
            op = ForwardOperator(basis=interval, array=np.diag(op.multipliers))
        with pytest.raises(ConfigurationError, match="zero"):
            representer(op, coeff_vector(interval, np.zeros(interval.n_modes)))

    @pytest.mark.parametrize(
        "coeffs, name",
        [(np.full(32, 1e300), "psi_tilde norm is inf"), (1e-200 * np.eye(32)[0], "norm is 0")],
        ids=["overflow", "underflow"],
    )
    @pytest.mark.parametrize("kind", ["companion", "dense"])
    def test_norms_outside_the_double_range_refused(self, interval, bvp_pair, coeffs, name, kind):
        # the agreement checks compared inf with 1e-8 * inf, or 0 with 0, and
        # passed: the limiting variance came back inf or 0
        op = bvp_pair[1]
        if kind == "dense":
            op = ForwardOperator(basis=interval, array=np.diag(op.multipliers))
            name = name.replace("psi_tilde", "psi")
        with pytest.raises(NumericalError, match=name):
            representer(op, coeff_vector(interval, coeffs))

    def test_heat_generic_psi_ill_posed(self, interval):
        op = heat_semigroup(interval, 0.1)
        rng = np.random.default_rng(6)
        psi = coeff_vector(interval, rng.standard_normal(interval.n_modes))
        with pytest.raises(IllPosedError):
            representer(op, psi, cond_limit=1e6)

    def test_heat_bandlimited_psi_succeeds(self, interval):
        op = heat_semigroup(interval, 0.1)
        tf = representer(op, unit_vector(interval, 0), cond_limit=1e6)
        want = math.exp(2 * math.pi**2 * 0.1)
        np.testing.assert_allclose(tf.psi_tilde.coeffs[0], -want, rtol=1e-12)

    def test_limiting_variance_is_image_norm(self, interval, bvp_pair):
        _, l_inv = bvp_pair
        psi = bandlimit_approx(sobolev_draw(interval, 4.0, 3), 8)
        tf = representer(l_inv, psi)
        image = apply(l_inv, tf.psi_tilde)
        np.testing.assert_allclose(tf.limiting_variance, inner(image, image), rtol=1e-10)


class TestHeatPsi:
    def test_time_zero(self, interval):
        tilde = unit_vector(interval, 2)
        tf = heat_psi_from_representer(tilde, 0.0)
        np.testing.assert_array_equal(tf.psi.coeffs, -tilde.coeffs)

    def test_first_mode_weight(self, interval):
        tf = heat_psi_from_representer(unit_vector(interval, 0), 0.1)
        np.testing.assert_allclose(
            tf.psi.coeffs[0], -math.exp(-2 * math.pi**2 * 0.1), rtol=1e-15
        )
        np.testing.assert_allclose(
            tf.limiting_variance, math.exp(-2 * math.pi**2 * 0.1), rtol=1e-15
        )

    def test_representer_roundtrip(self, interval):
        op = heat_semigroup(interval, 0.1)
        tilde = coeff_vector(
            interval, [0.5, -1.0, 0.25] + [0.0] * (interval.n_modes - 3)
        )
        tf = heat_psi_from_representer(tilde, 0.1)
        spread = math.exp(2 * (interval.eigenvalues[2] - interval.eigenvalues[0]) * 0.1)
        back = representer(op, tf.psi, cond_limit=spread * 10)
        np.testing.assert_allclose(back.psi_tilde.coeffs, tilde.coeffs, rtol=1e-8)
        np.testing.assert_allclose(back.limiting_variance, tf.limiting_variance, rtol=1e-8)

    def test_band_limit_enforced(self, interval):
        tilde = unit_vector(interval, interval.n_modes - 1)
        assert 2 * interval.eigenvalues[-1] * 0.1 > 300
        with pytest.raises(ConfigurationError):
            heat_psi_from_representer(tilde, 0.1)


def _table(setup, epsilon, n, level=0.95, ball_beta=None, master_seed=0):
    """``replicate_table`` over replicates ``range(n)`` of the small BVP experiment,
    at the one noise level ``epsilon``."""
    prior, op, fdag, tf = setup
    system = posterior_system(prior, op)
    sets = credible_sets(system, epsilon, tf, level, ball_beta)
    (table,) = replicate_table(system, [sets], fdag, range(n), master_seed)
    return table


class TestRunReplicates:
    def test_bitwise_determinism(self, setup_bvp):
        a = _table(setup_bvp, 1e-3, 20, master_seed=5)
        b = _table(setup_bvp, 1e-3, 20, master_seed=5)
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if field.name == "sets":
                # the level's numbers, beside the one functional both tables score
                numbers = [f.name for f in dataclasses.fields(x) if f.name != "functional"]
                x, y = ([getattr(t, name) for name in numbers] for t in (x, y))
            same = x.tobytes() == y.tobytes() if isinstance(x, np.ndarray) else x == y
            assert same, field.name

    def test_index_split_invariance(self, setup_bvp):
        prior, op, fdag, tf = setup_bvp
        system = posterior_system(prior, op)
        levels = [credible_sets(system, 1e-3, tf)]
        (full,) = replicate_table(system, levels, fdag, range(20), master_seed=5)
        (first,) = replicate_table(system, levels, fdag, range(0, 7), master_seed=5)
        (rest,) = replicate_table(system, levels, fdag, range(7, 20), master_seed=5)
        for name in ("replicate_index", "functional_mean", "scaled_error", "hat_psi",
                     "interval_covered"):
            joined = np.concatenate([getattr(first, name), getattr(rest, name)])
            assert joined.tobytes() == getattr(full, name).tobytes(), name
        assert repr(full.sets.interval_radius) == repr(first.sets.interval_radius)

    def test_hat_psi_recomputable_from_noise(self, setup_bvp):
        prior, op, fdag, tf = setup_bvp
        table = _table(setup_bvp, 1e-3, 10, master_seed=9)
        truth_val = inner(fdag, tf.psi)
        image = apply(op, tf.psi_tilde)
        for i, hat in zip(table.replicate_index.tolist(), table.hat_psi.tolist()):
            w = noise_draw(op.basis, derive_seed(9, 2 * i))
            assert hat == truth_val - table.sets.epsilon * inner(image, w)

    def test_interval_coverage_smoke(self, setup_bvp):
        table = _table(setup_bvp, 1e-4, 400, master_seed=1)
        report = coverage_report(table, CoverageKind.INTERVAL)
        assert 0.9 <= report.hit_rate <= 1.0
        assert report.target_level == 0.95

    def test_covered_flag_consistent(self, setup_bvp):
        prior, op, fdag, tf = setup_bvp
        truth_val = inner(fdag, tf.psi)
        table = _table(setup_bvp, 1e-3, 20, master_seed=3)
        radius = table.sets.interval_radius
        for covered, mean in zip(table.interval_covered, table.functional_mean):
            assert covered == (abs(truth_val - mean) <= radius)

    def test_ball_fields_only_with_beta(self, setup_bvp):
        plain = _table(setup_bvp, 1e-3, 3, master_seed=3)
        assert plain.sets.ball_radius is None and plain.ball_covered is None
        with_ball = _table(setup_bvp, 1e-3, 3, master_seed=3, ball_beta=3.5)
        assert isinstance(with_ball.sets.ball_radius, float)
        assert with_ball.ball_covered.shape == (3,)

    def test_centring_equivalence_shrinks(self, setup_bvp):
        # posterior-mean centring and the efficient centring agree at scale eps
        tf = setup_bvp[3]
        sds = []
        for eps in (1e-2, 1e-3, 1e-4):
            table = _table(setup_bvp, eps, 200, master_seed=8)
            diffs = (table.functional_mean - table.hat_psi) / eps
            sds.append(np.std(diffs))
        assert sds[2] <= 0.1 * math.sqrt(tf.limiting_variance)
        assert sds[0] >= sds[2]


class TestKsDistance:
    def test_exact_draws_are_close(self):
        rng = np.random.default_rng(314)
        samples = 2.0 * rng.standard_normal(100_000)
        assert ks_distance(samples, 4.0) < 0.006

    def test_shifted_sample_far(self):
        rng = np.random.default_rng(314)
        samples = rng.standard_normal(10_000) + 5.0
        assert ks_distance(samples, 1.0) > 0.9

    def test_point_mass_at_zero(self):
        assert ks_distance([0.0, 0.0], 1.0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ks_distance([1.0], 1.0)
        with pytest.raises(ConfigurationError):
            ks_distance([1.0, 2.0], 0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError, match="finite"):
                ks_distance([0.0, bad, 1.0], 1.0)

    @pytest.mark.parametrize("n", [2, 7, 100, 2000])
    @pytest.mark.parametrize("variance", [1e-6, 0.25, 1.0, 9.0])
    def test_matches_scipy_kstest_to_4_ulp(self, n, variance):
        samples = 1.3 * np.random.default_rng(n).standard_normal(n)
        law = scipy.stats.norm(scale=math.sqrt(variance))
        want = scipy.stats.kstest(samples, law.cdf).statistic
        np.testing.assert_array_max_ulp(ks_distance(samples, variance), want, maxulp=4)


class TestCoverageReport:
    def test_all_covered(self, setup_bvp):
        # the half-width is 7.13 posterior sds, and at 1e-4 the bias is 0.006
        # frequentist sds, so a replicate is missed with probability about
        # 1e-12 on any stream
        table = _table(setup_bvp, 1e-4, 50, level=1 - 1e-12, master_seed=8)
        assert np.all(table.interval_covered)
        report = coverage_report(table)
        assert report.hit_rate == 1.0
        assert report.wilson_high == pytest.approx(1.0)

    def test_wilson_interval_oracle(self):
        from bvmlab.priors import _wilson_interval

        low, high = _wilson_interval(1900, 2000)
        z = 1.959963984540054
        p, n = 0.95, 2000
        centre = (p + z**2 / (2 * n)) / (1 + z**2 / n)
        half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / (1 + z**2 / n)
        assert low == pytest.approx(centre - half, rel=1e-12)
        assert high == pytest.approx(centre + half, rel=1e-12)
        # quoted reference interval for 1900/2000 hits
        assert low == pytest.approx(0.9396, abs=3e-4)
        assert high == pytest.approx(0.9586, abs=3e-4)

    def test_empty_rejected(self, setup_bvp):
        table = _table(setup_bvp, 1e-3, 0)
        with pytest.raises(ConfigurationError, match="empty"):
            coverage_report(table)

    def test_ball_mode_needs_ball_fields(self, setup_bvp):
        table = _table(setup_bvp, 1e-3, 3, master_seed=3)
        with pytest.raises(ConfigurationError, match="ball"):
            coverage_report(table, CoverageKind.BALL)

    def test_ball_report(self, setup_bvp):
        table = _table(setup_bvp, 1e-3, 20, master_seed=3, ball_beta=3.5)
        report = coverage_report(table, CoverageKind.BALL)
        assert report.wilson_low <= report.hit_rate <= report.wilson_high


class TestRateFit:
    def test_exact_power_law(self):
        eps = [1e-1, 1e-2, 1e-3, 1e-4]
        errors = [e**0.8 for e in eps]
        fit = rate_fit(eps, errors, 0.8)
        assert fit.slope == pytest.approx(0.8, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_power_law(self):
        rng = np.random.default_rng(21)
        eps = np.logspace(-1, -4, 7)
        errors = 3.0 * eps**0.8 * (1 + 0.01 * rng.standard_normal(7))
        fit = rate_fit(eps, errors, 0.8)
        assert abs(fit.slope - 0.8) <= 0.02

    def test_two_points_rejected(self):
        with pytest.raises(ConfigurationError):
            rate_fit([0.1, 0.01], [0.1, 0.01], 1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            rate_fit([0.1, 0.01, 0.001], [0.1, -0.01, 0.001], 1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(NumericalError, match="finite"):
            rate_fit([0.1, 0.01, 0.001], [0.1, bad, 0.001], 1.0)


@pytest.fixture(scope="module")
def big_l():
    basis = build_basis(BasisKind.DIRICHLET_SINE, 400, 4)
    return elliptic_operator(EllipticCoefficient(lambda x: np.ones_like(x)), basis)[0]


class TestTightness:
    def test_converges_above_threshold(self, big_l):
        assert tightness_series(big_l, 3.5, 400).verdict is TightnessVerdict.CONVERGES

    def test_diverges_below_threshold(self, big_l):
        assert tightness_series(big_l, 2.0, 400).verdict is TightnessVerdict.DIVERGES

    def test_boundary_at_threshold(self, big_l):
        assert tightness_series(big_l, 2.5, 400).verdict is TightnessVerdict.BOUNDARY

    def test_partial_sums_match_scalar_oracle(self, big_l):
        beta = 3.5
        result = tightness_series(big_l, beta, 400)
        j = np.arange(1, 401, dtype=float)
        lam = (np.pi * j) ** 2
        oracle = np.cumsum((1 + lam) ** (-beta) * lam**2)
        np.testing.assert_allclose(result.partial_sums, oracle, rtol=1e-10)

    @pytest.mark.parametrize("beta", [400.0, -150.0], ids=["underflow", "overflow"])
    def test_extreme_beta_names_key(self, big_l, beta):
        # every term underflows to 0 at beta = 400; the sums reach inf at -150
        with pytest.raises(ConfigurationError, match=r"^key 'tightness\.beta': "):
            tightness_series(big_l, beta, 400)

    def test_mode_floor(self, big_l):
        with pytest.raises(ConfigurationError):
            tightness_series(big_l, 3.5, 50)

    def test_dense_operator_supported(self):
        basis = build_basis(BasisKind.DIRICHLET_SINE, 128, 4)
        coeff = EllipticCoefficient(lambda x: 1.0 + 0.3 * np.sin(2 * np.pi * x), floor=0.5)
        op_l, _ = elliptic_operator(coeff, basis)
        result = tightness_series(op_l, 3.5, 128)
        assert result.verdict is TightnessVerdict.CONVERGES


class TestSpectralCutoffCompetitor:
    def test_full_level_is_plain_least_squares(self, setup_bvp, interval):
        prior, op, fdag, tf = setup_bvp
        data = observe(op, fdag, 1e-3, seed=4)
        value = svd_truncated_functional(op, data, tf.psi, interval.n_modes)
        want = float(np.dot(tf.psi.coeffs, data.coeffs / op.multipliers))
        assert value == pytest.approx(want, rel=1e-12)

    def test_zero_level_is_zero(self, setup_bvp, interval):
        prior, op, fdag, tf = setup_bvp
        data = observe(op, fdag, 1e-3, seed=4)
        assert svd_truncated_functional(op, data, tf.psi, 0) == 0.0

    def test_oracle_level_grows_as_noise_shrinks(self, setup_bvp):
        prior, op, fdag, tf = setup_bvp
        levels = [
            oracle_truncation_level(op, tf.psi, fdag, eps) for eps in (1e-1, 1e-3, 1e-5)
        ]
        assert levels[0] <= levels[1] <= levels[2]
