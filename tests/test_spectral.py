import math
import re
from pathlib import Path

import numpy as np
import pytest

import bvmlab
from bvmlab.errors import ConfigurationError, ShapeError
from bvmlab.spectral import (
    BasisKind,
    analyze,
    bandlimit_approx,
    build_basis,
    coeff_vector,
    inner,
    make_bump,
    sobolev_draw,
    sobolev_norm,
    unit_vector,
)
from reference import direct_analyze, quad_weights, random_vec, synthesize


@pytest.fixture(scope="module")
def interval():
    return build_basis(BasisKind.DIRICHLET_SINE, 16, 8)


@pytest.fixture(scope="module")
def torus():
    return build_basis(BasisKind.FOURIER_TORUS, 17, 8)


class TestBuildBasis:
    def test_dirichlet_eigenvalues_closed_form(self):
        b = build_basis(BasisKind.DIRICHLET_SINE, 4, 4)
        np.testing.assert_allclose(
            b.eigenvalues, [math.pi**2, 4 * math.pi**2, 9 * math.pi**2, 16 * math.pi**2]
        )
        assert np.all(np.diff(b.eigenvalues) > 0)

    def test_torus_frequency_squared_law(self):
        b = build_basis(BasisKind.FOURIER_TORUS, 5, 4)
        np.testing.assert_array_equal(b.frequencies, [0, 1, -1, 2, -2])
        np.testing.assert_array_equal(b.eigenvalues, [0, 1, 1, 4, 4])

    def test_empty_basis_rejected(self):
        with pytest.raises(ConfigurationError):
            build_basis(BasisKind.DIRICHLET_SINE, 0, 4)

    def test_undersampled_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            build_basis(BasisKind.DIRICHLET_SINE, 8, 3)

    def test_even_torus_mode_count_rejected(self):
        with pytest.raises(ConfigurationError):
            build_basis(BasisKind.FOURIER_TORUS, 6, 4)

    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_grid_beyond_numpy_rejected_before_allocating(self, kind):
        # 8 * 2**60 float64 points need 2**66 bytes, more than any intp counts
        with pytest.raises(ConfigurationError, match="more than NumPy can allocate"):
            build_basis(kind, 2**60 + 1, 8)

    def test_grid_oversampling(self, interval):
        assert interval.grid.size >= 4 * interval.n_modes

    def test_deterministic(self):
        a = build_basis(BasisKind.DIRICHLET_SINE, 8, 4)
        b = build_basis(BasisKind.DIRICHLET_SINE, 8, 4)
        np.testing.assert_array_equal(a.grid, b.grid)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)


class TestSynthesizeAnalyze:
    def test_first_sine_mode_normalisation(self, interval):
        val = synthesize(unit_vector(interval, 0), [0.5])
        np.testing.assert_allclose(val, [math.sqrt(2.0)], rtol=1e-14)

    def test_zero_function(self, interval):
        vals = synthesize(coeff_vector(interval, np.zeros(interval.n_modes)), interval.grid)
        np.testing.assert_array_equal(vals, np.zeros_like(interval.grid))

    @pytest.mark.parametrize("kind", [BasisKind.DIRICHLET_SINE, BasisKind.FOURIER_TORUS])
    def test_analyze_synthesize_roundtrip(self, kind):
        n = 17 if kind is BasisKind.FOURIER_TORUS else 16
        basis = build_basis(kind, n, 8)
        for seed in range(5):
            f = random_vec(basis, seed)
            back = analyze(synthesize(f, basis.grid), basis)
            np.testing.assert_allclose(back.coeffs, f.coeffs, rtol=1e-8, atol=1e-12)

    def test_constant_on_torus_hits_only_zero_mode(self, torus):
        c = analyze(np.ones_like(torus.grid), torus).coeffs
        np.testing.assert_allclose(c[0], math.sqrt(2 * math.pi), rtol=1e-12)
        np.testing.assert_allclose(c[1:], 0.0, atol=1e-12)

    def test_analyze_recovers_first_mode(self, interval):
        vals = math.sqrt(2.0) * np.sin(math.pi * interval.grid)
        c = analyze(vals, interval)
        np.testing.assert_allclose(c.coeffs, unit_vector(interval, 0).coeffs, atol=1e-8)

    def test_analyze_empty_values(self, interval):
        with pytest.raises(ShapeError):
            analyze(np.array([]), interval)

    @pytest.mark.parametrize("oversample", [4, 8])
    @pytest.mark.parametrize(
        "kind, n",
        [
            (BasisKind.DIRICHLET_SINE, 16),
            (BasisKind.DIRICHLET_SINE, 17),
            (BasisKind.FOURIER_TORUS, 17),
            (BasisKind.FOURIER_TORUS, 19),
        ],
    )
    def test_analyze_matches_direct_quadrature(self, kind, n, oversample):
        basis = build_basis(kind, n, oversample)
        # grid samples that are no band-limited function of the basis
        values = np.random.default_rng(n).standard_normal(basis.grid.size) + basis.grid**2
        want = direct_analyze(values, basis)
        got = analyze(values, basis).coeffs
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_no_array_larger_than_grid(self):
        for kind, n in [(BasisKind.DIRICHLET_SINE, 64), (BasisKind.FOURIER_TORUS, 65)]:
            basis = build_basis(kind, n, 8)
            sizes = {
                name: np.asarray(value).size
                for name, value in vars(basis).items()
                if isinstance(value, np.ndarray)
            }
            assert sizes and max(sizes.values()) <= basis.grid.size, sizes

    def test_analyze_at_scale(self):
        # a table of mode values on this grid would hold 8 n^2 doubles, 17 GB
        n = 16384
        basis = build_basis(BasisKind.DIRICHLET_SINE, n, 8)
        n_grid = basis.grid.size
        values = np.random.default_rng(1).standard_normal(n_grid)
        got = analyze(values, basis).coeffs
        assert got.shape == (n,)
        odd = 2 * np.arange(n_grid, dtype=np.int64) + 1
        for j in (1, 1000, n):
            # sin(pi j (i + 1/2) / N) with the phase reduced exactly in integers
            phase = (j * odd) % (4 * n_grid)
            want = math.sqrt(2.0) * np.dot(np.sin(np.pi * phase / (2 * n_grid)), values) / n_grid
            assert abs(got[j - 1] - want) <= 1e-13 * np.linalg.norm(values) / math.sqrt(n_grid)


class TestInner:
    def test_orthonormality(self, interval):
        e1, e2 = unit_vector(interval, 0), unit_vector(interval, 1)
        assert inner(e1, e1) == 1.0
        assert inner(e1, e2) == 0.0

    def test_basis_mismatch(self, interval, torus):
        f = coeff_vector(interval, np.ones(interval.n_modes))
        g = coeff_vector(torus, np.ones(torus.n_modes))
        with pytest.raises(ShapeError):
            inner(f, g)

    @pytest.mark.parametrize("kind", [BasisKind.DIRICHLET_SINE, BasisKind.FOURIER_TORUS])
    def test_parseval_against_quadrature(self, kind):
        n = 17 if kind is BasisKind.FOURIER_TORUS else 16
        basis = build_basis(kind, n, 8)
        for seed in range(5):
            f = random_vec(basis, seed)
            g = random_vec(basis, seed + 100)
            values = synthesize(f, basis.grid) * synthesize(g, basis.grid)
            quad = np.dot(quad_weights(basis), values)
            assert abs(inner(f, g) - quad) <= 1e-8 * max(abs(inner(f, g)), 1.0)

    def test_parseval_self(self, interval):
        f = random_vec(interval, 3)
        quad = np.dot(quad_weights(interval), synthesize(f, interval.grid) ** 2)
        assert abs(inner(f, f) - quad) <= 1e-8 * inner(f, f)


class TestSobolevNorms:
    def test_first_mode_order_one(self, interval):
        want = (1 + math.pi**2) ** 0.5
        np.testing.assert_allclose(sobolev_norm(unit_vector(interval, 0), 1.0), want, rtol=1e-14)

    def test_zero_exponent_is_l2(self, interval):
        f = random_vec(interval, 7)
        np.testing.assert_allclose(
            sobolev_norm(f, 0.0), np.linalg.norm(f.coeffs), rtol=1e-14
        )

    def test_negative_exponent(self, interval):
        want = (1 + math.pi**2) ** -0.5
        np.testing.assert_allclose(sobolev_norm(unit_vector(interval, 0), -1.0), want, rtol=1e-14)

    def test_norm_monotone_in_exponent(self, interval):
        f = random_vec(interval, 11)
        exponents = [-2.0, -1.0, 0.0, 0.5, 1.0, 2.0]
        norms = [sobolev_norm(f, s) for s in exponents]
        assert all(a <= b for a, b in zip(norms, norms[1:]))

    def test_dual_norm_first_mode(self, interval):
        want = (1 + math.pi**2) ** -1.75
        np.testing.assert_allclose(sobolev_norm(unit_vector(interval, 0), -3.5), want, rtol=1e-14)

    def test_dual_norm_zero(self, interval):
        assert sobolev_norm(coeff_vector(interval, np.zeros(interval.n_modes)), -2.0) == 0.0

    def test_dual_norm_dominated_by_l2(self, interval):
        f = random_vec(interval, 13)
        assert sobolev_norm(f, -1.5) <= sobolev_norm(f, 0.0)

    def test_one_definition_of_the_weights(self):
        # every module takes the smoothness scale's weights from
        # SpectralBasis.sobolev_weights; only spectral writes them out
        pattern = re.compile(r"1\.0 \+ [\w.]*eigenvalues")
        hits = [
            f"{path.name}:{number}"
            for path in sorted(Path(bvmlab.__file__).parent.glob("*.py"))
            if path.name != "spectral.py"
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(line)
        ]
        assert hits == []


class TestBumpCutoff:
    def test_plateau_value(self):
        zeta = make_bump((0.2, 0.8), (0.3, 0.7))
        assert zeta(np.array([0.5]))[0] == 1.0

    def test_outside_support(self):
        zeta = make_bump((0.2, 0.8), (0.3, 0.7))
        assert zeta(np.array([0.15]))[0] == 0.0

    def test_range(self):
        zeta = make_bump((0.2, 0.8), (0.3, 0.7))
        vals = zeta(np.linspace(0, 1, 2001))
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_nesting_violation(self):
        with pytest.raises(ConfigurationError):
            make_bump((0.2, 0.8), (0.1, 0.7))
        with pytest.raises(ConfigurationError):
            make_bump((0.0, 0.8), (0.3, 0.7))

    def test_finite_difference_derivative_bounded(self):
        zeta = make_bump((0.2, 0.8), (0.3, 0.7))
        x = np.linspace(0, 1, 10_001)
        vals = zeta(x)
        deriv = np.diff(vals) / np.diff(x)
        assert np.all(np.isfinite(deriv))
        assert np.abs(deriv).max() < 1e3


class TestBandlimit:
    def test_projection_leaves_lowpass_untouched(self, torus):
        f = random_vec(torus, 2, max_mode=3)
        out = bandlimit_approx(f, 5)
        np.testing.assert_array_equal(out.coeffs, f.coeffs)

    def test_projection_idempotent_bitwise(self, torus):
        f = random_vec(torus, 4)
        once = bandlimit_approx(f, 3)
        twice = bandlimit_approx(once, 3)
        np.testing.assert_array_equal(once.coeffs, twice.coeffs)

    def test_cutoff_beyond_modes_rejected(self, torus):
        f = random_vec(torus, 5)
        with pytest.raises(ConfigurationError):
            bandlimit_approx(f, torus.n_modes + 1)

    def test_cutoff_error_bound_below_smoothness(self, torus):
        # tail bound in smoothness s < alpha with constant one
        alpha, s, cutoff = 2.0, 1.0, 4
        for seed in range(20):
            f = sobolev_draw(torus, alpha, seed)
            approx = bandlimit_approx(f, cutoff)
            diff = coeff_vector(torus, approx.coeffs - f.coeffs)
            lhs = sobolev_norm(diff, s) ** 2
            rhs = (1 + cutoff**2) ** (s - alpha) * sobolev_norm(f, alpha) ** 2
            assert lhs <= rhs

    def test_cutoff_growth_bound_above_smoothness(self, torus):
        alpha, cutoff = 2.0, 4
        for t in (0.0, 1.0, 3.0):
            for seed in range(20):
                f = sobolev_draw(torus, alpha, seed)
                approx = bandlimit_approx(f, cutoff)
                lhs = sobolev_norm(approx, t) ** 2
                rhs = (1 + cutoff**2) ** max(0.0, t - alpha) * sobolev_norm(f, alpha) ** 2
                assert lhs <= rhs

    def test_cutoff_dual_bound(self, torus):
        alpha, cutoff = 2.0, 4
        for s in (0.0, 1.0, 2.0):
            for seed in range(20):
                f = sobolev_draw(torus, alpha, seed)
                approx = bandlimit_approx(f, cutoff)
                diff = coeff_vector(torus, approx.coeffs - f.coeffs)
                lhs = sobolev_norm(diff, -s) ** 2
                rhs = (1 + cutoff**2) ** (-s - alpha) * sobolev_norm(f, alpha) ** 2
                assert lhs <= rhs


class TestSobolevDraw:
    def test_unit_norm_and_determinism(self, interval):
        f = sobolev_draw(interval, 2.0, 42)
        g = sobolev_draw(interval, 2.0, 42)
        np.testing.assert_array_equal(f.coeffs, g.coeffs)
        np.testing.assert_allclose(sobolev_norm(f, 2.0), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("alpha", [78.0, 400.0])
    def test_norm_outside_the_double_range_refused(self, alpha):
        # the top weights (1 + lambda_32)^alpha overflow while the squared
        # coefficients are subnormal or 0: the norm is inf or nan, and dividing
        # by it returned zeros
        basis = build_basis(BasisKind.DIRICHLET_SINE, 32, 4)
        with pytest.raises(ConfigurationError, match=r"^alpha=.*: the draw's norm is (inf|nan)"):
            sobolev_draw(basis, alpha, 0)
