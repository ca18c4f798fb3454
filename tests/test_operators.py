import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvmlab.errors import ConfigurationError, IllPosedError, ShapeError
from bvmlab.operators import (
    EllipticCoefficient,
    ForwardOperator,
    adjoint_apply,
    apply,
    elliptic_operator,
    embedding_constant,
    fisher_solve,
    heat_semigroup,
    normal_apply,
    psido_multiplier,
)
from bvmlab.spectral import (
    BasisKind,
    build_basis,
    coeff_vector,
    inner,
    sobolev_norm,
    unit_vector,
)
from reference import galerkin_matrix, random_vec


@pytest.fixture(scope="module")
def interval():
    return build_basis(BasisKind.DIRICHLET_SINE, 32, 8)


@pytest.fixture(scope="module")
def torus():
    return build_basis(BasisKind.FOURIER_TORUS, 33, 8)


@pytest.fixture(scope="module")
def bvp_pair(interval):
    return elliptic_operator(EllipticCoefficient(lambda x: np.ones_like(x)), interval)


@pytest.fixture(scope="module")
def bvp_variable_pair(interval):
    coeff = EllipticCoefficient(lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x), floor=0.4)
    return elliptic_operator(coeff, interval)


class TestPsido:
    def test_zero_order_is_identity(self, torus):
        op = psido_multiplier(torus, 0.0)
        np.testing.assert_array_equal(op.multipliers, np.ones(torus.n_modes))

    def test_order_two_first_frequency(self, torus):
        op = psido_multiplier(torus, 2.0)
        k1 = np.abs(torus.frequencies) == 1
        np.testing.assert_allclose(op.multipliers[k1], 0.5, rtol=1e-15)

    def test_multipliers_nonincreasing_in_frequency(self, torus):
        op = psido_multiplier(torus, 1.5)
        order = np.argsort(np.abs(torus.frequencies), kind="stable")
        assert np.all(np.diff(op.multipliers[order]) <= 0)

    def test_requires_torus(self, interval):
        with pytest.raises(ConfigurationError):
            psido_multiplier(interval, 2.0)

    @pytest.mark.parametrize("t", [1000.0, -300.0])
    def test_order_leaving_the_doubles_refused(self, t):
        # at 257 modes (1 + 128^2)^(-t/2) underflows to 0 for t = 1000 and
        # overflows for t = -300
        basis = build_basis(BasisKind.FOURIER_TORUS, 257, 4)
        with pytest.raises(ConfigurationError, match="0 or inf"):
            psido_multiplier(basis, t)


class TestEllipticOperator:
    def test_constant_coefficient_inverse_on_first_mode(self, bvp_pair, interval):
        _, l_inv = bvp_pair
        out = apply(l_inv, unit_vector(interval, 0))
        want = np.zeros(interval.n_modes)
        want[0] = 1.0 / math.pi**2
        np.testing.assert_allclose(out.coeffs, want, rtol=1e-12, atol=1e-15)

    def test_constant_coefficient_is_diagonal(self, bvp_pair):
        fwd, inv = bvp_pair
        assert fwd.is_diagonal and inv.is_diagonal
        assert fwd.companion is inv and inv.companion is fwd
        np.testing.assert_array_equal(inv.multipliers, 1.0 / fwd.multipliers)

    def test_variable_coefficient_matrix_symmetric(self, bvp_variable_pair):
        fwd, inv = bvp_variable_pair
        assert not fwd.is_diagonal
        assert np.abs(fwd.matrix - fwd.matrix.T).max() <= 1e-12 * np.abs(fwd.matrix).max()
        assert np.abs(inv.matrix - inv.matrix.T).max() <= 1e-12 * np.abs(inv.matrix).max()

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize(
        "a",
        [lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x), lambda x: 2.0 + x**2],
        ids=["sine", "two_plus_x_squared"],
    )
    def test_galerkin_matches_derivative_table(self, n, a):
        basis = build_basis(BasisKind.DIRICHLET_SINE, n, 8)
        fwd, _ = elliptic_operator(EllipticCoefficient(a), basis)
        want = galerkin_matrix(a(basis.grid), basis)
        assert np.abs(fwd.matrix - want).max() <= 1e-13 * np.abs(want).max()
        np.testing.assert_array_equal(fwd.matrix, fwd.matrix.T)

    @pytest.mark.parametrize("pair_name", ["bvp_pair", "bvp_variable_pair"])
    def test_inverse_roundtrip(self, pair_name, interval, request):
        fwd, inv = request.getfixturevalue(pair_name)
        for seed in range(5):
            f = random_vec(interval, seed, max_mode=interval.n_modes // 2)
            back = apply(inv, apply(fwd, f))
            np.testing.assert_allclose(back.coeffs, f.coeffs, rtol=1e-8, atol=1e-10)

    def test_ellipticity_floor_violation(self, interval):
        coeff = EllipticCoefficient(lambda x: 0.2 + 0.5 * np.sin(2 * np.pi * x), floor=0.1)
        with pytest.raises(ConfigurationError):
            elliptic_operator(coeff, interval)

    def test_non_finite_coefficient(self, interval):
        coeff = EllipticCoefficient(lambda x: np.where(x < 0.5, 1.0, np.nan))
        with pytest.raises(ConfigurationError, match="finite"):
            elliptic_operator(coeff, interval)

    def test_requires_interval_basis(self, torus):
        with pytest.raises(ConfigurationError):
            elliptic_operator(EllipticCoefficient(lambda x: np.ones_like(x)), torus)

    def test_galerkin_matches_diagonal_for_near_constant(self, interval):
        # dense assembly of a ~= 1 must reproduce the eigenvalue diagonal to quadrature accuracy
        coeff = EllipticCoefficient(lambda x: 1.0 + 1e-9 * np.sin(2 * np.pi * x))
        fwd, _ = elliptic_operator(coeff, interval)
        assert not fwd.is_diagonal
        np.testing.assert_allclose(np.diag(fwd.matrix), interval.eigenvalues, rtol=1e-8)
        off = fwd.matrix - np.diag(np.diag(fwd.matrix))
        assert np.abs(off).max() <= 1e-7 * interval.eigenvalues.max()


class TestHeatSemigroup:
    def test_time_zero_identity(self, interval):
        op = heat_semigroup(interval, 0.0)
        np.testing.assert_array_equal(op.multipliers, np.ones(interval.n_modes))

    def test_first_mode_decay(self, interval):
        op = heat_semigroup(interval, 0.1)
        np.testing.assert_allclose(op.multipliers[0], math.exp(-math.pi**2 * 0.1), rtol=1e-15)

    def test_strictly_decreasing(self, interval):
        op = heat_semigroup(interval, 0.1)
        nonzero = op.multipliers[op.multipliers > 0]
        assert np.all(np.diff(nonzero) < 0)

    def test_negative_time_rejected(self, interval):
        with pytest.raises(ConfigurationError):
            heat_semigroup(interval, -0.5)

    def test_underflow_flagged(self, interval):
        op = heat_semigroup(interval, 0.5)
        flagged = op.multipliers == 0.0
        assert flagged.any()
        # zero exactly where the exponent exceeds the representable range
        assert np.array_equal(flagged, interval.eigenvalues * 0.5 > 710)


class TestApplyAdjoint:
    def test_diagonal_action_on_modes(self, interval):
        op = heat_semigroup(interval, 0.05)
        for j in (0, 3, 10):
            out = apply(op, unit_vector(interval, j))
            want = np.zeros(interval.n_modes)
            want[j] = op.multipliers[j]
            np.testing.assert_array_equal(out.coeffs, want)

    def test_linearity(self, bvp_variable_pair, interval):
        _, inv = bvp_variable_pair
        f, g = random_vec(interval, 1), random_vec(interval, 2)
        combo = coeff_vector(interval, 2.0 * f.coeffs - 3.0 * g.coeffs)
        lhs = apply(inv, combo).coeffs
        rhs = 2.0 * apply(inv, f).coeffs - 3.0 * apply(inv, g).coeffs
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.abs(rhs).max())

    def test_dense_wrap_matches_diagonal(self, interval):
        op = heat_semigroup(interval, 0.05)
        dense = ForwardOperator(basis=interval, matrix=np.diag(op.multipliers))
        f = random_vec(interval, 3)
        np.testing.assert_allclose(
            apply(dense, f).coeffs, apply(op, f).coeffs, atol=1e-12
        )

    def test_basis_mismatch(self, torus, interval):
        op = psido_multiplier(torus, 2.0)
        with pytest.raises(ShapeError):
            apply(op, random_vec(interval, 0))

    def test_diagonal_adjoint_equals_apply(self, interval):
        op = heat_semigroup(interval, 0.05)
        f = random_vec(interval, 4)
        np.testing.assert_array_equal(adjoint_apply(op, f).coeffs, apply(op, f).coeffs)

    def test_dense_symmetric_adjoint_equals_apply(self, bvp_variable_pair, interval):
        _, inv = bvp_variable_pair
        f = random_vec(interval, 5)
        np.testing.assert_allclose(
            adjoint_apply(inv, f).coeffs, apply(inv, f).coeffs, atol=1e-12
        )

    def test_adjoint_identity_all_families(self, torus, interval, bvp_variable_pair):
        operators = [
            psido_multiplier(torus, 2.0),
            bvp_variable_pair[1],
            heat_semigroup(interval, 0.1),
        ]
        for op in operators:
            rng = np.random.default_rng(99)
            for _ in range(100):
                f = coeff_vector(op.basis, rng.standard_normal(op.basis.n_modes))
                g = coeff_vector(op.basis, rng.standard_normal(op.basis.n_modes))
                lhs = inner(apply(op, f), g)
                rhs = inner(f, adjoint_apply(op, g))
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from(["identity", "psido", "bvp", "bvp_variable", "heat"]),
        dense=st.booleans(),
        seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    )
    def test_adjoint_identity_property(
        self, torus, interval, bvp_pair, bvp_variable_pair, family, dense, seeds
    ):
        op = {
            "identity": ForwardOperator(basis=interval, multipliers=np.ones(interval.n_modes)),
            "psido": psido_multiplier(torus, 2.0),
            "bvp": bvp_pair[1],
            "bvp_variable": bvp_variable_pair[1],
            "heat": heat_semigroup(interval, 0.1),
        }[family]
        if dense and op.is_diagonal:
            op = ForwardOperator(basis=op.basis, matrix=np.diag(op.multipliers))
        f, g = random_vec(op.basis, seeds[0]), random_vec(op.basis, seeds[1])
        af, adj_g = apply(op, f), adjoint_apply(op, g)
        lhs, rhs = inner(af, g), inner(f, adj_g)
        scale = max(
            np.linalg.norm(af.coeffs) * np.linalg.norm(g.coeffs),
            np.linalg.norm(f.coeffs) * np.linalg.norm(adj_g.coeffs),
        )
        assert abs(lhs - rhs) <= 1e-12 * scale

    def test_solution_map_self_adjoint(self, bvp_variable_pair, interval):
        _, inv = bvp_variable_pair
        for seed in range(10):
            f, g = random_vec(interval, seed), random_vec(interval, seed + 50)
            lhs = inner(apply(inv, f), g)
            rhs = inner(f, apply(inv, g))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


class TestFisherSolve:
    def test_constant_bvp_first_mode(self, bvp_pair, interval):
        _, inv = bvp_pair
        out = fisher_solve(inv, unit_vector(interval, 0), 1e12)
        want = np.zeros(interval.n_modes)
        want[0] = math.pi**4
        np.testing.assert_allclose(out.coeffs, want, rtol=1e-12)

    def test_identity_unchanged(self, interval):
        op = ForwardOperator(basis=interval, multipliers=np.ones(interval.n_modes))
        f = random_vec(interval, 7)
        np.testing.assert_array_equal(fisher_solve(op, f, 1e12).coeffs, f.coeffs)

    def test_heat_high_mode_ill_posed(self):
        basis = build_basis(BasisKind.DIRICHLET_SINE, 64, 8)
        op = heat_semigroup(basis, 0.1)
        psi = unit_vector(basis, 39)
        # the mode-40 amplification exponent dwarfs the condition limit
        assert 2 * basis.eigenvalues[39] * 0.1 > math.log(1e12)
        with pytest.raises(IllPosedError):
            fisher_solve(op, psi, 1e12)

    def test_heat_low_mode_resolvable(self, interval):
        op = heat_semigroup(interval, 0.1)
        out = fisher_solve(op, unit_vector(interval, 0), 1e12)
        np.testing.assert_allclose(out.coeffs[0], math.exp(2 * math.pi**2 * 0.1), rtol=1e-12)

    def test_cond_limit_gates_mode_spread(self, interval):
        op = heat_semigroup(interval, 0.1)
        psi = coeff_vector(interval, [1.0, 0.0, 1.0] + [0.0] * (interval.n_modes - 3))
        spread = math.exp(2 * (interval.eigenvalues[2] - interval.eigenvalues[0]) * 0.1)
        with pytest.raises(IllPosedError):
            fisher_solve(op, psi, spread / 2)
        out = fisher_solve(op, psi, spread * 2)
        assert out.coeffs[2] == pytest.approx(math.exp(2 * interval.eigenvalues[2] * 0.1))

    def test_dense_matches_diagonal(self, bvp_pair, interval):
        _, inv = bvp_pair
        dense = ForwardOperator(basis=interval, matrix=np.diag(inv.multipliers))
        psi = random_vec(interval, 11)
        diag_out = fisher_solve(inv, psi, 1e12)
        dense_out = fisher_solve(dense, psi, 1e12)
        np.testing.assert_allclose(dense_out.coeffs, diag_out.coeffs, rtol=1e-8)

    def test_dense_cond_limit_gates_normal_operator(self, bvp_variable_pair, interval):
        _, inv = bvp_variable_pair
        assert not inv.is_diagonal
        s = np.linalg.svd(inv.matrix, compute_uv=False)
        cond = (s[0] / s[-1]) ** 2
        psi = random_vec(interval, 3, max_mode=interval.n_modes // 2)
        with pytest.raises(IllPosedError, match="normal operator condition"):
            fisher_solve(inv, psi, cond * (1 - 1e-6))
        sol = fisher_solve(inv, psi, cond * (1 + 1e-6))
        back = normal_apply(inv, sol)
        np.testing.assert_allclose(back.coeffs, psi.coeffs, rtol=1e-8, atol=1e-9)

    @pytest.mark.parametrize("pair_name", ["bvp_pair", "bvp_variable_pair"])
    def test_normal_roundtrip(self, pair_name, interval, request):
        _, inv = request.getfixturevalue(pair_name)
        for seed in range(5):
            psi = random_vec(interval, seed, max_mode=interval.n_modes // 2)
            sol = fisher_solve(inv, psi, 1e12)
            back = normal_apply(inv, sol)
            np.testing.assert_allclose(back.coeffs, psi.coeffs, rtol=1e-8, atol=1e-9)


class TestSmoothingEstimate:
    def test_variable_coefficient_within_calibrated_slack(self, bvp_pair, bvp_variable_pair, interval):
        _, inv_const = bvp_pair
        c = embedding_constant(inv_const, -2.0)
        np.testing.assert_allclose(c, (1 + math.pi**2) / math.pi**2, rtol=1e-12)
        _, inv_var = bvp_variable_pair
        for seed in range(20):
            f = random_vec(interval, seed)
            lhs = sobolev_norm(apply(inv_var, f), 0.0)
            rhs = sobolev_norm(f, -2.0)
            assert lhs <= 10 * c * rhs
