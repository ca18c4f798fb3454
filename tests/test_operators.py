import dataclasses
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bvmlab
from bvmlab import bvm, cli, posterior
from bvmlab.config import parse_config
from bvmlab.errors import ConfigurationError, IllPosedError, NumericalError, ShapeError
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


class TestForwardOperator:
    """The one check of a stored map: its shape, finiteness and freezing."""

    def test_vector_and_square_matrix_accepted(self, interval):
        n = interval.n_modes
        diagonal = ForwardOperator(interval, [1] * n)
        dense = ForwardOperator(interval, np.eye(n))
        assert diagonal.array.dtype == dense.array.dtype == np.float64
        assert diagonal.array.shape == (n,) and dense.array.shape == (n, n)

    @pytest.mark.parametrize("shape", [(31,), (33,), (32, 31), (31, 31), (32, 32, 1), ()])
    def test_other_shapes_refused(self, interval, shape):
        with pytest.raises(ShapeError, match=r"\(32,\) or \(32, 32\)"):
            ForwardOperator(interval, np.ones(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dense", [False, True], ids=["vector", "matrix"])
    def test_non_finite_entry_refused(self, interval, bad, dense):
        array = np.eye(interval.n_modes) if dense else np.ones(interval.n_modes)
        array.flat[5] = bad
        with pytest.raises(ConfigurationError, match="entries must be finite"):
            ForwardOperator(interval, array)

    @pytest.mark.parametrize("dense", [False, True], ids=["vector", "matrix"])
    def test_array_is_a_frozen_copy(self, interval, dense):
        given = np.eye(interval.n_modes) if dense else np.ones(interval.n_modes)
        op = ForwardOperator(interval, given)
        given[0] = 7.0
        assert op.array[0].max() == 1.0
        assert not op.array.flags.writeable
        with pytest.raises(ValueError):
            op.array[0] = 2.0

    def test_views_agree_with_array(self, bvp_pair, bvp_variable_pair):
        for op in (*bvp_pair, *bvp_variable_pair):
            assert op.is_diagonal == (op.array.ndim == 1)
            stored = op.multipliers if op.is_diagonal else op.matrix
            assert stored is op.array
            assert (op.matrix if op.is_diagonal else op.multipliers) is None
        assert bvp_pair[1].is_diagonal and not bvp_variable_pair[1].is_diagonal

    def test_fields_are_basis_array_companion(self, interval):
        op = ForwardOperator(interval, np.ones(interval.n_modes))
        assert [field.name for field in dataclasses.fields(op)] == ["basis", "array", "companion"]


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
        dense = ForwardOperator(basis=interval, array=np.diag(op.multipliers))
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
            "identity": ForwardOperator(basis=interval, array=np.ones(interval.n_modes)),
            "psido": psido_multiplier(torus, 2.0),
            "bvp": bvp_pair[1],
            "bvp_variable": bvp_variable_pair[1],
            "heat": heat_semigroup(interval, 0.1),
        }[family]
        if dense and op.is_diagonal:
            op = ForwardOperator(basis=op.basis, array=np.diag(op.multipliers))
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
        out = fisher_solve(inv, unit_vector(interval, 0))
        want = np.zeros(interval.n_modes)
        want[0] = math.pi**4
        np.testing.assert_allclose(out.coeffs, want, rtol=1e-12)

    def test_identity_unchanged(self, interval):
        op = ForwardOperator(basis=interval, array=np.ones(interval.n_modes))
        f = random_vec(interval, 7)
        np.testing.assert_array_equal(fisher_solve(op, f).coeffs, f.coeffs)

    def test_heat_high_mode_ill_posed(self):
        basis = build_basis(BasisKind.DIRICHLET_SINE, 64, 8)
        op = heat_semigroup(basis, 0.1)
        psi = unit_vector(basis, 39)
        # the mode-40 multiplier is stored as an exact 0, so psi is outside
        # the range of A*A
        assert op.multipliers[39] == 0.0
        with pytest.raises(IllPosedError, match="outside the range of A"):
            fisher_solve(op, psi)

    def test_heat_low_mode_resolvable(self, interval):
        op = heat_semigroup(interval, 0.1)
        out = fisher_solve(op, unit_vector(interval, 0))
        np.testing.assert_allclose(out.coeffs[0], math.exp(2 * math.pi**2 * 0.1), rtol=1e-12)

    def test_heat_modes_solve_as_quotients_until_a_squared_is_subnormal(self):
        # the representer of a diagonal map is psi_j / a_j^2, exact to rounding
        # at any condition; a mode whose a_j^2 is below the least normal double
        # (subnormal from mode 19 at T = 0.1, and 0 once a_j is stored as 0)
        # puts psi outside the range of A*A
        basis = build_basis(BasisKind.DIRICHLET_SINE, 64, 8)
        op = heat_semigroup(basis, 0.1)
        squared = op.multipliers**2
        normal = squared >= np.finfo(float).tiny
        assert normal.tolist() == [True] * 18 + [False] * 46
        psi = random_vec(basis, 5)
        cut = coeff_vector(basis, np.where(normal, psi.coeffs, 0.0))
        want = np.where(normal, psi.coeffs, 0.0)
        want[normal] /= squared[normal]
        # condition exp(2 (lambda_18 - lambda_1) T) = 7.9e276 over psi's modes
        np.testing.assert_array_equal(fisher_solve(op, cut).coeffs, want)
        for index in (18, 19, 40, 63):
            with pytest.raises(IllPosedError, match="outside the range of A"):
                fisher_solve(op, coeff_vector(basis, cut.coeffs + np.eye(64)[index]))

    def test_dense_matches_diagonal(self, bvp_pair, interval):
        _, inv = bvp_pair
        dense = ForwardOperator(basis=interval, array=np.diag(inv.multipliers))
        psi = random_vec(interval, 11)
        diag_out = fisher_solve(inv, psi)
        dense_out = fisher_solve(dense, psi)
        np.testing.assert_allclose(dense_out.coeffs, diag_out.coeffs, rtol=1e-8)
        # both storages read only the modes psi occupies: the dense copy of the
        # heat semigroup was once refused for the modes it annihilates
        basis = build_basis(BasisKind.DIRICHLET_SINE, 64, 8)
        heat = heat_semigroup(basis, 0.1)
        dense = ForwardOperator(basis=basis, array=np.diag(heat.multipliers))
        psi = unit_vector(basis, 0)
        diag_out = fisher_solve(heat, psi)
        assert diag_out.coeffs[0] == pytest.approx(7.19884704253, rel=1e-11)
        np.testing.assert_array_equal(fisher_solve(dense, psi).coeffs, diag_out.coeffs)

    def test_overflowing_squares_are_numerical_error(self):
        # the squares 1e400 overflowed to inf, inf / inf gave a nan condition
        # that passed the gate, and the diagonal path returned zeros
        basis = build_basis(BasisKind.DIRICHLET_SINE, 64, 8)
        op = ForwardOperator(basis=basis, array=np.full(64, 1e200))
        with pytest.raises(NumericalError, match="largest eigenvalue"):
            fisher_solve(op, unit_vector(basis, 3))

    def test_overflowing_solution_is_numerical_error(self, bvp_pair, interval):
        # 1e305 * (pi k)^4 leaves the double range on every mode: the quotient
        # warned, and its inf failed later as an unkeyed configuration error
        _, inv = bvp_pair
        dense = ForwardOperator(basis=interval, array=np.diag(inv.multipliers))
        psi = coeff_vector(interval, np.full(interval.n_modes, 1e305))
        for op in (inv, dense):
            with pytest.raises(NumericalError, match="overflows the double range"):
                fisher_solve(op, psi)

    @pytest.mark.parametrize("n_modes", [32, 256])
    @pytest.mark.parametrize("coefficient", ["constant", "sine"])
    @pytest.mark.parametrize("index", [0, 1], ids=["L", "L_inv"])
    def test_companion_closed_form_matches_svd_solve(self, n_modes, coefficient, index):
        # the elliptic pair solve A*A x = psi as C(C psi); the decomposition of
        # a bare copy, which has no companion, is the oracle
        basis = build_basis(BasisKind.DIRICHLET_SINE, n_modes, 8)
        amplitude = {"constant": 0.0, "sine": 0.5}[coefficient]
        coeff = EllipticCoefficient(lambda x: 1.0 + amplitude * np.sin(2 * np.pi * x), floor=0.4)
        op = elliptic_operator(coeff, basis)[index]
        assert op.is_diagonal == (coefficient == "constant")
        psi = random_vec(basis, 13)
        closed = fisher_solve(op, psi).coeffs
        oracle = fisher_solve(ForwardOperator(basis, op.array), psi).coeffs
        assert np.linalg.norm(closed - oracle) <= 1e-10 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("pair_name", ["bvp_pair", "bvp_variable_pair"])
    def test_normal_roundtrip(self, pair_name, interval, request):
        _, inv = request.getfixturevalue(pair_name)
        for seed in range(5):
            psi = random_vec(interval, seed, max_mode=interval.n_modes // 2)
            sol = fisher_solve(inv, psi)
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


def _hits_outside_operators(pattern: str) -> list[str]:
    """Each line of the package outside this module that ``pattern`` matches."""
    return [
        f"{path.name}:{number}"
        for path in sorted(Path(bvmlab.__file__).parent.glob("*.py"))
        if path.name != "operators.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(pattern, line)
    ]


def test_only_operators_reads_the_storage():
    # every other module reads a forward map through ForwardOperator.array
    # and the functions of this module, never through how it is stored
    assert _hits_outside_operators(r"\.(multipliers|matrix|is_diagonal)\b") == []


def test_only_operators_decomposes_a_stored_map():
    # the posterior system, its weighted spectrum and the Tikhonov cross-check
    # decompose or densify through this module's helpers, which alone hold the
    # rule that a vector is diagonal
    assert _hits_outside_operators(r"\blinalg\.svd\b") == []
    for module in (posterior, bvm):
        assert ".ndim" not in inspect.getsource(module)


def test_forward_map_caches_nothing():
    # the build decomposes the dense map for its embedding constant alone and
    # keeps nothing of it, so no factor lives through the run or is pickled
    # into the workers
    context = cli.build_context(
        parse_config(
            "experiment=coverage\nn_modes=32\nfunctional.band=8\n"
            "operator.coefficient=sine\noutput_path=o.csv\n"
        )
    )
    forward = context.forward
    assert not forward.is_diagonal and context.functional is not None
    assert set(vars(forward)) == {field.name for field in dataclasses.fields(forward)}


def test_elliptic_build_decomposes_only_for_the_embedding_constant(monkeypatch):
    # the benchmark's coverage-dense config: the representer comes from the
    # companion, so the one decomposition is the embedding constant's values
    svd, calls = np.linalg.svd, []

    def counting_svd(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    cli.build_context(
        parse_config(
            "experiment=coverage\nn_modes=256\noperator.kind=bvp\noperator.coefficient=sine\n"
            "epsilons=1e-2,1e-3,1e-4\nn_replicates=10\nball_beta=3.5\noutput_path=o.csv\n"
        )
    )
    assert calls == [False]


def test_dense_sine_map_at_1024_modes_builds():
    # a decomposition counts every singular mode as occupied by a band-limited
    # psi, at condition 2.56e12 here; the companion's closed form decomposes
    # nothing
    context = cli.build_context(
        parse_config(
            "experiment=coverage\nn_modes=1024\noversample=4\noperator.coefficient=sine\n"
            "output_path=o.csv\n"
        )
    )
    functional, forward = context.functional, context.forward
    residual = normal_apply(forward, functional.psi_tilde).coeffs + functional.psi.coeffs
    assert np.linalg.norm(residual) < 1e-12 * np.linalg.norm(functional.psi.coeffs)
