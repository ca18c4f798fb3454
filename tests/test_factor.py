"""The posterior system and the columnar replicate engine: agreement with
independent solves and with a per-replicate reference loop, one
factorisation per run whatever the number of noise levels, chunk
invariance, and error mapping."""
import math
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvmlab import cli, posterior
from bvmlab.bvm import (
    credible_sets,
    replicate_errors,
    replicate_table,
    representer,
)
from bvmlab.config import parse_config
from bvmlab.errors import ConfigurationError, NumericalError
from bvmlab.operators import (
    EllipticCoefficient,
    ForwardOperator,
    apply,
    elliptic_operator,
    embedding_constant,
    fisher_solve,
)
from bvmlab.posterior import posterior_system, tikhonov_solve
from bvmlab.priors import matern_prior
from bvmlab.seeds import derive_seed
from bvmlab.spectral import (
    BasisKind,
    analyze,
    build_basis,
    coeff_vector,
    inner,
    make_bump,
    sobolev_draw,
    sobolev_norm,
    unit_vector,
)


@pytest.fixture(scope="module")
def dense_setup():
    """Dense Galerkin solution map of the sine-coefficient elliptic problem."""
    basis = build_basis(BasisKind.DIRICHLET_SINE, 32, 8)
    coeff = EllipticCoefficient(lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x), floor=0.25)
    op = elliptic_operator(coeff, basis)[1]
    assert not op.is_diagonal
    prior = matern_prior(basis, r=1.0)
    truth = analyze(make_bump((0.2, 0.7), (0.35, 0.55))(basis.grid), basis)
    tf = representer(op, apply(op, sobolev_draw(basis, 5.0, 12)))
    return prior, op, truth, tf


@pytest.fixture(scope="module")
def diag_setup():
    """Diagonal solution map of the constant-coefficient elliptic problem."""
    basis = build_basis(BasisKind.DIRICHLET_SINE, 32, 8)
    op = elliptic_operator(EllipticCoefficient(lambda x: np.ones_like(x)), basis)[1]
    assert op.is_diagonal
    prior = matern_prior(basis, r=1.0)
    truth = analyze(make_bump((0.2, 0.7), (0.35, 0.55))(basis.grid), basis)
    tf = representer(op, apply(op, sobolev_draw(basis, 5.0, 12)))
    return prior, op, truth, tf


REPLICATE_BLOCK = cli.REPLICATE_BLOCK

# the table's columns with one entry per row, and its level's numbers, read
# through its credible sets
ROW_COLUMNS = (
    "replicate_index",
    "functional_mean",
    "scaled_error",
    "hat_psi",
    "interval_covered",
    "ball_covered",
)
PER_CALL = (
    "epsilon",
    "level",
    "interval_radius",
    "posterior_functional_variance",
    "functional.limiting_variance",
    "ball_radius",
)


def _table(setup, epsilon, indices, level=0.95, ball_beta=None, master_seed=0):
    """``replicate_table`` of a setup's functional at the one noise level ``epsilon``."""
    prior, op, truth, tf = setup
    system = posterior_system(prior, op)
    sets = credible_sets(system, epsilon, tf, level, ball_beta)
    (table,) = replicate_table(system, [sets], truth, indices, master_seed)
    return table


def _rows(table):
    """One repr per row over the per-row columns, taken from ``.tolist()``.

    repr prints every float to full precision, so equal reprs are equal bits;
    a failing comparison names the first differing row.
    """
    n = len(table.replicate_index)
    columns = [getattr(table, name) for name in ROW_COLUMNS]
    return [repr(row) for row in zip(*([None] * n if c is None else c.tolist() for c in columns))]


def _per_call(table):
    """Everything in the table that does not depend on the row, as one repr."""
    return repr([attrgetter(name)(table.sets) for name in PER_CALL])


def _reference_replicates(
    prior, op, f_dagger, functional, epsilon, indices, level, ball_beta, master_seed
):
    """One replicate at a time through the single-vector maps of the system: the
    oracle for the engine.

    Each replicate draws its own noise and takes the modal mean
    g * (U^T A f_dagger + epsilon U^T w) the engine documents.  Returns the rows
    in the form of ``_rows`` and the per-call values in the form of ``_per_call``.
    """
    system = posterior_system(prior, op)
    truth_value = inner(f_dagger, functional.psi)
    image = apply(op, functional.psi_tilde)
    variance = system.functional_variance(functional.psi, epsilon)
    radius = posterior.two_sided_quantile(level) * math.sqrt(variance)
    ball_radius = None
    if ball_beta is not None:
        ball_radius = posterior.exact_ball_radius(system, epsilon, ball_beta, level)
    observed = apply(op, f_dagger).coeffs
    signal = system.rotate(observed)
    psi_modes = system.functional_modes(functional.psi)
    rows = []
    for i in indices:
        noise = posterior.noise_draw(op.basis, derive_seed(master_seed, 2 * i))
        modes = system.gains(epsilon) * (signal + epsilon * system.rotate(noise.coeffs))
        mean = system.synthesise(modes)
        # the modal form is the posterior mean of the replicate's data
        data = coeff_vector(op.basis, observed + epsilon * noise.coeffs)
        want = system.update(data, epsilon).coeffs
        assert np.linalg.norm(mean - want) <= 1e-12 * np.linalg.norm(want)
        ball_covered = None
        if ball_beta is not None:
            distance = sobolev_norm(coeff_vector(op.basis, f_dagger.coeffs - mean), -ball_beta)
            ball_covered = bool(distance <= ball_radius)
        value = float(np.dot(modes, psi_modes))
        rows.append(
            (
                i,
                value,
                (value - truth_value) / epsilon,
                truth_value - epsilon * inner(image, noise),
                bool(abs(truth_value - value) <= radius),
                ball_covered,
            )
        )
    per_call = [epsilon, level, radius, variance, functional.limiting_variance, ball_radius]
    return [repr(row) for row in rows], repr(per_call)


@pytest.mark.parametrize("setup", ["diag_setup", "dense_setup"])
@pytest.mark.parametrize("ball_beta", [None, 3.5])
@pytest.mark.parametrize(
    "indices",
    [None, [3, 1, REPLICATE_BLOCK + 1, 7]],
    ids=["all", "scattered"],
)
def test_engine_matches_reference_loop(request, setup, ball_beta, indices):
    prior, op, truth, tf = request.getfixturevalue(setup)
    n = REPLICATE_BLOCK + 3  # more replicates than one chunk of the CLI
    indices = range(n) if indices is None else indices
    kwargs = dict(level=0.9, ball_beta=ball_beta, master_seed=11)
    epsilons = (1e-2, 1e-3)
    system = posterior_system(prior, op)
    for functional in (tf, representer(op, unit_vector(op.basis, 1))):
        # one call scores every noise level against one noise draw per replicate
        levels = [credible_sets(system, eps, functional, 0.9, ball_beta) for eps in epsilons]
        tables = replicate_table(system, levels, truth, indices, master_seed=11)
        assert len(tables) == len(epsilons)
        for epsilon, table in zip(epsilons, tables):
            want_rows, want_per_call = _reference_replicates(
                prior, op, truth, functional, epsilon, indices, **kwargs
            )
            assert _rows(table) == want_rows
            assert _per_call(table) == want_per_call
            assert table.functional_mean.shape == (len(want_rows),)
            assert (table.sets.ball_radius is None) == (ball_beta is None)


@pytest.mark.parametrize("setup", ["diag_setup", "dense_setup"])
@pytest.mark.parametrize(
    "plan",
    [
        [(1e-2, "tf", None), (1e-3, "other", None)],
        [(1e-2, "tf", None), (1e-3, "tf", 3.5)],
        [(1e-2, "tf", 3.5), (1e-3, "tf", 2.75)],
    ],
    ids=["functionals", "ball-and-none", "ball-norms"],
)
def test_levels_mixing_functionals_or_balls_are_refused(request, setup, plan):
    # one call scores one functional and one ball norm over its noise levels
    prior, op, truth, tf = request.getfixturevalue(setup)
    functionals = {"tf": tf, "other": representer(op, unit_vector(op.basis, 1))}
    system = posterior_system(prior, op)
    levels = [credible_sets(system, eps, functionals[f], 0.9, beta) for eps, f, beta in plan]
    with pytest.raises(ConfigurationError, match="one functional and one ball_beta"):
        replicate_table(system, levels, truth, range(3), master_seed=5)


@pytest.mark.parametrize("setup", ["diag_setup", "dense_setup"])
def test_block_rows_match_single_rows_bitwise(request, setup):
    prior, op, truth, _ = request.getfixturevalue(setup)
    system = posterior_system(prior, op)
    seeds = [derive_seed(4, i) for i in range(40)]
    noise = posterior.noise_block(op.basis, seeds)
    for row, seed in zip(noise, seeds):
        assert row.tobytes() == posterior.noise_draw(op.basis, seed).coeffs.tobytes()
    data = apply(op, truth).coeffs + 1e-3 * noise
    rotated = system.rotate(data)
    means = system.synthesise(system.gains(1e-3) * rotated)
    assert rotated.shape == means.shape == data.shape
    for row, rotated_row, mean in zip(data, rotated, means):
        assert rotated_row.tobytes() == system.rotate(row).tobytes()
        single = system.update(coeff_vector(op.basis, row), 1e-3).coeffs
        assert mean.tobytes() == single.tobytes()


@pytest.mark.parametrize("coefficient", ["constant", "sine"])
def test_rates_rows_match_reference_loop(tmp_path, coefficient):
    config = parse_config(
        f"""
experiment=rates
operator.kind=bvp
operator.coefficient={coefficient}
n_modes=32
n_replicates={REPLICATE_BLOCK + 3}
truth.kind=sobolev
epsilons=1e-2,1e-3,1e-4
master_seed=5
output_path={tmp_path / "rates.csv"}
"""
    )
    context = cli.build_context(config)
    indices = range(2, REPLICATE_BLOCK + 3)
    system = posterior_system(context.prior, context.forward)
    chunk = cli._chunk_texts(context, system, indices)
    assert len(chunk) == len(config.epsilons)
    signal = system.rotate(apply(context.forward, context.truth).coeffs)
    for epsilon, (text, errors) in zip(config.epsilons, chunk):
        want = []
        for i in indices:
            # replicate i draws the noise of coverage replicate i
            seed = derive_seed(5, 2 * i)
            noise = posterior.noise_draw(context.basis, seed).coeffs
            modes = system.gains(epsilon) * (signal + epsilon * system.rotate(noise))
            mean = system.synthesise(modes)
            data = posterior.observe(context.forward, context.truth, epsilon, seed)
            posterior_mean = system.update(data, epsilon).coeffs
            assert np.linalg.norm(mean - posterior_mean) <= 1e-12 * np.linalg.norm(mean)
            error = coeff_vector(context.basis, mean - context.truth.coeffs)
            want.append(sobolev_norm(error, -2.0))
        assert text == "".join(
            f"{format(epsilon, '.17g')},{i},{format(err, '.17g')}\n"
            for i, err in zip(indices, want)
        )
        assert [repr(e) for e in errors.tolist()] == [repr(e) for e in want]
        cells = [line.split(",")[2] for line in text.splitlines()]
        assert [repr(float(cell)) for cell in cells] == [repr(e) for e in want]


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("epsilon", [1e-2, 1e-4])
def test_replicates_match_parameter_space_solve(dense_setup, epsilon):
    prior, op, truth, tf = dense_setup
    table = _table(dense_setup, epsilon, range(6), master_seed=3)
    amat = op.matrix
    hess = amat.T @ amat / epsilon**2 + np.diag(1.0 / prior.variances)
    want_var = tf.psi.coeffs @ np.linalg.solve(hess, tf.psi.coeffs)
    signal = apply(op, truth).coeffs
    for i, mean in zip(table.replicate_index.tolist(), table.functional_mean.tolist()):
        noise = posterior.noise_draw(op.basis, derive_seed(3, 2 * i))
        data = coeff_vector(op.basis, signal + epsilon * noise.coeffs)
        want_mean = float(np.dot(tikhonov_solve(prior, op, data, epsilon).coeffs, tf.psi.coeffs))
        assert mean == pytest.approx(want_mean, rel=1e-10, abs=1e-14)
    assert table.sets.posterior_functional_variance == pytest.approx(want_var, rel=1e-10)


@pytest.mark.parametrize("n_levels", [1, 3, 7])
def test_one_svd_per_run(dense_setup, monkeypatch, n_levels):
    prior, op, truth, tf = dense_setup
    counts = {}
    original_svd = np.linalg.svd

    def svd(a, *args, compute_uv=True, **kwargs):
        name = "svd" if compute_uv else "svd_values"
        counts[name] = counts.get(name, 0) + 1
        return original_svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    _count_calls(monkeypatch, np.linalg, "cholesky", counts)
    _count_calls(monkeypatch, np.linalg, "solve", counts)
    _count_calls(monkeypatch, np.linalg, "eigvalsh", counts)
    _count_calls(monkeypatch, np.linalg, "eigh", counts)
    epsilons = np.geomspace(1e-1, 1e-4, n_levels).tolist()
    for ball_beta in (None, 3.5):
        counts.clear()
        # the system, the credible sets and the engine together: every level's
        # gain, covariance and sampling root come from one decomposition
        system = posterior_system(prior, op)
        levels = [credible_sets(system, eps, tf, 0.95, ball_beta) for eps in epsilons]
        replicate_table(system, levels, truth, range(5), master_seed=1)
        if ball_beta is None:
            assert counts == {"svd": 1}
        else:
            # a ball adds the singular values of one weighted root per level,
            # not one per replicate
            assert counts == {"svd": 1, "svd_values": n_levels}


@pytest.mark.parametrize("epsilon", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_dense_factor_identities(dense_setup, epsilon):
    prior, op, _, _ = dense_setup
    system = posterior_system(prior, op)
    amat, tau = op.matrix, prior.variances
    prior_cov = np.diag(tau)
    # the data-space forms K = S A^T (A S A^T + eps^2 I)^{-1} and Sigma = S - K A S,
    # kept here as the oracle
    data_cov = amat @ prior_cov @ amat.T + epsilon**2 * np.eye(len(tau))
    want_gain = np.linalg.solve(data_cov, amat @ prior_cov).T
    # the system's gain is W diag(g) U^T and its covariance W diag(h^2) W^T
    gain = system.w @ (system.gains(epsilon)[:, None] * system.ut)
    gap = np.linalg.norm(gain - want_gain) / np.linalg.norm(want_gain)
    assert gap <= 1e-10
    root = system.w * system.spreads(epsilon)
    covariance = root @ root.T
    np.testing.assert_allclose(
        covariance, prior_cov - want_gain @ amat @ prior_cov, rtol=0, atol=1e-14 * tau.sum()
    )
    # the data shrink the prior: S - Sigma is positive semidefinite
    assert np.linalg.eigvalsh(prior_cov - covariance)[0] >= -1e-12 * tau.sum()


@pytest.mark.parametrize(
    "lines",
    ["experiment=rates", "experiment=coverage\nfunctional.band=8\nball_beta=3.5"],
    ids=["rates", "coverage-ball"],
)
def test_one_posterior_system_per_run(tmp_path, monkeypatch, lines):
    config = parse_config(
        f"""
{lines}
operator.kind=bvp
operator.coefficient=sine
n_modes=32
n_replicates=4
epsilons=1e-1,1e-2,1e-3
output_path={tmp_path / "out.csv"}
"""
    )
    counts = {}
    _count_calls(monkeypatch, posterior, "posterior_system", counts)
    assert cli.run_command(config) == 0
    assert counts == {"posterior_system": 1}


@pytest.mark.parametrize("setup", ["diag_setup", "dense_setup"])
def test_ball_flag_is_error_within_radius(request, setup):
    # the ball flag and replicate_errors at exponent -beta share one distance
    prior, op, truth, tf = request.getfixturevalue(setup)
    system = posterior_system(prior, op)
    epsilons, beta, indices = (1e-2, 1e-3, 1e-4), 3.5, range(3, REPLICATE_BLOCK + 9)
    levels = [credible_sets(system, eps, tf, 0.95, beta) for eps in epsilons]
    tables = replicate_table(system, levels, truth, indices, master_seed=13)
    errors = replicate_errors(system, epsilons, truth, indices, -beta, master_seed=13)
    assert errors.shape == (len(epsilons), len(indices))
    for table, row in zip(tables, errors):
        assert table.ball_covered.tobytes() == (row <= table.sets.ball_radius).tobytes()
        # neither all in nor all out, so the comparison tells the two apart
        assert 0 < np.count_nonzero(table.ball_covered) < len(indices)


def test_index_split_bitwise_with_ball(dense_setup):
    kwargs = dict(ball_beta=3.5, master_seed=7)
    full = _table(dense_setup, 1e-3, range(10), **kwargs)
    first = _table(dense_setup, 1e-3, range(5), **kwargs)
    rest = _table(dense_setup, 1e-3, range(5, 10), **kwargs)
    assert _rows(first) + _rows(rest) == _rows(full)
    assert _per_call(first) == _per_call(rest) == _per_call(full)
    assert isinstance(full.sets.ball_radius, float)
    assert full.ball_covered.shape == (10,)


def _check_contiguous_split(setup, data, max_n, ball_beta, max_cuts=None):
    n = data.draw(st.integers(1, max_n), label="n")
    cuts = (
        data.draw(st.sets(st.integers(1, n - 1), max_size=max_cuts), label="cuts")
        if n > 1
        else set()
    )
    bounds = [0, *sorted(cuts), n]
    kwargs = dict(
        ball_beta=ball_beta, master_seed=data.draw(st.integers(0, 2**32 - 1), label="seed")
    )
    full = _table(setup, 1e-3, range(n), **kwargs)
    parts = [_table(setup, 1e-3, range(lo, hi), **kwargs) for lo, hi in zip(bounds, bounds[1:])]
    assert [row for part in parts for row in _rows(part)] == _rows(full)
    assert all(_per_call(part) == _per_call(full) for part in parts)
    # the weak-norm errors of the same replicates, at two noise levels
    prior, op, truth, _ = setup
    system = posterior_system(prior, op)
    errors = [
        replicate_errors(system, (1e-2, 1e-3), truth, range(lo, hi), -2.0, kwargs["master_seed"])
        for lo, hi in zip(bounds, bounds[1:])
    ]
    whole = replicate_errors(system, (1e-2, 1e-3), truth, range(n), -2.0, kwargs["master_seed"])
    assert np.concatenate(errors, axis=1).tobytes() == whole.tobytes()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_contiguous_split_is_bitwise(dense_setup, data):
    _check_contiguous_split(dense_setup, data, max_n=8, ball_beta=3.5)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_contiguous_split_is_bitwise_diagonal(diag_setup, data):
    # large enough for splits longer than one chunk of the CLI
    _check_contiguous_split(
        diag_setup, data, max_n=2 * REPLICATE_BLOCK + 8, ball_beta=None, max_cuts=6
    )


def test_numpy_indices_match_range(dense_setup):
    n = 6
    want = _table(dense_setup, 1e-3, range(n), ball_beta=3.5, master_seed=7)
    got = _table(dense_setup, 1e-3, np.arange(n), ball_beta=3.5, master_seed=np.int64(7))
    for name in ROW_COLUMNS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert _per_call(got) == _per_call(want)


# 1e300 squares to inf and 1e-200 to 0
@pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf"), 1e300, 1e-200])
def test_factor_rejects_bad_epsilon(dense_setup, epsilon):
    prior, op, truth, tf = dense_setup
    system = posterior_system(prior, op)
    with pytest.raises(ConfigurationError, match="epsilon"):
        credible_sets(system, epsilon, tf)
    with pytest.raises(ConfigurationError, match="epsilon"):
        replicate_errors(system, [epsilon], truth, range(1), -2.0)


def _raise_linalg(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def test_factor_svd_failure_is_numerical_error(dense_setup, monkeypatch):
    prior, op, _, _ = dense_setup
    monkeypatch.setattr(np.linalg, "svd", _raise_linalg)
    with pytest.raises(NumericalError, match=r"posterior system .*\(svd\) failed"):
        posterior_system(prior, op)


def test_operator_svd_failure_is_numerical_error(monkeypatch):
    # fisher_solve decomposes a dense map without a companion on each call
    basis = build_basis(BasisKind.DIRICHLET_SINE, 32, 8)
    coeff = EllipticCoefficient(lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x), floor=0.25)
    op = ForwardOperator(basis, elliptic_operator(coeff, basis)[1].array)
    monkeypatch.setattr(np.linalg, "svd", _raise_linalg)
    with pytest.raises(NumericalError, match=r"forward operator .*\(svd\) failed"):
        fisher_solve(op, unit_vector(basis, 0))


def test_embedding_constant_svd_failure_is_numerical_error(monkeypatch):
    # the dense map's 2-norm is its largest singular value
    basis = build_basis(BasisKind.DIRICHLET_SINE, 32, 8)
    coeff = EllipticCoefficient(lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x), floor=0.25)
    op = elliptic_operator(coeff, basis)[1]
    monkeypatch.setattr(np.linalg, "svd", _raise_linalg)
    with pytest.raises(NumericalError, match=r"^embedding constant .*\(svd\) failed"):
        embedding_constant(op, -2.0)


# the build takes the dense map's embedding constant before the representer
# (coverage) and before the posterior system (both), so both fail there first,
# naming the key the map is built from
@pytest.mark.parametrize(
    "lines, stage",
    [
        (
            "experiment=coverage\nfunctional.band=8\nball_beta=3.5\nepsilons=1e-3",
            "embedding constant",
        ),
        ("experiment=rates\nepsilons=1e-1,1e-2,1e-3", "embedding constant"),
    ],
    ids=["coverage", "rates"],
)
def test_svd_failure_exits_two_without_traceback(tmp_path, monkeypatch, capsys, lines, stage):
    path = tmp_path / "dense.ini"
    path.write_text(
        f"""
{lines}
operator.kind=bvp
operator.coefficient=sine
n_modes=32
n_replicates=2
output_path={tmp_path / "out.csv"}
"""
    )
    monkeypatch.setattr(np.linalg, "svd", _raise_linalg)
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[2]: key 'operator.coefficient_base': {stage} ")
    assert "(svd) failed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("epsilons", "1e-2,nan"),
        ("epsilons", "inf"),
        ("ball_beta", "nan"),
        ("prior.r", "nan"),
        ("prior.amplitude", "inf"),
        ("truth.scale", "nan"),
        ("level", "nan"),
        ("operator.time", "nan"),
        ("operator.coefficient_base", "inf"),
        ("operator.coefficient_amplitude", "nan"),
        # finite, but the constant coefficient's multipliers overflow
        ("operator.coefficient_base", "1e306"),
    ],
)
def test_non_finite_value_exits_one_naming_key(tmp_path, capsys, key, value):
    path = tmp_path / "bad.ini"
    out = tmp_path / "out.csv"
    path.write_text(f"experiment=coverage\nn_modes=16\n{key}={value}\noutput_path={out}\n")
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[1]:") and f"'{key}'" in err and "finite" in err
    assert err.count("\n") == 1
    assert not out.exists()
