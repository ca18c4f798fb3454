"""The per-noise-level posterior factor and the columnar replicate engine:
agreement with independent solves and with a per-replicate reference loop,
one factorisation per epsilon, chunk invariance, and error mapping."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvmlab import cli, posterior
from bvmlab.bvm import REPLICATE_BLOCK, replicate_table, representer
from bvmlab.config import parse_config
from bvmlab.errors import ConfigurationError, NumericalError
from bvmlab.operators import EllipticCoefficient, apply, elliptic_operator, fisher_solve
from bvmlab.posterior import (
    Observation,
    posterior_factor,
    tikhonov_solve,
)
from bvmlab.priors import matern_prior
from bvmlab.seeds import derive_seed
from bvmlab.spectral import (
    BasisKind,
    analyze,
    build_basis,
    coeff_vector,
    dual_norm,
    inner,
    make_bump,
    sobolev_draw,
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


# the table's columns with one entry per row, and those with one entry per functional
ROW_COLUMNS = (
    "replicate_index",
    "functional_mean",
    "scaled_error",
    "hat_psi",
    "interval_covered",
    "ball_covered",
)
FUNCTIONAL_COLUMNS = ("interval_radius", "posterior_functional_variance", "limiting_variance")


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
    values = [table.epsilon, table.level]
    values += [getattr(table, name).tolist() for name in FUNCTIONAL_COLUMNS]
    return repr(values + [table.ball_radius])


def _reference_replicates(
    prior, op, f_dagger, functionals, epsilon, indices, level, ball_beta, master_seed
):
    """One replicate at a time through the single-vector API: the oracle for the engine.

    Returns the rows in the form of ``_rows`` and the per-call values in the
    form of ``_per_call``.
    """
    q = posterior.two_sided_quantile(level)
    factor = posterior_factor(prior, op, epsilon)
    truth_values = [inner(f_dagger, tf.psi) for tf in functionals]
    images = [apply(op, tf.psi_tilde) for tf in functionals]
    variances = [factor.functional_variance(tf.psi) for tf in functionals]
    radii = [q * math.sqrt(var) for var in variances]
    ball_radius = None
    if ball_beta is not None:
        ball_radius = posterior.exact_ball_radius(factor, ball_beta, level)
    signal = apply(op, f_dagger)
    rows = []
    for i in indices:
        noise = posterior.noise_draw(op.basis, derive_seed(master_seed, 2 * i))
        mean = factor.update(coeff_vector(op.basis, signal.coeffs + epsilon * noise.coeffs))
        ball_covered = None
        if ball_beta is not None:
            distance = dual_norm(
                coeff_vector(op.basis, f_dagger.coeffs - mean.coeffs), ball_beta
            )
            ball_covered = bool(distance <= ball_radius)
        means = [float(np.dot(mean.coeffs, tf.psi.coeffs)) for tf in functionals]
        rows.append(
            (
                i,
                means,
                [(m - t) / epsilon for m, t in zip(means, truth_values)],
                [t - epsilon * inner(image, noise) for t, image in zip(truth_values, images)],
                [bool(abs(t - m) <= r) for t, m, r in zip(truth_values, means, radii)],
                ball_covered,
            )
        )
    limiting = [tf.limiting_variance for tf in functionals]
    per_call = [epsilon, level, radii, variances, limiting, ball_radius]
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
    second = representer(op, unit_vector(op.basis, 1))
    n = REPLICATE_BLOCK + 3  # crosses a row-block boundary
    kwargs = dict(level=0.9, ball_beta=ball_beta, master_seed=11)
    table = replicate_table(
        prior, op, truth, [tf, second], 1e-3, n, replicate_indices=indices, **kwargs
    )
    want_rows, want_per_call = _reference_replicates(
        prior, op, truth, [tf, second], 1e-3, range(n) if indices is None else indices, **kwargs
    )
    assert _rows(table) == want_rows
    assert _per_call(table) == want_per_call
    assert table.functional_mean.shape == (len(want_rows), 2)
    assert (table.ball_radius is None) == (ball_beta is None)


@pytest.mark.parametrize("setup", ["diag_setup", "dense_setup"])
def test_update_block_matches_update_bitwise(request, setup):
    prior, op, truth, _ = request.getfixturevalue(setup)
    factor = posterior_factor(prior, op, 1e-3)
    seeds = [derive_seed(4, i) for i in range(40)]
    noise = posterior.noise_block(op.basis, seeds)
    for row, seed in zip(noise, seeds):
        assert row.tobytes() == posterior.noise_draw(op.basis, seed).coeffs.tobytes()
    data = apply(op, truth).coeffs + 1e-3 * noise
    means = factor.update_block(data)
    assert means.shape == data.shape
    for mean, row in zip(means, data):
        single = factor.update(coeff_vector(op.basis, row)).coeffs
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
    chunk = cli._rates_rows(context, 1e-3, indices)
    factor = posterior_factor(context.prior, context.forward, 1e-3)
    want = []
    for i in indices:
        obs = posterior.observe(context.forward, context.truth, 1e-3, derive_seed(5, i))
        mean = factor.update(obs.data)
        want.append(dual_norm(coeff_vector(context.basis, mean.coeffs - context.truth.coeffs), 2.0))
    assert [repr(e) for e in chunk.columns["dual_error"].tolist()] == [repr(e) for e in want]
    assert chunk.rows == [
        (format(1e-3, ".17g"), str(i), format(err, ".17g")) for i, err in zip(indices, want)
    ]


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("epsilon", [1e-2, 1e-4])
def test_replicates_match_parameter_space_solve(dense_setup, epsilon):
    prior, op, truth, tf = dense_setup
    table = replicate_table(prior, op, truth, [tf], epsilon, 6, master_seed=3)
    amat = op.matrix
    hess = amat.T @ amat / epsilon**2 + np.diag(1.0 / prior.variances)
    want_var = tf.psi.coeffs @ np.linalg.solve(hess, tf.psi.coeffs)
    signal = apply(op, truth).coeffs
    for i, mean in zip(table.replicate_index.tolist(), table.functional_mean[:, 0].tolist()):
        noise = posterior.noise_draw(op.basis, derive_seed(3, 2 * i))
        data = coeff_vector(op.basis, signal + epsilon * noise.coeffs)
        obs = Observation(data=data, epsilon=epsilon)
        want_mean = float(np.dot(tikhonov_solve(prior, op, obs).coeffs, tf.psi.coeffs))
        assert mean == pytest.approx(want_mean, rel=1e-10, abs=1e-14)
    assert table.posterior_functional_variance[0] == pytest.approx(want_var, rel=1e-10)


def test_one_factorisation_per_epsilon(dense_setup, monkeypatch):
    prior, op, truth, tf = dense_setup
    counts = {}
    _count_calls(monkeypatch, np.linalg, "svd", counts)
    _count_calls(monkeypatch, np.linalg, "cholesky", counts)
    _count_calls(monkeypatch, np.linalg, "solve", counts)
    _count_calls(monkeypatch, np.linalg, "eigvalsh", counts)
    _count_calls(monkeypatch, np.linalg, "eigh", counts)
    replicate_table(prior, op, truth, [tf], 1e-3, 5, master_seed=1)
    # gain, covariance and sampling root all come from one decomposition
    assert counts == {"svd": 1}
    counts.clear()
    replicate_table(prior, op, truth, [tf], 1e-3, 5, ball_beta=3.5, master_seed=1)
    # the ball radius adds one for the weighted spectrum, not one per replicate
    assert counts == {"svd": 2}


@pytest.mark.parametrize("epsilon", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_dense_factor_identities(dense_setup, epsilon):
    prior, op, _, _ = dense_setup
    factor = posterior_factor(prior, op, epsilon)
    amat, tau = op.matrix, prior.variances
    prior_cov = np.diag(tau)
    # the data-space forms K = S A^T (A S A^T + eps^2 I)^{-1} and Sigma = S - K A S,
    # kept here as the oracle
    data_cov = amat @ prior_cov @ amat.T + epsilon**2 * np.eye(len(tau))
    want_gain = np.linalg.solve(data_cov, amat @ prior_cov).T
    gap = np.linalg.norm(factor.gain - want_gain) / np.linalg.norm(want_gain)
    assert gap <= 1e-10
    covariance = factor.root @ factor.root.T
    np.testing.assert_allclose(
        covariance, prior_cov - want_gain @ amat @ prior_cov, rtol=0, atol=1e-14 * tau.sum()
    )
    # the data shrink the prior: S - Sigma is positive semidefinite
    assert np.linalg.eigvalsh(prior_cov - covariance)[0] >= -1e-12 * tau.sum()


def test_rates_factor_once_per_epsilon(tmp_path, monkeypatch):
    config = parse_config(
        f"""
experiment=rates
operator.kind=bvp
operator.coefficient=sine
n_modes=32
n_replicates=4
epsilons=1e-1,1e-2,1e-3
output_path={tmp_path / "rates.csv"}
"""
    )
    seen = []
    original = posterior.posterior_factor

    def counted(prior, op, epsilon):
        seen.append(epsilon)
        return original(prior, op, epsilon)

    monkeypatch.setattr(posterior, "posterior_factor", counted)
    assert cli.run_command(config) == 0
    assert seen == [1e-1, 1e-2, 1e-3]


def test_index_split_bitwise_with_ball(dense_setup):
    prior, op, truth, tf = dense_setup
    kwargs = dict(ball_beta=3.5, master_seed=7)
    full = replicate_table(prior, op, truth, [tf], 1e-3, 10, **kwargs)
    first = replicate_table(
        prior, op, truth, [tf], 1e-3, 10, replicate_indices=range(5), **kwargs
    )
    rest = replicate_table(
        prior, op, truth, [tf], 1e-3, 10, replicate_indices=range(5, 10), **kwargs
    )
    assert _rows(first) + _rows(rest) == _rows(full)
    assert _per_call(first) == _per_call(rest) == _per_call(full)
    assert isinstance(full.ball_radius, float)
    assert full.ball_covered.shape == (10,)


def _check_contiguous_split(setup, data, max_n, ball_beta, max_cuts=None):
    prior, op, truth, tf = setup
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
    full = replicate_table(prior, op, truth, [tf], 1e-3, n, **kwargs)
    parts = [
        replicate_table(
            prior, op, truth, [tf], 1e-3, n, replicate_indices=range(lo, hi), **kwargs
        )
        for lo, hi in zip(bounds, bounds[1:])
    ]
    assert [row for part in parts for row in _rows(part)] == _rows(full)
    assert all(_per_call(part) == _per_call(full) for part in parts)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_contiguous_split_is_bitwise(dense_setup, data):
    _check_contiguous_split(dense_setup, data, max_n=8, ball_beta=3.5)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_contiguous_split_is_bitwise_diagonal(diag_setup, data):
    # large enough for splits that cut across row blocks
    _check_contiguous_split(
        diag_setup, data, max_n=2 * REPLICATE_BLOCK + 8, ball_beta=None, max_cuts=6
    )


def test_numpy_indices_match_range(dense_setup):
    prior, op, truth, tf = dense_setup
    n = 6
    want = replicate_table(
        prior, op, truth, [tf], 1e-3, n, ball_beta=3.5, master_seed=7, replicate_indices=range(n)
    )
    got = replicate_table(
        prior, op, truth, [tf], 1e-3, n,
        ball_beta=3.5, master_seed=np.int64(7), replicate_indices=np.arange(n),
    )
    for name in ROW_COLUMNS + FUNCTIONAL_COLUMNS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert _per_call(got) == _per_call(want)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf")])
def test_factor_rejects_bad_epsilon(dense_setup, epsilon):
    prior, op, _, _ = dense_setup
    with pytest.raises(ConfigurationError, match="epsilon"):
        posterior_factor(prior, op, epsilon)


def _raise_linalg(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def test_factor_svd_failure_is_numerical_error(dense_setup, monkeypatch):
    prior, op, _, _ = dense_setup
    monkeypatch.setattr(np.linalg, "svd", _raise_linalg)
    with pytest.raises(NumericalError, match=r"posterior factor .*\(svd\) failed"):
        posterior_factor(prior, op, 1e-3)


def test_operator_svd_failure_is_numerical_error(monkeypatch):
    # a fresh operator, so that no decomposition is cached yet
    basis = build_basis(BasisKind.DIRICHLET_SINE, 32, 8)
    coeff = EllipticCoefficient(lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x), floor=0.25)
    op = elliptic_operator(coeff, basis)[1]
    monkeypatch.setattr(np.linalg, "svd", _raise_linalg)
    with pytest.raises(NumericalError, match=r"forward operator .*\(svd\) failed"):
        fisher_solve(op, unit_vector(basis, 0))


# coverage decomposes the operator for the representer before any posterior
# factor; rates builds no functional, so its first decomposition is the factor's
@pytest.mark.parametrize(
    "lines, stage",
    [
        (
            "experiment=coverage\nfunctional.band=8\nball_beta=3.5\nepsilons=1e-3",
            "forward operator",
        ),
        ("experiment=rates\nepsilons=1e-1,1e-2,1e-3", "posterior factor"),
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
    assert err.startswith(f"error[2]: {stage} ") and "(svd) failed" in err
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
    ],
)
def test_non_finite_value_exits_one_naming_key(tmp_path, capsys, key, value):
    path = tmp_path / "bad.ini"
    out = tmp_path / "out.csv"
    path.write_text(f"experiment=coverage\nn_modes=16\n{key}={value}\noutput_path={out}\n")
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[1]:") and f"'{key}'" in err and "finite" in err
    assert not out.exists()
