"""Test helpers and oracles that no experiment runs."""
import math

import numpy as np

from bvmlab.errors import NumericalError
from bvmlab.spectral import BasisKind, coeff_vector


def random_vec(basis, seed, max_mode=None):
    """Standard normal coefficients, zeroed above frequency ``max_mode``."""
    c = np.random.default_rng(seed).standard_normal(basis.n_modes)
    if max_mode is not None:
        c[np.abs(basis.frequencies) > max_mode] = 0.0
    return coeff_vector(basis, c)


def mode_values(basis, points):
    """Basis functions evaluated at arbitrary points, shape (n_modes, len(points))."""
    x = np.asarray(points, dtype=float)
    if basis.kind is BasisKind.DIRICHLET_SINE:
        j = np.arange(1, basis.n_modes + 1)
        return math.sqrt(2.0) * np.sin(np.pi * np.outer(j, x))
    out = np.empty((basis.n_modes, x.size))
    out[0] = 1.0 / math.sqrt(2.0 * math.pi)
    for row, k in enumerate(basis.frequencies[1:], start=1):
        if k > 0:
            out[row] = np.cos(k * x) / math.sqrt(math.pi)
        else:
            out[row] = np.sin(-k * x) / math.sqrt(math.pi)
    return out


def quad_weights(basis):
    """Weights of the grid's quadrature rule: the rectangle rule on the torus
    [0, 2 pi), the midpoint rule on (0, 1)."""
    length = 2.0 * math.pi if basis.kind is BasisKind.FOURIER_TORUS else 1.0
    return np.full(basis.grid.size, length / basis.grid.size)


def direct_analyze(values, basis):
    """Quadrature inner products of grid samples with every mode, as one
    direct (n_modes x N) matrix-vector product."""
    return mode_values(basis, basis.grid) @ (quad_weights(basis) * np.asarray(values, dtype=float))


def galerkin_matrix(avals, basis):
    """Galerkin matrix sum_i w_i a(x_i) phi_j'(x_i) phi_k'(x_i) on the
    interval grid, from a table of the analytic mode derivatives."""
    j = np.arange(1, basis.n_modes + 1)
    deriv = math.sqrt(2.0) * np.pi * j[:, None] * np.cos(np.pi * np.outer(j, basis.grid))
    weighted = deriv * np.sqrt(quad_weights(basis) * avals)
    return weighted @ weighted.T


def synthesize(f, points):
    """Evaluate sum_j c_j phi_j(x) at each point."""
    return f.coeffs @ mode_values(f.basis, points)


def per_level_factor(prior, op, epsilon):
    """Gain K and sampling root R of the conjugate posterior at one noise level,
    from a fresh decomposition of that level: the mean of data M is K M and
    the covariance is R R^T.

    Diagonal operators give per-mode vectors.  Dense ones take the singular
    system B = A S^{1/2} / eps = U diag(s) V^T; with W = S^{1/2} V the root is
    W diag((1 + s^2)^{-1/2}) and the gain is W diag(s / (1 + s^2)) U^T / eps.
    """
    tau = prior.variances
    if op.is_diagonal:
        a, eps2 = op.multipliers, epsilon**2
        denom = a**2 * tau + eps2
        return tau * a / denom, np.sqrt(eps2 * tau / denom)
    prior_sd = np.sqrt(tau)
    u, s, vt = np.linalg.svd(op.matrix * (prior_sd / epsilon)[None, :])
    w = prior_sd[:, None] * vt.T
    shrink = 1.0 + s**2
    return (w * (s / shrink)) @ u.T / epsilon, w / np.sqrt(shrink)


def centred_draws(system, epsilon, z):
    """Map standard normal vectors (the last axis of ``z``) to centred posterior
    draws W (h * z) at noise level epsilon."""
    return system.synthesise(system.spreads(epsilon) * z)


def svd_truncated_functional(op, data, psi, level):
    """Spectral-cutoff least squares on a diagonal operator: invert the ``level``
    best-observed modes only (the efficiency-floor criterion's competitor)."""
    order = np.argsort(-np.abs(op.multipliers), kind="stable")
    kept = order[:level]
    estimate = np.zeros(op.basis.n_modes)
    estimate[kept] = data.coeffs[kept] / op.multipliers[kept]
    return float(np.dot(psi.coeffs, estimate))


def oracle_truncation_level(op, psi, f_dagger, epsilon):
    """Truncation level minimising the exact mean squared error of the functional
    estimate: squared bias of the discarded modes (from the truth) plus noise
    variance of the inverted ones."""
    order = np.argsort(-np.abs(op.multipliers), kind="stable")
    psi_o = psi.coeffs[order]
    f_o = f_dagger.coeffs[order]
    a_o = op.multipliers[order]
    with np.errstate(divide="ignore"):
        var_terms = np.where(a_o != 0.0, psi_o**2 / a_o**2, np.inf)
    var_cum = np.concatenate([[0.0], np.cumsum(var_terms)])
    bias_tail = np.concatenate([np.cumsum((psi_o * f_o)[::-1])[::-1], [0.0]])
    mse = bias_tail**2 + epsilon**2 * var_cum
    return int(np.argmin(mse))


# draws per chunk of the field sampler; the draws are read from one stream
# row by row, so the chunk size bounds memory and never changes the counts
MC_CHUNK = 256


def field_ladder_hits(prior, norm_exponent, deltas, mc_samples, seed):
    """Small-ball hit counts by simulating the prior field: ``mc_samples`` draws
    of the modes, each draw's squared norm of smoothness ``norm_exponent``
    scored against every delta (the Monte Carlo oracle of the exact ladder)."""
    weights = (1.0 + prior.basis.eigenvalues) ** norm_exponent * prior.variances
    rng = np.random.default_rng(seed)
    hits = [0] * len(deltas)
    thresholds = [d**2 for d in deltas]
    buffer = np.empty((min(MC_CHUNK, mc_samples), prior.basis.n_modes))
    remaining = mc_samples
    while remaining > 0:
        block = min(MC_CHUNK, remaining)
        g = rng.standard_normal(out=buffer[:block])
        np.square(g, out=g)
        # one dot product per row: a matrix-vector product would let a row's
        # norm depend on the chunk it falls in
        norms_sq = np.vecdot(g, weights)
        for k, thresh in enumerate(thresholds):
            hits[k] += int(np.count_nonzero(norms_sq <= thresh))
        remaining -= block
    return hits


def csv_text_per_cell(header, columns, where=""):
    """The table formatter cell by cell (the oracle of ``cli._csv_text``): every
    column becomes a list of str cells, a single value repeated on every row,
    and the rows are joined cell by cell."""
    def cells(values):
        if values.dtype == bool:
            return ["true" if flag else "false" for flag in values.tolist()]
        return [format(x, ".17g") for x in values.tolist()]

    n_rows = next(len(c) for c in columns if isinstance(c, (list, np.ndarray)))
    table = []
    for name, column in zip(header, columns, strict=True):
        if isinstance(column, list):
            table.append(column)
        elif column is None or isinstance(column, str):
            table.append([column or ""] * n_rows)
        else:
            values = np.atleast_1d(column)
            if not np.all(np.isfinite(values)):
                raise NumericalError(f"column '{name}' is not finite{where}")
            table.append(cells(values) if np.ndim(column) else cells(values) * n_rows)
    return "".join([",".join(row) + "\n" for row in zip(*table, strict=True)])


def truncation_tail_expression(prior, terms=100_000):
    """``priors.truncation_tail`` with its head sum as one expression, each step
    a new array (the oracle of its in-place terms)."""
    r = prior.rkhs_exponent
    n = prior.basis.n_modes
    if prior.basis.kind is BasisKind.DIRICHLET_SINE:
        j = np.arange(n + 1, n + terms + 1, dtype=float)
        head = float(np.sum((1.0 + (np.pi * j) ** 2) ** (-r)))
        edge = n + terms
        remainder = (np.pi ** (-2 * r)) * edge ** (1 - 2 * r) / (2 * r - 1)
        return prior.amplitude * (head + remainder)
    half = (n - 1) // 2
    k = np.arange(half + 1, half + terms + 1, dtype=float)
    head = float(np.sum(2.0 * (1.0 + k**2) ** (-r)))
    edge = half + terms
    remainder = 2.0 * edge ** (1 - 2 * r) / (2 * r - 1)
    return prior.amplitude * (head + remainder)


def load_csv(path):
    """Read back an emitted file: (metadata dict, header list, rows of strings)."""
    metadata, header, rows = {}, [], []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                metadata[key] = value
            elif not header:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return metadata, header, rows
