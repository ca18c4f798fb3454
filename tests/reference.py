"""Test helpers and oracles that no experiment runs."""
import numpy as np

from bvmlab.spectral import coeff_vector


_MASK64 = (1 << 64) - 1


def mix_seed(master_seed, stream_id):
    """Splitmix64 finalizer of master_seed + stream_id * 0x9E3779B97F4A7C15 in
    Python integers, modulo 2**64: the seed derivation ``seeds`` vectorises."""
    z = (master_seed + stream_id * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def random_vec(basis, seed, max_mode=None):
    """Standard normal coefficients, zeroed above frequency ``max_mode``."""
    c = np.random.default_rng(seed).standard_normal(basis.n_modes)
    if max_mode is not None:
        c[np.abs(basis.frequencies) > max_mode] = 0.0
    return coeff_vector(basis, c)


def synthesize(f, points):
    """Evaluate sum_j c_j phi_j(x) at each point."""
    return f.coeffs @ f.basis.mode_values(np.asarray(points, dtype=float))


def centred_draws(factor, z):
    """Map standard normal vectors (the last axis of ``z``) to centred posterior draws R z."""
    if factor.is_diagonal:
        return z * factor.root
    return z @ factor.root.T


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
