"""Output checks for the benchmark's workloads.

Coverage rows are checked against an independent parameter-space Tikhonov
solve (A^T A / eps^2 + S^-1) x = A^T M / eps^2, factored once per noise
level.  The data M = A f + eps w is rebuilt from the same per-replicate noise
streams the program uses.  Values must agree to 1e-8 relative, so
rounding-level changes pass and real errors do not.

Needs ``bvmlab`` importable (for the inputs: basis, operator, prior, truth
and functional); ``run.py`` puts the checkout's ``src`` on the path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.stats

COVERAGE_HEADER = [
    "epsilon",
    "replicate",
    "functional_mean",
    "scaled_error",
    "hat_psi",
    "radius",
    "covered",
    "ball_radius",
    "ball_covered",
]
CONCENTRATION_HEADER = ["delta", "approx_term", "smallball_term", "phi"]
REL_TOL = 1e-8


class CheckError(Exception):
    """An output file does not match what the config asks for."""


def _close(value: float, expected: float, rel: float = REL_TOL) -> bool:
    return abs(value - expected) <= rel * max(abs(value), abs(expected), np.finfo(float).tiny)


def _read_table(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("# ")]
    lines = [line for line in lines if line]
    if not lines:
        raise CheckError("no header row")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _finite(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{what}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckError(f"{what}: {value} is not finite")
    return value


@dataclass(frozen=True)
class CoverageExpectation:
    epsilons: tuple[float, ...]
    replicates: int
    has_ball: bool
    means: np.ndarray  # (len(epsilons), replicates)
    radii: np.ndarray  # (len(epsilons),)


def coverage_expectation(config_text: str) -> CoverageExpectation:
    """Expected functional means and interval radii for every row of a coverage run."""
    from bvmlab.cli import build_context
    from bvmlab.config import parse_config
    from bvmlab.posterior import noise_draw
    from bvmlab.seeds import derive_seed

    config = parse_config(config_text)
    ctx = build_context(config)
    op = ctx.forward
    amat = np.diag(op.multipliers) if op.is_diagonal else op.matrix
    psi = ctx.functional.psi.coeffs
    inv_tau = 1.0 / ctx.prior.variances
    signal = amat @ ctx.truth.coeffs
    noise = np.array(
        [
            noise_draw(ctx.basis, derive_seed(config.master_seed, 2 * i)).coeffs
            for i in range(config.n_replicates)
        ]
    )
    q = float(scipy.stats.norm.ppf(0.5 + config.level / 2.0))
    gram = amat.T @ amat
    means, radii = [], []
    for eps in config.epsilons:
        hess = gram / eps**2 + np.diag(inv_tau)
        x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(hess), psi)
        radii.append(q * math.sqrt(float(psi @ x)))
        # <H^-1 A^T M / eps^2, psi> = <M, A H^-1 psi> / eps^2
        means.append((signal + eps * noise) @ (amat @ x) / eps**2)
    return CoverageExpectation(
        epsilons=tuple(config.epsilons),
        replicates=config.n_replicates,
        has_ball=config.ball_beta is not None,
        means=np.array(means),
        radii=np.array(radii),
    )


def check_coverage(path: str, expected: CoverageExpectation) -> None:
    header, rows = _read_table(path)
    if header != COVERAGE_HEADER:
        raise CheckError(f"header {header} != {COVERAGE_HEADER}")
    n_rows = len(expected.epsilons) * expected.replicates
    if len(rows) != n_rows:
        raise CheckError(f"{len(rows)} rows, expected {n_rows}")
    for k, row in enumerate(rows):
        where = f"row {k}"
        if len(row) != len(COVERAGE_HEADER):
            raise CheckError(f"{where}: {len(row)} cells")
        e, i = divmod(k, expected.replicates)
        cells = dict(zip(COVERAGE_HEADER, row))
        epsilon = _finite(cells["epsilon"], where)
        if epsilon != expected.epsilons[e] or cells["replicate"] != str(i):
            raise CheckError(f"{where}: expected epsilon {expected.epsilons[e]}, replicate {i}")
        mean = _finite(cells["functional_mean"], where)
        _finite(cells["scaled_error"], where)
        _finite(cells["hat_psi"], where)
        radius = _finite(cells["radius"], where)
        if not _close(mean, expected.means[e, i]):
            raise CheckError(f"{where}: functional_mean {mean!r} != {expected.means[e, i]!r}")
        if not _close(radius, expected.radii[e]):
            raise CheckError(f"{where}: radius {radius!r} != {expected.radii[e]!r}")
        if cells["covered"] not in ("true", "false"):
            raise CheckError(f"{where}: covered={cells['covered']!r}")
        if expected.has_ball:
            if _finite(cells["ball_radius"], where) <= 0.0:
                raise CheckError(f"{where}: ball radius is not positive")
            if cells["ball_covered"] not in ("true", "false"):
                raise CheckError(f"{where}: ball_covered={cells['ball_covered']!r}")
        elif cells["ball_radius"] or cells["ball_covered"]:
            raise CheckError(f"{where}: ball columns filled without ball_beta")


def check_concentration(path: str, deltas: tuple[float, ...], draws: int) -> None:
    """Both terms positive, non-increasing in delta, phi their sum, hits a whole count."""
    header, rows = _read_table(path)
    if header != CONCENTRATION_HEADER:
        raise CheckError(f"header {header} != {CONCENTRATION_HEADER}")
    if len(rows) != len(deltas):
        raise CheckError(f"{len(rows)} rows, expected {len(deltas)}")
    table = []
    for k, row in enumerate(rows):
        where = f"row {k}"
        if len(row) != len(CONCENTRATION_HEADER):
            raise CheckError(f"{where}: {len(row)} cells")
        delta, approx, smallball, phi = (_finite(cell, where) for cell in row)
        if delta != deltas[k]:
            raise CheckError(f"{where}: delta {delta} != {deltas[k]}")
        if approx <= 0.0 or smallball <= 0.0:
            raise CheckError(f"{where}: terms must be positive ({approx}, {smallball})")
        if not _close(phi, approx + smallball, 1e-12):
            raise CheckError(f"{where}: phi {phi!r} != {approx!r} + {smallball!r}")
        # the small-ball term is -log(hits / draws) for a whole hit count
        hits = draws * math.exp(-smallball)
        if abs(hits - round(hits)) > 1e-6 or not 10 <= round(hits) <= draws:
            raise CheckError(f"{where}: small-ball term implies {hits} hits of {draws}")
        table.append((delta, approx, smallball))
    table.sort()
    for (_, a_lo, s_lo), (_, a_hi, s_hi) in zip(table, table[1:]):
        if a_hi > a_lo or s_hi > s_lo:
            raise CheckError("a term increases with delta")
