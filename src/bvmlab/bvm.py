"""Monte Carlo harness for the asymptotic-normality experiments: representer
construction, limiting variances, replicate engine, the Kolmogorov-Smirnov
distance, coverage reports, rate regression, and the tightness series of the
limit law.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError
from .operators import DEFAULT_COND_LIMIT, ForwardOperator, apply, fisher_solve, normal_apply
from .posterior import (
    PosteriorFactor,
    exact_ball_radius,
    noise_block,
    two_sided_quantile,
)
from .priors import _wilson_interval
from .seeds import derive_seeds
from .spectral import CoeffVector, coeff_vector, inner

__all__ = [
    "TestFunctional",
    "ReplicateTable",
    "CoverageKind",
    "CoverageReport",
    "RateFit",
    "TightnessVerdict",
    "TightnessResult",
    "representer",
    "heat_psi_from_representer",
    "replicate_blocks",
    "replicate_table",
    "ks_distance",
    "coverage_report",
    "rate_fit",
    "tightness_series",
]

# largest decay exponent the heat representer map evaluates before the
# semigroup weight is numerically void
HEAT_DECAY_CEILING = 300.0

# the replicate engine works through its replicates in blocks of this many
# rows, so its memory is O(REPLICATE_BLOCK * n_modes) for any replicate count
REPLICATE_BLOCK = 256


@dataclass(frozen=True)
class TestFunctional:
    """A test functional psi together with its representer and limiting variance.

    The representer solves psi = -A*A psi_tilde; the limiting variance is the
    squared data-space norm of A psi_tilde.
    """

    psi: CoeffVector
    psi_tilde: CoeffVector
    limiting_variance: float


def _roundtrip_check(op: ForwardOperator, psi: CoeffVector, psi_tilde: CoeffVector) -> None:
    reproduced = normal_apply(op, psi_tilde)
    gap = np.linalg.norm(-reproduced.coeffs - psi.coeffs)
    scale = np.linalg.norm(psi.coeffs)
    if gap > 1e-8 * max(scale, np.finfo(float).tiny):
        raise NumericalError(
            f"representer roundtrip residual {gap / scale:.3g} exceeds 1e-8"
        )


def representer(
    op: ForwardOperator, psi: CoeffVector, cond_limit: float = DEFAULT_COND_LIMIT
) -> TestFunctional:
    """Solve psi = -A*A psi_tilde and record the limiting variance ||A psi_tilde||^2.

    An operator with a companion C (the elliptic pair, each the inverse of
    the other) has the closed form psi_tilde = -C(C psi) as well, which must
    agree with the solver path to relative 1e-8.  A zero psi is refused.
    """
    if not np.any(psi.coeffs):
        raise ConfigurationError("the functional psi is zero")
    tilde = coeff_vector(op.basis, -fisher_solve(op, psi, cond_limit).coeffs)
    if op.companion is not None:
        alt = coeff_vector(op.basis, -apply(op.companion, apply(op.companion, psi)).coeffs)
        gap = np.linalg.norm(alt.coeffs - tilde.coeffs)
        scale = max(np.linalg.norm(tilde.coeffs), np.finfo(float).tiny)
        if gap > 1e-8 * scale:
            raise NumericalError(
                f"solver and closed-form representers disagree by {gap / scale:.3g}"
            )
    _roundtrip_check(op, psi, tilde)
    image = apply(op, tilde)
    return TestFunctional(
        psi=psi,
        psi_tilde=tilde,
        limiting_variance=inner(image, image),
    )


def heat_psi_from_representer(psi_tilde: CoeffVector, time_horizon: float) -> TestFunctional:
    """Admissible heat-equation functional psi_j = -exp(-2 lambda_j T) psi_tilde_j.

    The representer must be band-limited to modes with 2 lambda_j T <= 300 so
    every semigroup weight stays representable in double precision.
    """
    if time_horizon < 0:
        raise ConfigurationError("the observation time must be nonnegative")
    decay = 2.0 * psi_tilde.basis.eigenvalues * time_horizon
    occupied = psi_tilde.coeffs != 0.0
    if np.any(decay[occupied] > HEAT_DECAY_CEILING):
        raise ConfigurationError(
            "representer occupies modes beyond the double-precision band limit "
            f"(2 lambda T <= {HEAT_DECAY_CEILING:g})"
        )
    weights = np.exp(-decay)
    psi = coeff_vector(psi_tilde.basis, -weights * psi_tilde.coeffs)
    return TestFunctional(
        psi=psi,
        psi_tilde=psi_tilde,
        limiting_variance=float(np.sum(weights * psi_tilde.coeffs**2)),
    )


@dataclass(frozen=True, eq=False)
class ReplicateTable:
    """Columnar replicate records of one functional at one noise level.

    Row r belongs to replicate ``replicate_index[r]``; the ball fields are None
    unless a ball was requested.  The interval and ball radii depend only on
    the posterior covariance, so each is one number per table.  The noise
    level, the credible level and the limiting variance are recorded too, so
    ``coverage_report`` needs nothing but the table.
    """

    epsilon: float
    level: float
    replicate_index: np.ndarray  # (rows,)
    functional_mean: np.ndarray  # (rows,)
    scaled_error: np.ndarray  # (rows,)
    hat_psi: np.ndarray  # (rows,)
    interval_covered: np.ndarray  # (rows,), bool
    interval_radius: float
    posterior_functional_variance: float
    limiting_variance: float
    ball_radius: Optional[float] = None
    ball_covered: Optional[np.ndarray] = None  # (rows,), bool


def replicate_blocks(
    factor: PosteriorFactor,
    f_dagger: CoeffVector,
    indices: Sequence[int],
    master_seed: int,
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Measurements ``A f_dagger + epsilon W`` from the fixed truth, in blocks of
    up to ``REPLICATE_BLOCK`` replicates, with the factor's operator and epsilon.

    Replicate i draws W from the seed ``derive_seed(master_seed, 2i)``, so a
    parallel driver may pass any sub-range of the indices; the master seed
    must lie in 0..2**64 - 1.  Each block yields
    ``(rows, noise, means)``: the slice of ``indices`` it covers, its noise rows
    and their posterior means.  The update is row-local, so every row is
    bitwise the same for any index split.
    """
    op, epsilon = factor.operator, factor.epsilon
    if not op.basis.compatible(f_dagger.basis):
        raise ShapeError("truth lives on a different basis than the operator")
    signal = apply(op, f_dagger).coeffs
    for lo in range(0, len(indices), REPLICATE_BLOCK):
        block = np.asarray(indices[lo : lo + REPLICATE_BLOCK], dtype=np.uint64)
        noise = noise_block(op.basis, derive_seeds(master_seed, 2 * block))
        yield slice(lo, lo + len(block)), noise, factor.update_block(signal + epsilon * noise)


def replicate_table(
    factor: PosteriorFactor,
    f_dagger: CoeffVector,
    functional: TestFunctional,
    indices: Sequence[int],
    level: float = 0.95,
    ball_beta: Optional[float] = None,
    master_seed: int = 0,
) -> ReplicateTable:
    """The replicates of ``replicate_blocks`` scored for one functional, as columns;
    the functional variance and the exact ball radius are computed once per call."""
    op, epsilon = factor.operator, factor.epsilon
    q = two_sided_quantile(level)
    truth_value = inner(f_dagger, functional.psi)
    psi = functional.psi.coeffs
    image = apply(op, functional.psi_tilde).coeffs
    variance = factor.functional_variance(functional.psi)
    radius = q * math.sqrt(variance)
    n_rows = len(indices)
    means = np.empty(n_rows)
    noise_terms = np.empty(n_rows)
    ball_radius = ball_covered = None
    if ball_beta is not None:
        ball_radius = exact_ball_radius(factor, ball_beta, level)
        distances = np.empty(n_rows)
        weights = (1.0 + op.basis.eigenvalues) ** (-ball_beta)
    for rows, noise, post_means in replicate_blocks(factor, f_dagger, indices, master_seed):
        means[rows] = np.vecdot(post_means, psi)
        noise_terms[rows] = np.vecdot(noise, image)
        if ball_beta is not None:
            distances[rows] = np.sqrt(np.vecdot((f_dagger.coeffs - post_means) ** 2, weights))
    if ball_beta is not None:
        ball_covered = distances <= ball_radius
    return ReplicateTable(
        epsilon=epsilon,
        level=level,
        replicate_index=np.array(indices, dtype=np.int64),
        functional_mean=means,
        scaled_error=(means - truth_value) / epsilon,
        hat_psi=truth_value - epsilon * noise_terms,
        interval_covered=np.abs(truth_value - means) <= radius,
        interval_radius=radius,
        posterior_functional_variance=variance,
        limiting_variance=functional.limiting_variance,
        ball_radius=ball_radius,
        ball_covered=ball_covered,
    )


def _check_samples(samples: Sequence[float], variance: float) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ConfigurationError("need at least two samples")
    if not np.all(np.isfinite(x)):
        raise ConfigurationError("samples must be finite")
    if variance <= 0:
        raise ConfigurationError("variance must be positive")
    return x


def ks_distance(samples: Sequence[float], variance: float) -> float:
    """One-sample Kolmogorov-Smirnov statistic against N(0, variance)."""
    x = _check_samples(samples, variance)
    n = x.size
    z = np.sort(x) / math.sqrt(variance)
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])
    d_plus = np.arange(1.0, n + 1) / n - cdf
    d_minus = cdf - np.arange(0.0, n) / n
    return float(max(d_plus.max(), d_minus.max()))


class CoverageKind(enum.Enum):
    INTERVAL = "interval"
    BALL = "ball"


@dataclass(frozen=True)
class CoverageReport:
    """Aggregated Monte Carlo coverage evidence for one credible-set family."""

    replicates: int
    hit_rate: float
    wilson_low: float
    wilson_high: float
    mean_scaled_radius: float
    ks_to_limit: float
    target_level: float


def coverage_report(
    table: ReplicateTable, which: CoverageKind = CoverageKind.INTERVAL
) -> CoverageReport:
    """Hit rate with Wilson bounds, scaled mean radius, and KS distance to the limit
    law, for the table's interval or ball."""
    n = len(table.replicate_index)
    if n == 0:
        raise ConfigurationError("cannot report coverage of an empty table")
    if which is CoverageKind.BALL:
        if table.ball_radius is None:
            raise ConfigurationError("ball coverage requested but the table has no ball")
        covered, radius = table.ball_covered, table.ball_radius
    else:
        covered, radius = table.interval_covered, table.interval_radius
    hits = int(np.count_nonzero(covered))
    low, high = _wilson_interval(hits, n)
    return CoverageReport(
        replicates=n,
        hit_rate=hits / n,
        wilson_low=low,
        wilson_high=high,
        mean_scaled_radius=radius / table.epsilon,
        ks_to_limit=ks_distance(table.scaled_error, table.limiting_variance),
        target_level=table.level,
    )


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log error against log noise level."""

    epsilons: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float
    predicted_exponent: float


def rate_fit(
    epsilons: Sequence[float], errors: Sequence[float], predicted_exponent: float
) -> RateFit:
    eps = np.asarray(epsilons, dtype=float)
    err = np.asarray(errors, dtype=float)
    if eps.size != err.size or eps.size < 3:
        raise ConfigurationError("need at least three ladder points of equal count")
    if np.any(eps <= 0) or np.any(err <= 0):
        raise ConfigurationError("ladder points and errors must be positive")
    x = np.log(eps)
    y = np.log(err)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 and ss_res < 1e-28 else 1.0 - ss_res / max(ss_tot, np.finfo(float).tiny)
    return RateFit(
        epsilons=tuple(eps),
        errors=tuple(err),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        predicted_exponent=float(predicted_exponent),
    )


class TightnessVerdict(enum.Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class TightnessResult:
    partial_sums: np.ndarray
    verdict: TightnessVerdict


def tightness_series(
    op_l: ForwardOperator, beta: float, max_modes: int
) -> TightnessResult:
    """Partial sums of sum_j (1 + lambda_j)^(-beta) ||L phi_j||^2 and a verdict.

    The series is the expected squared dual norm of the limit process; the
    verdict applies a Cauchy criterion to the tail: relative increment below
    1e-3 converges, a non-shrinking or large increment diverges, the
    logarithmic middle ground is the boundary regime.
    """
    if max_modes < 100:
        raise ConfigurationError("need at least 100 modes to judge the tail")
    if op_l.basis.n_modes < max_modes:
        raise ConfigurationError(
            f"operator basis has {op_l.basis.n_modes} modes; build it with at least {max_modes}"
        )
    weights = (1.0 + op_l.basis.eigenvalues[:max_modes]) ** (-beta)
    if op_l.is_diagonal:
        mode_norms = op_l.multipliers[:max_modes] ** 2
    else:
        mode_norms = np.sum(op_l.matrix[:, :max_modes] ** 2, axis=0)
    partial = np.cumsum(weights * mode_norms)
    s_full = partial[max_modes - 1]
    s_half = partial[max_modes // 2 - 1]
    s_quarter = partial[max_modes // 4 - 1]
    r_hi = (s_full - s_half) / s_half
    r_lo = (s_half - s_quarter) / s_quarter
    if r_hi < 1e-3:
        verdict = TightnessVerdict.CONVERGES
    elif r_hi >= 0.25 or r_hi >= 0.95 * r_lo:
        verdict = TightnessVerdict.DIVERGES
    else:
        verdict = TightnessVerdict.BOUNDARY
    return TightnessResult(partial_sums=partial, verdict=verdict)

