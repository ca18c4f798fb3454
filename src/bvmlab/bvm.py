"""Monte Carlo harness for the asymptotic-normality experiments: representer
construction, limiting variances, credible sets per noise level, the
replicate engine (one noise draw per replicate, scored at every noise level
against the credible sets or by its distance from the truth), the
Kolmogorov-Smirnov distance, coverage reports, rate regression, and the
tightness series of the limit law.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError
from .operators import ForwardOperator, apply, fisher_solve, normal_apply
from .posterior import (
    PosteriorSystem,
    exact_ball_radius,
    noise_block,
    two_sided_quantile,
)
from .priors import _wilson_interval
from .seeds import derive_seed
from .spectral import CoeffVector, coeff_vector, inner

__all__ = [
    "TestFunctional",
    "ReplicateTable",
    "CredibleSets",
    "CoverageKind",
    "CoverageReport",
    "RateFit",
    "TightnessVerdict",
    "TightnessResult",
    "representer",
    "heat_psi_from_representer",
    "credible_sets",
    "replicate_table",
    "replicate_errors",
    "ks_distance",
    "coverage_report",
    "rate_fit",
    "tightness_series",
]

# largest decay exponent the heat representer map evaluates before the
# semigroup weight is numerically void
HEAT_DECAY_CEILING = 300.0

@dataclass(frozen=True)
class TestFunctional:
    """A test functional psi together with its representer and limiting variance.

    The representer solves psi = -A*A psi_tilde; the limiting variance is the
    squared data-space norm of A psi_tilde.
    """

    psi: CoeffVector
    psi_tilde: CoeffVector
    limiting_variance: float


def _check_in_range(name: str, value: float) -> None:
    """Refuse a norm or variance of a nonzero vector that is 0 or not finite: its
    squares left the double range, where a relative check compares 0 with 0 or
    inf with inf and passes."""
    if not 0 < value < math.inf:
        raise NumericalError(f"the representer's {name} is {value:.3g}, outside the double range")


def _roundtrip_check(op: ForwardOperator, psi: CoeffVector, psi_tilde: CoeffVector) -> None:
    reproduced = normal_apply(op, psi_tilde)
    gap = np.linalg.norm(-reproduced.coeffs - psi.coeffs)
    scale = np.linalg.norm(psi.coeffs)
    _check_in_range("psi norm", scale)
    if not gap <= 1e-8 * scale:
        raise NumericalError(
            f"representer roundtrip residual {gap / scale:.3g} exceeds 1e-8"
        )


def representer(op: ForwardOperator, psi: CoeffVector) -> TestFunctional:
    """Solve psi = -A*A psi_tilde and record the limiting variance ||A psi_tilde||^2.

    psi must lie in the range of A*A, or ``fisher_solve`` raises IllPosedError;
    the roundtrip check applies A itself to psi_tilde, so it checks either of
    that function's paths.  A zero psi is refused, and so are a psi norm and a
    limiting variance that leave the double range.
    """
    if not np.any(psi.coeffs):
        raise ConfigurationError("the functional psi is zero")
    tilde = coeff_vector(op.basis, -fisher_solve(op, psi).coeffs)
    # the norms and the variance square coefficients; each is refused outside
    # the double range, so an overflow there is an error rather than a warning
    with np.errstate(over="ignore", invalid="ignore"):
        _roundtrip_check(op, psi, tilde)
        image = apply(op, tilde)
        variance = inner(image, image)
    _check_in_range("limiting variance", variance)
    return TestFunctional(psi=psi, psi_tilde=tilde, limiting_variance=variance)


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
class CredibleSets:
    """The credible sets of one functional at one noise level.

    The interval is ``<posterior mean, psi> +- interval_radius``; with
    ``ball_beta`` the ball holds the functions within ``ball_radius`` of the
    posterior mean in the dual norm of smoothness ``ball_beta``.  Both radii
    depend on the posterior covariance alone, so ``credible_sets`` computes
    them once per noise level and they serve every replicate.
    """

    epsilon: float
    functional: TestFunctional
    level: float
    posterior_functional_variance: float
    interval_radius: float
    ball_beta: Optional[float] = None
    ball_radius: Optional[float] = None


@dataclass(frozen=True, eq=False)
class ReplicateTable:
    """Columnar replicate records of one functional at one noise level.

    Row r belongs to replicate ``replicate_index[r]``; ``ball_covered`` is None
    unless the level's credible sets hold a ball.  The noise level, the
    credible level, the radii and the variances are the level's ``sets``, so
    ``coverage_report`` needs nothing but the table.
    """

    sets: CredibleSets
    replicate_index: np.ndarray  # (rows,)
    functional_mean: np.ndarray  # (rows,)
    scaled_error: np.ndarray  # (rows,)
    hat_psi: np.ndarray  # (rows,)
    interval_covered: np.ndarray  # (rows,), bool
    ball_covered: Optional[np.ndarray] = None  # (rows,), bool


def credible_sets(
    system: PosteriorSystem,
    epsilon: float,
    functional: TestFunctional,
    level: float = 0.95,
    ball_beta: Optional[float] = None,
) -> CredibleSets:
    """The functional's posterior variance and the interval and exact ball radii at
    noise level epsilon."""
    q = two_sided_quantile(level)
    variance = system.functional_variance(functional.psi, epsilon)
    return CredibleSets(
        epsilon=epsilon,
        functional=functional,
        level=level,
        posterior_functional_variance=variance,
        interval_radius=q * math.sqrt(variance),
        ball_beta=ball_beta,
        ball_radius=(
            None if ball_beta is None else exact_ball_radius(system, epsilon, ball_beta, level)
        ),
    )


def _replicate_modes(
    system: PosteriorSystem,
    epsilons: Sequence[float],
    f_dagger: CoeffVector,
    indices: Sequence[int],
    master_seed: int,
) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Measurements ``A f_dagger + epsilon W`` from the fixed truth at every
    noise level, for the replicates ``indices`` in one block.

    Replicate i draws W once, as ``noise_draw`` of the key
    ``derive_seed(master_seed, 2i)``, and rotates it into the system's modes
    once for every level; the master seed must lie in 0..2**64 - 1.  Returns
    the noise rows and an iterator over the levels' modal posterior means
    ``g * U^T (A f_dagger + epsilon W)``, which ``system.synthesise`` maps to
    coefficients.  Every step is row-local, so every row is bitwise the same
    for any index split: a parallel driver bounds memory by the ranges it
    passes.  Every level's modal rows are computed into the noise block, which
    is dead once rotated: the returned noise rows are valid only until the
    iterator's first step, and each level's modal rows only until its next.
    """
    if not system.operator.basis.compatible(f_dagger.basis):
        raise ShapeError("truth lives on a different basis than the operator")
    signal = system.rotate(apply(system.operator, f_dagger).coeffs)
    gains = [system.gains(epsilon) for epsilon in epsilons]
    noise = noise_block(f_dagger.basis, [derive_seed(master_seed, 2 * i) for i in indices])
    rotated = system.rotate(noise)

    def modal_means() -> Iterator[np.ndarray]:
        modes = noise
        for epsilon, gain in zip(epsilons, gains):
            # gain * (signal + epsilon * rotated), ufunc by ufunc
            np.multiply(epsilon, rotated, out=modes)
            np.add(signal, modes, out=modes)
            np.multiply(gain, modes, out=modes)
            yield modes

    return noise, modal_means()


def _distances(
    system: PosteriorSystem, f_dagger: CoeffVector, modes: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """The weighted distance from the truth to the posterior mean ``W m`` of each
    modal row m, one row-local dot product per row."""
    errors = system.synthesise(modes)
    np.subtract(f_dagger.coeffs, errors, out=errors)
    np.square(errors, out=errors)
    return np.sqrt(np.vecdot(errors, weights))


def replicate_table(
    system: PosteriorSystem,
    levels: Sequence[CredibleSets],
    f_dagger: CoeffVector,
    indices: Sequence[int],
    master_seed: int = 0,
) -> list[ReplicateTable]:
    """The replicates scored against each noise level's credible sets, as
    columns: one table per level, in the order of ``levels``, which must all
    hold one functional and one ``ball_beta``."""
    functional, ball_beta = levels[0].functional, levels[0].ball_beta
    if any(sets.functional is not functional or sets.ball_beta != ball_beta for sets in levels):
        raise ConfigurationError("every noise level must score one functional and one ball_beta")
    truth_value = inner(f_dagger, functional.psi)
    # <W m, psi> = <m, W^T psi>, so the functional is O(n) per replicate
    psi_modes = system.functional_modes(functional.psi)
    image = apply(system.operator, functional.psi_tilde).coeffs
    weights = None if ball_beta is None else system.prior.basis.sobolev_weights(-ball_beta)
    epsilons = [sets.epsilon for sets in levels]
    noise, modes_by_level = _replicate_modes(system, epsilons, f_dagger, indices, master_seed)
    # <w, A psi_tilde> does not depend on the noise level; it is taken before
    # the first level overwrites the noise rows
    noise_term = np.vecdot(noise, image)
    tables = []
    for sets, modes in zip(levels, modes_by_level):
        mean = np.vecdot(modes, psi_modes)
        tables.append(
            ReplicateTable(
                sets=sets,
                replicate_index=np.array(indices, dtype=np.int64),
                functional_mean=mean,
                scaled_error=(mean - truth_value) / sets.epsilon,
                hat_psi=truth_value - sets.epsilon * noise_term,
                interval_covered=np.abs(truth_value - mean) <= sets.interval_radius,
                ball_covered=(
                    None if weights is None
                    else _distances(system, f_dagger, modes, weights) <= sets.ball_radius
                ),
            )
        )
    return tables


def replicate_errors(
    system: PosteriorSystem,
    epsilons: Sequence[float],
    f_dagger: CoeffVector,
    indices: Sequence[int],
    exponent: float,
    master_seed: int = 0,
) -> np.ndarray:
    """Each replicate's distance from the truth to its posterior mean, in the
    norm of smoothness ``exponent``: shape (len(epsilons), len(indices)).

    Replicate i is the one ``replicate_table`` scores, and with exponent
    -ball_beta its distance is the one its ball flag compares with the ball
    radius; every row is bitwise the same for any index split.
    """
    weights = system.prior.basis.sobolev_weights(exponent)
    errors = np.empty((len(epsilons), len(indices)))
    _, modes_by_level = _replicate_modes(system, epsilons, f_dagger, indices, master_seed)
    for k, modes in enumerate(modes_by_level):
        errors[k] = _distances(system, f_dagger, modes, weights)
    return errors


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
    sets = table.sets
    if which is CoverageKind.BALL:
        if sets.ball_radius is None:
            raise ConfigurationError("ball coverage requested but the table has no ball")
        covered, radius = table.ball_covered, sets.ball_radius
    else:
        covered, radius = table.interval_covered, sets.interval_radius
    hits = int(np.count_nonzero(covered))
    low, high = _wilson_interval(hits, n)
    return CoverageReport(
        replicates=n,
        hit_rate=hits / n,
        wilson_low=low,
        wilson_high=high,
        mean_scaled_radius=radius / sets.epsilon,
        ks_to_limit=ks_distance(table.scaled_error, sets.functional.limiting_variance),
        target_level=sets.level,
    )


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log error against log noise level."""

    slope: float
    r_squared: float
    predicted_exponent: float


def rate_fit(
    epsilons: Sequence[float], errors: Sequence[float], predicted_exponent: float
) -> RateFit:
    eps = np.asarray(epsilons, dtype=float)
    err = np.asarray(errors, dtype=float)
    if eps.size != err.size or eps.size < 3:
        raise ConfigurationError("need at least three ladder points of equal count")
    if not np.all(np.isfinite(err)):
        raise NumericalError("rate fit errors must be finite")
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
        slope=float(slope),
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
    with np.errstate(over="ignore", invalid="ignore"):
        weights = op_l.basis.sobolev_weights(-beta)[:max_modes]
        mode_norms = np.sum(np.atleast_2d(op_l.array)[:, :max_modes] ** 2, axis=0)
        partial = np.cumsum(weights * mode_norms)
    # every column of a differential operator is nonzero: a norm at 0 or inf
    # is the operator's scale leaving the double range, not beta's fault
    if not np.all((mode_norms > 0) & (mode_norms < math.inf)):
        raise NumericalError(
            "the operator's squared column norms must be finite and positive; "
            f"they span [{mode_norms.min():.3g}, {mode_norms.max():.3g}]"
        )
    s_full = partial[max_modes - 1]
    s_half = partial[max_modes // 2 - 1]
    s_quarter = partial[max_modes // 4 - 1]
    # the verdict divides by the half and quarter sums
    if not (np.all(np.isfinite(partial)) and s_quarter > 0):
        raise ConfigurationError(
            f"key 'tightness.beta': the partial sums at beta={beta!r} must be finite, "
            f"and positive by mode {max_modes // 4}"
        )
    r_hi = (s_full - s_half) / s_half
    r_lo = (s_half - s_quarter) / s_quarter
    if r_hi < 1e-3:
        verdict = TightnessVerdict.CONVERGES
    elif r_hi >= 0.25 or r_hi >= 0.95 * r_lo:
        verdict = TightnessVerdict.DIVERGES
    else:
        verdict = TightnessVerdict.BOUNDARY
    return TightnessResult(partial_sums=partial, verdict=verdict)

