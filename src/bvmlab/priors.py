"""Matern-type Gaussian priors: sampling, RKHS norms, small-ball probability
estimation, the concentration function, and contraction-rate prediction.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, RareEventError, ShapeError
from .spectral import BasisKind, CoeffVector, SpectralBasis, coeff_vector

__all__ = [
    "GaussianPrior",
    "SmallBallEstimate",
    "ConcentrationValue",
    "RateBranch",
    "RatePrediction",
    "matern_prior",
    "sample_prior",
    "rkhs_norm",
    "truncation_tail",
    "small_ball_ladder",
    "concentration_ladder",
    "predict_rate",
]

# draws per chunk when Monte Carlo estimates are accumulated (fixed so that
# results are reproducible independently of available memory)
_MC_CHUNK = 4096

_WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class GaussianPrior:
    """Centred Gaussian law with per-mode variances amplitude * (1 + lambda_j)^(-r)."""

    basis: SpectralBasis
    variances: np.ndarray
    rkhs_exponent: float
    amplitude: float


class SmallBallEstimate(NamedTuple):
    """Log small-ball probability with its Wilson 95% uncertainty band."""

    log_prob: float
    log_low: float
    log_high: float
    hits: int
    n_samples: int


class ConcentrationValue(NamedTuple):
    """phi(delta) = approx_term + smallball_term, with the small-ball estimate behind it."""

    approx_term: float
    smallball_term: float
    phi: float
    estimate: SmallBallEstimate


class RateBranch(enum.Enum):
    APPROX_LIMITED = "approx_limited"
    SMALL_BALL_LIMITED = "small_ball_limited"


class RatePrediction(NamedTuple):
    exponent: float
    which: RateBranch


def matern_prior(basis: SpectralBasis, r: float, amplitude: float = 1.0) -> GaussianPrior:
    """Prior with RKHS of smoothness r; on the line this requires r > 1/2."""
    if r <= 0.5:
        raise ConfigurationError(
            f"RKHS smoothness r={r} violates the requirement r > d/2 = 0.5"
        )
    if amplitude <= 0:
        raise ConfigurationError("amplitude must be positive")
    tau = amplitude * (1.0 + basis.eigenvalues) ** (-r)
    tau.flags.writeable = False
    return GaussianPrior(basis=basis, variances=tau, rkhs_exponent=float(r), amplitude=float(amplitude))


def sample_prior(prior: GaussianPrior, seed: int) -> CoeffVector:
    """One draw with independent N(0, tau_j) coefficients; deterministic per seed."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(prior.basis.n_modes)
    return coeff_vector(prior.basis, np.sqrt(prior.variances) * g)


def rkhs_norm(prior: GaussianPrior, g: CoeffVector) -> float:
    """Cameron-Martin norm sqrt(sum_j g_j^2 / tau_j)."""
    if not prior.basis.compatible(g.basis):
        raise ShapeError("vector lives on a different basis than the prior")
    return float(np.sqrt(np.sum(g.coeffs**2 / prior.variances)))


def truncation_tail(prior: GaussianPrior, terms: int = 100_000) -> float:
    """Mass sum of the prior variances beyond the truncation level.

    Sums the next ``terms`` modes of the untruncated variance law and closes
    with an integral bound for the remainder; a diagnostic for how much of the
    infinite-dimensional law the finite basis carries.
    """
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


def _wilson_interval(hits: int, n: int) -> tuple[float, float]:
    z2 = _WILSON_Z**2
    p = hits / n
    centre = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = _WILSON_Z * math.sqrt(p * (1 - p) / n + z2 / (4 * n**2)) / (1 + z2 / n)
    return max(centre - half, 0.0), min(centre + half, 1.0)


def _positive_deltas(deltas: Sequence[float]) -> tuple[float, ...]:
    deltas = tuple(float(d) for d in deltas)
    if not deltas:
        raise ConfigurationError("need at least one delta")
    if any(d <= 0 for d in deltas):
        raise ConfigurationError("delta must be positive")
    return deltas


def small_ball_ladder(
    prior: GaussianPrior,
    norm_exponent: float,
    deltas: Sequence[float],
    mc_samples: int,
    seed: int,
) -> tuple[SmallBallEstimate, ...]:
    """Monte Carlo estimates of log P(||f|| <= delta) for every delta, from one sample.

    The norm has smoothness ``norm_exponent``.  Each draw is made and its norm
    computed once, then tested against every radius, so all estimates share
    one set of ``mc_samples`` draws and the hit counts are non-decreasing in
    delta.  Refuses rare-event regimes: if any delta gets fewer than 10 hits,
    ``RareEventError`` names the first such delta in the given order rather
    than returning a silently unreliable number.
    """
    deltas = _positive_deltas(deltas)
    if mc_samples < 1000:
        raise ConfigurationError("need at least 1000 Monte Carlo samples")
    weights = (1.0 + prior.basis.eigenvalues) ** norm_exponent * prior.variances
    rng = np.random.default_rng(seed)
    hits = [0] * len(deltas)
    thresholds = [d**2 for d in deltas]
    remaining = mc_samples
    while remaining > 0:
        block = min(_MC_CHUNK, remaining)
        g = rng.standard_normal((block, prior.basis.n_modes))
        norms_sq = (g**2) @ weights
        for k, thresh in enumerate(thresholds):
            hits[k] += int(np.count_nonzero(norms_sq <= thresh))
        remaining -= block
    for delta, h in zip(deltas, hits):
        if h < 10:
            raise RareEventError(
                f"delta={delta!r}: only {h} of {mc_samples} draws landed in the ball; "
                "estimate would be unreliable (need >= 10 hits)"
            )
    estimates = []
    for h in hits:
        low, high = _wilson_interval(h, mc_samples)
        estimates.append(
            SmallBallEstimate(
                log_prob=math.log(h / mc_samples),
                log_low=math.log(low),
                log_high=math.log(high) if high > 0 else -math.inf,
                hits=h,
                n_samples=mc_samples,
            )
        )
    return tuple(estimates)


def _rkhs_approximation_cost(
    prior: GaussianPrior, f_dagger: CoeffVector, delta: float, ambient_exponent: float
) -> float:
    """Exact value of min ||g||_RKHS^2 / 2 over the accuracy-delta constraint set.

    The constrained quadratic program has the closed KKT form
    g_j = mu w_j f_j / (1/tau_j + mu w_j); the multiplier is found by
    bisection until the constraint holds with relative residual <= 1e-10.
    """
    tau = prior.variances
    w = (1.0 + prior.basis.eigenvalues) ** ambient_exponent
    f = f_dagger.coeffs
    target = delta**2

    def residual(mu: float) -> float:
        # squared ambient distance ||g(mu) - f||^2
        return float(np.sum(w * f**2 / (1.0 + mu * w * tau) ** 2))

    if residual(0.0) <= target:
        return 0.0
    lo, hi = 0.0, 1.0
    while residual(hi) > target:
        hi *= 2.0
        if hi > 1e300:
            raise ConfigurationError("approximation constraint cannot be met")
    while True:
        mid = 0.5 * (lo + hi)
        res = residual(mid)
        if abs(res - target) <= 1e-10 * target or (hi - lo) <= 1e-16 * max(hi, 1.0):
            mu = mid
            break
        if res > target:
            lo = mid
        else:
            hi = mid
    g = mu * w * tau * f / (1.0 + mu * w * tau)
    return float(0.5 * np.sum(g**2 / tau))


def concentration_ladder(
    prior: GaussianPrior,
    f_dagger: CoeffVector,
    deltas: Sequence[float],
    ambient_exponent: float,
    mc_samples: int,
    seed: int,
) -> tuple[ConcentrationValue, ...]:
    """phi(delta) = RKHS approximation cost of the truth + negative log small-ball mass.

    Evaluated at every delta; the small-ball terms come from one
    ``small_ball_ladder`` sample, so phi is non-increasing in delta.
    ``ambient_exponent`` selects the weak norm the accuracy is measured in
    (-2 for the elliptic solution map's natural scale).
    """
    if not prior.basis.compatible(f_dagger.basis):
        raise ShapeError("query truth lives on a different basis than the prior")
    deltas = _positive_deltas(deltas)
    approx = [
        _rkhs_approximation_cost(prior, f_dagger, delta, ambient_exponent) for delta in deltas
    ]
    estimates = small_ball_ladder(prior, ambient_exponent, deltas, mc_samples, seed)
    values = []
    for a, est in zip(approx, estimates):
        smallball = -est.log_prob
        values.append(
            ConcentrationValue(
                approx_term=a, smallball_term=smallball, phi=a + smallball, estimate=est
            )
        )
    return tuple(values)


def predict_rate(t: float, r: float, alpha: float, d: int = 1) -> RatePrediction:
    """Contraction-rate exponent for smoothing order t, RKHS smoothness r, truth smoothness alpha.

    Returns the smaller of the approximation and small-ball exponents (the
    binding branch as the noise vanishes); ties report the small-ball branch.
    """
    if t < 0:
        raise ConfigurationError("smoothing order t must be nonnegative")
    if d < 1:
        raise ConfigurationError("dimension must be a positive integer")
    if r <= d / 2:
        raise ConfigurationError(f"RKHS smoothness r={r} violates r > d/2")
    if alpha < 0 and alpha <= -t:
        raise ConfigurationError("truth smoothness must satisfy alpha > -t")
    approx_exp = (t + alpha) / (t + r)
    smallball_exp = (t + r - d / 2) / (t + r)
    if approx_exp < smallball_exp:
        return RatePrediction(exponent=approx_exp, which=RateBranch.APPROX_LIMITED)
    return RatePrediction(exponent=smallball_exp, which=RateBranch.SMALL_BALL_LIMITED)
