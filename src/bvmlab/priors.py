"""Matern-type Gaussian priors: small-ball probability estimation, the
concentration function, contraction-rate prediction, and the exact law of a
Gaussian quadratic form sum_j w_j Z_j^2.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, NumericalError, RareEventError, ShapeError
from .spectral import BasisKind, CoeffVector, SpectralBasis

__all__ = [
    "GaussianPrior",
    "SmallBallEstimate",
    "ConcentrationValue",
    "RateBranch",
    "RatePrediction",
    "matern_prior",
    "truncation_tail",
    "small_ball_ladder",
    "concentration_ladder",
    "quadratic_form_quantile",
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


# two successive trapezoid passes of a contour integral below are accepted
# once they agree to this relative tolerance
QUADRATURE_RTOL = 1e-14

# the quantile's Newton iteration stops once a step moves x (upper tail) or
# log x (lower tail) by less than this
_QUANTILE_STEP_TOL = 1e-13

# contour points per block, times the weight count, bounds the complex
# temporaries of one cumulant evaluation
_CONTOUR_BLOCK_ENTRIES = 1 << 15


def _cgf(weights: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Cumulant generating function K(s) = -1/2 sum_j log(1 - 2 s w_j), elementwise in s."""
    block = max(1, _CONTOUR_BLOCK_ENTRIES // weights.size)
    out = np.empty(s.shape, dtype=s.dtype)
    for lo in range(0, s.size, block):
        out[lo : lo + block] = -0.5 * np.sum(
            np.log1p(-2.0 * np.multiply.outer(s[lo : lo + block], weights)), axis=1
        )
    return out


def _cgf_slopes(weights: np.ndarray, s: float) -> tuple[float, float]:
    """K'(s) and K''(s) at a real point left of the branch point 1 / (2 max w)."""
    u = weights / (1.0 - 2.0 * s * weights)
    return float(np.sum(u)), float(2.0 * np.sum(u * u))


def _saddlepoint(weights: np.ndarray, x: float) -> float:
    """The real s with K'(s) = x, by Newton's method kept inside a bracket.

    K' increases from 0 to infinity on (-inf, 1 / (2 max w)); each term
    w / (1 - 2 s w) lies below 1 / (-2 s) for s < 0 and the largest term alone
    reaches x at 1 / (2 max w) - 1 / (2 x), which brackets the root.
    """
    w_max = float(weights.max())
    lo = -weights.size / (2.0 * x)
    hi = (1.0 - w_max / x) / (2.0 * w_max)
    s = hi
    for _ in range(200):
        slope, curvature = _cgf_slopes(weights, s)
        if abs(slope - x) <= 1e-12 * x:
            return s
        if slope > x:
            hi = s
        else:
            lo = s
        step = s - (slope - x) / curvature
        s = step if lo < step < hi else 0.5 * (lo + hi)
    raise NumericalError(f"saddlepoint of the quadratic form did not converge at x={x!r}")


def _trapezoid(integrand, h: float, n: int) -> np.ndarray:
    """Integrals over t >= 0 of integrands even in t: the whole-line trapezoid
    rule folded at 0, on points 0, h, ..., n h, with h halved until two passes
    agree.  ``integrand`` maps a vector of t to one row per integrand."""
    values = integrand(h * np.arange(n + 1))
    total = h * (values.sum(axis=1) - 0.5 * values[:, 0])
    for _ in range(20):
        values = integrand(h * (np.arange(n) + 0.5))
        refined = 0.5 * total + 0.5 * h * values.sum(axis=1)
        h, n = 0.5 * h, 2 * n
        if np.all(np.abs(refined - total) <= QUADRATURE_RTOL * np.abs(refined)):
            return refined
        total = refined
    raise NumericalError("trapezoid passes of the quadratic-form integral did not converge")


def _tail_and_density(weights: np.ndarray, x: float, upper: bool) -> tuple[float, float]:
    """log of P(Q > x) (upper) or P(Q <= x), and its derivative in x.

    Rice's inversion: P(Q > x) is (1 / 2 pi i) times the integral of
    exp(K(s) - s x) / s over a vertical line crossing the real axis at c > 0,
    and the same integral crossing at c < 0 is -P(Q <= x).  The line is bent
    into the parabola s(t) = c + a t^2 + i t with a = K''(c) / (2 x), which
    meets the real axis only at c, so it passes no pole or branch point, and
    along it exp(-s x) decays like a Gaussian in t.  By conjugate symmetry
    the integral is (1 / pi) times that of the imaginary part over t > 0; the
    integrand without 1 / s gives the density.  The crossing is the saddlepoint
    unless the pole at 0 lies within half a Gaussian width 1 / sqrt(K'') of
    it; then it moves to one width from 0 on the same side, and at most
    halfway to the branch point 1 / (2 max w).
    """
    c = _saddlepoint(weights, x)
    curvature = _cgf_slopes(weights, c)[1]
    if abs(c) * math.sqrt(curvature) < 0.5:
        c = min(math.copysign(1.0 / math.sqrt(curvature), c), 0.25 / float(weights.max()))
        curvature = _cgf_slopes(weights, c)[1]
    a = curvature / (2.0 * x)
    scale = float(_cgf(weights, np.array([c]))[0]) - c * x

    def integrand(t: np.ndarray) -> np.ndarray:
        s = c + a * t * t + 1j * t
        density = np.exp(_cgf(weights, s) - s * x - scale) * (2.0 * a * t + 1j)
        return np.stack([(density / s).imag, density.imag])

    # the Gaussian factor has width 1 / sd in t; start at ten widths, step 1/2
    sd = math.sqrt(curvature)
    h, n = 0.5 / sd, 20
    while True:
        ends = integrand(np.array([0.0, n * h]))
        if np.all(np.abs(ends[:, 1]) <= 1e-3 * QUADRATURE_RTOL * np.abs(ends[:, 0])):
            break
        n *= 2
        if n > 1 << 16:
            raise NumericalError("quadratic-form integrand does not decay along the contour")
    tail_integral, density_integral = _trapezoid(integrand, h, n) / math.pi
    direct = math.exp(scale) * abs(tail_integral)  # P(Q > x) if c > 0, else P(Q <= x)
    sign = -1.0 if upper else 1.0
    if (c > 0) == upper:
        return scale + math.log(abs(tail_integral)), sign * density_integral / abs(tail_integral)
    return math.log1p(-direct), sign * math.exp(scale) * density_integral / (1.0 - direct)


def quadratic_form_quantile(weights: Sequence[float], level: float) -> float:
    """The x with P(Q <= x) = level for Q = sum_j w_j Z_j^2, Z_j iid standard normal.

    Exact up to the quadrature tolerance ``QUADRATURE_RTOL``: the law is
    inverted by Rice's contour integral (``_tail_and_density``), and x found by
    a bracketed Newton iteration on the log of the smaller tail, in x for the
    upper tail and in log x for the lower, where each log tail is nearly
    linear.  The weights are scaled to unit sum; zero weights drop out.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or not np.all(np.isfinite(w)) or np.any(w < 0) or not np.any(w > 0):
        raise ConfigurationError("quadratic-form weights must be finite, nonnegative, not all 0")
    if not 0.0 < level < 1.0:
        raise ConfigurationError("level must lie strictly between 0 and 1")
    total = float(w.sum())
    w = w[w > 0] / total
    upper = level > 0.5
    log_target = math.log(1.0 - level if upper else level)
    # start from the Wilson-Hilferty quantile of the scaled chi-square g chi^2_nu
    # with the same mean and variance
    nu = 1.0 / float(np.sum(w * w))
    z = NormalDist().inv_cdf(level)
    x = max(1.0 - 2.0 / (9.0 * nu) + z * math.sqrt(2.0 / (9.0 * nu)), 0.1) ** 3
    lo, hi = 0.0, math.inf  # P(Q > lo) > 1 - level > P(Q > hi)
    for _ in range(60):
        log_tail, slope = _tail_and_density(w, x, upper)
        residual = log_tail - log_target
        if (residual > 0) == upper:
            lo = x
        else:
            hi = x
        if upper:
            step = -residual / slope
            candidate = x + step
            converged = abs(step) <= _QUANTILE_STEP_TOL * x
        else:
            step = -residual / (x * slope)
            candidate = x * math.exp(step)
            converged = abs(step) <= _QUANTILE_STEP_TOL
        if converged:
            return candidate * total
        if lo < candidate < hi:
            x = candidate
        else:
            x = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
    raise NumericalError(f"quadratic-form quantile at level {level!r} did not converge")


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
