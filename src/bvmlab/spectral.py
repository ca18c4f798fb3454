"""Spectral bases on the torus and the unit interval.

Provides orthonormal eigenbases of the (negative) Laplacian, coefficient
vectors, Sobolev-scale norms (negative exponents give the dual norms),
quadrature analysis of grid samples, smooth bump cutoffs, and band-limited
approximation.  Only this module knows the quadrature rule; its sums against
the basis are real FFTs of the grid samples, with no table of mode values.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError

__all__ = [
    "BasisKind",
    "SpectralBasis",
    "CoeffVector",
    "BumpCutoff",
    "build_basis",
    "coeff_vector",
    "unit_vector",
    "analyze",
    "fourier_moments",
    "inner",
    "sobolev_norm",
    "make_bump",
    "bandlimit_approx",
    "sobolev_draw",
]


class BasisKind(enum.Enum):
    FOURIER_TORUS = "fourier_torus"
    DIRICHLET_SINE = "dirichlet_sine"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Orthonormal Laplacian eigenbasis with an oversampled quadrature grid.

    Dirichlet sine basis on (0,1): phi_j(x) = sqrt(2) sin(pi j x) with
    eigenvalue (pi j)^2, j = 1..n_modes.  Real Fourier basis on the torus
    [0, 2pi): constant mode plus cos(kx)/sqrt(pi), sin(kx)/sqrt(pi) pairs,
    listed with signed frequencies (0, +1, -1, +2, -2, ...), eigenvalue k^2.
    """

    kind: BasisKind
    n_modes: int
    frequencies: np.ndarray  # signed mode indices
    eigenvalues: np.ndarray  # Laplacian eigenvalues, nondecreasing in |freq|
    grid: np.ndarray         # quadrature nodes

    def compatible(self, other: "SpectralBasis") -> bool:
        return (
            self.kind is other.kind
            and self.n_modes == other.n_modes
            and self.grid.size == other.grid.size
        )


@dataclass(frozen=True, eq=False)
class CoeffVector:
    """A function represented by its coefficients in a fixed spectral basis."""

    basis: SpectralBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size != self.basis.n_modes:
            raise ShapeError(
                f"expected {self.basis.n_modes} coefficients, got array of shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ConfigurationError("coefficients must be finite")
        object.__setattr__(self, "coeffs", _readonly(c))


def build_basis(kind: BasisKind, n_modes: int, oversample: int = 8) -> SpectralBasis:
    """Construct a spectral basis with a grid of N = oversample * n_modes quadrature nodes.

    The torus uses the (spectrally exact) rectangle rule on 2 pi i / N, the
    interval the midpoint rule on (i + 1/2) / N; products of basis modes are
    integrated exactly at oversample >= 4.  The basis keeps no mode values.
    """
    if n_modes < 1:
        raise ConfigurationError("n_modes must be a positive integer")
    if oversample < 4:
        raise ConfigurationError("oversample must be at least 4 for quadrature accuracy")
    n_grid = oversample * n_modes
    if kind is BasisKind.FOURIER_TORUS:
        if n_modes % 2 == 0:
            raise ConfigurationError("torus basis needs an odd mode count (0 plus +-k pairs)")
        half = (n_modes - 1) // 2
        freqs = np.zeros(n_modes, dtype=int)
        freqs[1::2] = np.arange(1, half + 1)
        freqs[2::2] = -np.arange(1, half + 1)
        eigs = freqs.astype(float) ** 2
        grid = 2.0 * math.pi * np.arange(n_grid) / n_grid
    elif kind is BasisKind.DIRICHLET_SINE:
        freqs = np.arange(1, n_modes + 1)
        eigs = (np.pi * freqs.astype(float)) ** 2
        grid = (np.arange(n_grid) + 0.5) / n_grid
    else:
        raise ConfigurationError(f"unknown basis kind: {kind!r}")
    return SpectralBasis(
        kind=kind,
        n_modes=n_modes,
        frequencies=_readonly(freqs),
        eigenvalues=_readonly(eigs),
        grid=_readonly(grid),
    )


def coeff_vector(basis: SpectralBasis, values) -> CoeffVector:
    return CoeffVector(basis=basis, coeffs=np.asarray(values, dtype=float))


def unit_vector(basis: SpectralBasis, index: int) -> CoeffVector:
    """Coordinate vector e_index (0-based position in the mode list)."""
    if not 0 <= index < basis.n_modes:
        raise ConfigurationError(f"mode index {index} out of range")
    c = np.zeros(basis.n_modes)
    c[index] = 1.0
    return coeff_vector(basis, c)


def _check_same_basis(f: CoeffVector, g: CoeffVector) -> None:
    if not f.basis.compatible(g.basis):
        raise ShapeError("coefficient vectors live on different bases")


def fourier_moments(values, basis: SpectralBasis, count: int) -> np.ndarray:
    """Quadrature sums sum_i w_i v(x_i) exp(-i k x_i) on the torus, or with pi k
    on the interval, for k = 0..count-1: one real FFT of the samples, of length
    2N with the twiddle exp(-i pi k / (2N)) on the interval's midpoint grid
    (Makhoul, IEEE TASSP 1980), whose sine sums are a DST-II.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size != basis.grid.size:
        raise ShapeError(
            f"expected {basis.grid.size} grid samples, got array of shape {v.shape}"
        )
    n_grid = v.size
    if basis.kind is BasisKind.FOURIER_TORUS:
        return np.fft.rfft(v)[:count] * (2.0 * math.pi / n_grid)
    twiddle = np.exp(-0.5j * np.pi * np.arange(count) / n_grid)
    return twiddle * np.fft.rfft(v, 2 * n_grid)[:count] / n_grid


def analyze(values, basis: SpectralBasis) -> CoeffVector:
    """Project grid samples onto the basis by quadrature inner products."""
    n = basis.n_modes
    if basis.kind is BasisKind.DIRICHLET_SINE:
        sums = fourier_moments(values, basis, n + 1)
        return coeff_vector(basis, -math.sqrt(2.0) * sums.imag[1:])
    sums = fourier_moments(values, basis, (n + 1) // 2) / math.sqrt(math.pi)
    coeffs = np.empty(n)
    coeffs[0] = sums.real[0] / math.sqrt(2.0)
    coeffs[1::2] = sums.real[1:]    # cos(kx) / sqrt(pi)
    coeffs[2::2] = -sums.imag[1:]   # sin(kx) / sqrt(pi)
    return coeff_vector(basis, coeffs)


def inner(f: CoeffVector, g: CoeffVector) -> float:
    """L2 inner product, realised as the coefficient dot product."""
    _check_same_basis(f, g)
    return float(np.dot(f.coeffs, g.coeffs))


def sobolev_norm(f: CoeffVector, exponent: float) -> float:
    """Smoothness-weighted norm sqrt(sum_j (1 + lambda_j)^s c_j^2); s = 0 is the L2 norm."""
    weights = (1.0 + f.basis.eigenvalues) ** exponent
    return float(np.sqrt(np.dot(weights, f.coeffs**2)))


def _smoothstep(t: np.ndarray) -> np.ndarray:
    # standard exponential partition: 0 for t<=0, 1 for t>=1, C-infinity throughout
    def ramp(u):
        out = np.zeros_like(u)
        pos = u > 0
        out[pos] = np.exp(-1.0 / u[pos])
        return out

    a = ramp(t)
    b = ramp(1.0 - t)
    return a / (a + b)


@dataclass(frozen=True)
class BumpCutoff:
    """Smooth cutoff: 1 on the plateau, 0 outside the support, monotone ramps between."""

    support: tuple[float, float]
    plateau: tuple[float, float]

    def __call__(self, points) -> np.ndarray:
        x = np.asarray(points, dtype=float)
        a, b = self.support
        p, q = self.plateau
        out = np.zeros(x.shape)
        rising = (x > a) & (x < p)
        out[rising] = _smoothstep((x[rising] - a) / (p - a))
        out[(x >= p) & (x <= q)] = 1.0
        falling = (x > q) & (x < b)
        out[falling] = _smoothstep((b - x[falling]) / (b - q))
        return out


def make_bump(support: tuple[float, float], plateau: tuple[float, float]) -> BumpCutoff:
    """Build a smooth cutoff with plateau strictly inside support strictly inside (0,1)."""
    a, b = float(support[0]), float(support[1])
    p, q = float(plateau[0]), float(plateau[1])
    if not (0.0 < a < p <= q < b < 1.0):
        raise ConfigurationError(
            "need 0 < support[0] < plateau[0] <= plateau[1] < support[1] < 1"
        )
    return BumpCutoff(support=(a, b), plateau=(p, q))


def bandlimit_approx(f: CoeffVector, cutoff_freq: int) -> CoeffVector:
    """Exact spectral projection to modes with |frequency| <= cutoff_freq."""
    if cutoff_freq > f.basis.n_modes:
        raise ConfigurationError("cutoff_freq exceeds the number of available modes")
    keep = np.abs(f.basis.frequencies) <= cutoff_freq
    return coeff_vector(f.basis, np.where(keep, f.coeffs, 0.0))


def sobolev_draw(basis: SpectralBasis, alpha: float, seed: int) -> CoeffVector:
    """Reproducible random element of the smoothness-alpha space, unit norm.

    Coefficients (1 + lambda_j)^(-alpha/2 - 0.3) g_j with g_j iid standard
    normal, then normalised; the extra 0.3 decay keeps every truncation level
    inside the target space.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(basis.n_modes)
    c = (1.0 + basis.eigenvalues) ** (-alpha / 2.0 - 0.25 - 0.05) * g
    f = coeff_vector(basis, c)
    norm = sobolev_norm(f, alpha)
    return coeff_vector(basis, c / norm)
