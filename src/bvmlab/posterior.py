"""Exact conjugate Gaussian posterior for the linear white-noise model, with
an independently coded Tikhonov minimiser as cross-check, variances of linear
functionals, and exact dual-norm credible-ball radii.

In the singular basis of the whitened operator A S^{1/2} = U diag(sigma) V^T
(S the prior covariance) the posterior is diagonal at every noise level eps:
the mean of data M is W (g * U^T M) with W = S^{1/2} V, and the covariance is
W diag(h^2) W^T, where only the per-mode gains g and spreads h depend on eps.
``posterior_system`` builds U^T, sigma and W once per (prior, operator) - one
singular value decomposition on the dense path, per-mode vectors on the
diagonal one - and every noise level then costs O(n) vectors; no n x n matrix
is held per level, and the covariance is positive semidefinite by
construction.

Noise is drawn from NumPy's counter-based Philox generator, keyed by a
128-bit integer (``seeds.derive_seed`` packs a master seed and a stream id
into one); ``noise_block`` draws a whole block of keys on one generator.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError
from .operators import (
    ForwardOperator,
    _dense,
    _map_rows,
    _singular_squares,
    _singular_system,
    apply,
)
from .priors import GaussianPrior, quadratic_form_quantile
from .spectral import CoeffVector, SpectralBasis, coeff_vector

__all__ = [
    "PosteriorSystem",
    "noise_draw",
    "noise_block",
    "observe",
    "posterior_system",
    "tikhonov_solve",
    "two_sided_quantile",
    "exact_ball_radius",
]


def _check_epsilon(epsilon: float) -> None:
    # the update squares epsilon, which must stay a positive finite double
    if not (epsilon > 0 and 0 < epsilon * epsilon < math.inf):
        raise ConfigurationError(
            f"noise level epsilon must be positive with a positive finite square, got {epsilon!r}"
        )


_KEY_LIMIT = 1 << 128
_MASK64 = (1 << 64) - 1


def _checked_key(key: int) -> int:
    key = operator.index(key)
    if not 0 <= key < _KEY_LIMIT:
        raise OverflowError(f"noise key must lie in 0..2**128 - 1, got {key}")
    return key


def noise_block(basis: SpectralBasis, keys: Sequence[int]) -> np.ndarray:
    """White-noise realisations, one row per key: row r holds the iid standard
    normals the Philox generator with 128-bit key ``keys[r]`` draws first,
    shape (len(keys), n_modes).

    Keys must lie in 0..2**128 - 1.  One generator serves every row: before
    each row its Philox state is set to the one ``Philox(key=key)`` starts
    from - the row's key, a zero counter and an empty buffer - so no
    generator is built per row.
    """
    block = np.empty((len(keys), basis.n_modes))
    generator = np.random.Generator(np.random.Philox(0))
    bit_generator = generator.bit_generator
    state = bit_generator.state
    state["state"]["counter"] = np.zeros(4, dtype=np.uint64)
    # the buffer holds 4 words, so position 4 means it is empty
    state["buffer_pos"], state["has_uint32"] = 4, 0
    for row, key in zip(block, keys):
        key = _checked_key(key)
        state["state"]["key"] = [key & _MASK64, key >> 64]
        bit_generator.state = state
        generator.standard_normal(out=row)
    return block


def noise_draw(basis: SpectralBasis, key: int) -> CoeffVector:
    """White-noise realisation: the one row of ``noise_block(basis, [key])``."""
    return coeff_vector(basis, noise_block(basis, [key])[0])


def observe(
    op: ForwardOperator, f_dagger: CoeffVector, epsilon: float, seed: int
) -> CoeffVector:
    """Data M = A f + eps * w from the fixed truth, with the noise draw of key ``seed``."""
    w = noise_draw(op.basis, seed)
    return coeff_vector(op.basis, apply(op, f_dagger).coeffs + epsilon * w.coeffs)


@dataclass(frozen=True, eq=False)
class PosteriorSystem:
    """The conjugate posterior of one (prior, operator) pair at every noise level.

    With S the prior covariance, A S^{1/2} = U diag(sigma) V^T and W = S^{1/2} V,
    the posterior at noise level eps has mean W (g * U^T M) for data M and
    covariance W diag(h^2) W^T, where only the gains g = sigma / (sigma^2 + eps^2)
    and the spreads h = eps / (sigma^2 + eps^2)^{1/2} depend on eps.  A diagonal
    operator keeps U^T = 1, sigma = a tau^{1/2} and W = tau^{1/2} as vectors.
    """

    prior: GaussianPrior
    operator: ForwardOperator
    ut: np.ndarray
    sigma: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name in ("ut", "sigma", "w"):
            frozen = np.array(getattr(self, name))
            frozen.flags.writeable = False
            object.__setattr__(self, name, frozen)
        # the gains and spreads square sigma; an inf there gives zero means and
        # spreads at every noise level
        with np.errstate(over="ignore"):
            squares = np.square(self.sigma)
        if not np.all(squares < math.inf):
            raise NumericalError(
                f"the whitened operator's singular value {float(np.max(self.sigma)):.3g} "
                "squares past the largest double"
            )

    def gains(self, epsilon: float) -> np.ndarray:
        _check_epsilon(epsilon)
        return self.sigma / (self.sigma**2 + epsilon**2)

    def spreads(self, epsilon: float) -> np.ndarray:
        _check_epsilon(epsilon)
        return epsilon / np.sqrt(self.sigma**2 + epsilon**2)

    def rotate(self, data: np.ndarray) -> np.ndarray:
        """U^T M for data vectors M along the last axis: the data in the system's modes."""
        return _map_rows(self.ut, data)

    def synthesise(self, modes: np.ndarray) -> np.ndarray:
        """W m for modal vectors m along the last axis: basis coefficients."""
        return _map_rows(self.w, modes)

    def functional_modes(self, psi: CoeffVector) -> np.ndarray:
        """W^T psi, so that <W m, psi> = <m, W^T psi>."""
        if not self.prior.basis.compatible(psi.basis):
            raise ShapeError("functional lives on a different basis than the posterior")
        return _map_rows(self.w.T, psi.coeffs)

    def functional_variance(self, psi: CoeffVector, epsilon: float) -> float:
        """Posterior variance |h * W^T psi|^2 of the functional <f, psi>; data-independent."""
        spread = self.spreads(epsilon) * self.functional_modes(psi)
        return float(np.dot(spread, spread))

    def weighted_spectrum(self, weights: np.ndarray, epsilon: float) -> np.ndarray:
        """Eigenvalues mu of D^{1/2} C D^{1/2} for the posterior covariance C at
        noise level eps and D = diag(weights).

        A centred draw f has sum_j weights_j f_j^2 distributed as
        sum_k mu_k Z_k^2 with Z iid standard normal.  Dense path: the squared
        singular values of D^{1/2} W diag(h), one singular value decomposition.
        """
        spreads = self.spreads(epsilon)
        return _singular_squares(weights, self.w, spreads, "weighted posterior spectrum")

    def update(self, data: CoeffVector, epsilon: float) -> CoeffVector:
        """Posterior mean W (g * U^T M) for one data vector M observed at noise level eps."""
        if not self.prior.basis.compatible(data.basis):
            raise ShapeError("data live on a different basis than the posterior")
        modes = self.gains(epsilon) * self.rotate(data.coeffs)
        return coeff_vector(self.prior.basis, self.synthesise(modes))


def posterior_system(prior: GaussianPrior, op: ForwardOperator) -> PosteriorSystem:
    """The singular system of the whitened operator A S^{1/2}, which serves every
    noise level: per-mode vectors on the diagonal path, one singular value
    decomposition on the dense one.

    On the dense path the whitened matrix is dropped once decomposed, and W is
    formed in place as (V^T S^{1/2})^T, so besides the system's own copies of
    U^T and W the build holds only the decomposition's U and V^T."""
    if not prior.basis.compatible(op.basis):
        raise ShapeError("prior and operator must share one basis")
    prior_sd = np.sqrt(prior.variances)
    ut, sigma, vt = _singular_system(op.array * prior_sd, "posterior system")
    vt *= prior_sd
    return PosteriorSystem(prior, op, ut, sigma, vt.T)


def tikhonov_solve(
    prior: GaussianPrior, op: ForwardOperator, data: CoeffVector, epsilon: float
) -> CoeffVector:
    """Minimise the penalised data-misfit functional by parameter-space normal equations.

    Deliberately a different factorization than ``PosteriorSystem.update`` -
    solving (A^T A / eps^2 + S^{-1}) f = A^T M / eps^2 densely even for
    diagonal operators - so agreement with the posterior mean is a genuine
    cross-check.
    """
    if not (prior.basis.compatible(op.basis) and op.basis.compatible(data.basis)):
        raise ShapeError("prior, operator, and data must share one basis")
    _check_epsilon(epsilon)
    eps2 = epsilon**2
    amat = _dense(op.array)
    hess = amat.T @ amat / eps2 + np.diag(1.0 / prior.variances)
    rhs = amat.T @ data.coeffs / eps2
    try:
        # the Cholesky factor is only the positive-definiteness gate
        np.linalg.cholesky(hess)
        solution = np.linalg.solve(hess, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"normal-equation solve failed: {exc}") from exc
    return coeff_vector(prior.basis, solution)


def two_sided_quantile(level: float) -> float:
    """q with P(|Z| <= q) = level for standard normal Z.

    The sum 0.5 + level / 2 drops the low digits of a small level, so below
    level 0.5 one Newton step on erf(q / sqrt(2)) = level, from the normal
    quantile of that sum, restores full relative precision.
    """
    if not 0.0 < level < 1.0:
        raise ConfigurationError("level must lie strictly between 0 and 1")
    upper = 0.5 + level / 2.0
    if upper == 1.0:
        raise ConfigurationError(f"level {level!r} is too close to 1 for a finite quantile")
    if upper == 0.5:
        raise ConfigurationError(f"level {level!r} is too close to 0 for a nonzero quantile")
    q = NormalDist().inv_cdf(upper)
    if level < 0.5:
        # d/dq erf(q / sqrt(2)) = sqrt(2 / pi) exp(-q^2 / 2)
        slope = math.sqrt(2.0 / math.pi) * math.exp(-0.5 * q * q)
        q -= (math.erf(q / math.sqrt(2.0)) - level) / slope
    return q


def exact_ball_radius(
    system: PosteriorSystem, epsilon: float, beta: float, level: float
) -> float:
    """Radius of the level credible ball about the posterior mean at noise level
    epsilon, in the dual norm of smoothness beta.

    The squared distance of a posterior draw from the mean is a Gaussian
    quadratic form with the weighted spectrum of the covariance as weights, so
    the radius is the square root of its exact quantile; it needs the system
    and the noise level, and not the data.
    """
    if beta < 0:
        raise ConfigurationError("ball norms use beta >= 0")
    weights = system.prior.basis.sobolev_weights(-beta)
    spectrum = system.weighted_spectrum(weights, epsilon)
    if not np.any(spectrum > 0):
        raise ConfigurationError(
            f"key 'ball_beta': the weighted posterior spectrum at epsilon={epsilon!r} "
            f"underflows to 0 at ball_beta={beta!r}"
        )
    return math.sqrt(quadratic_form_quantile(spectrum, level))
