"""Exact conjugate Gaussian posterior for the linear white-noise model, with
an independently coded Tikhonov minimiser as cross-check, variances of linear
functionals, and exact dual-norm credible-ball radii.

The posterior is the Gaussian law with mean K M and covariance R R^T, and
neither the gain K nor the sampling root R depends on the data:
``posterior_factor`` computes them once per noise level, and its
``update_block`` turns a block of data vectors into posterior means with one
matrix-vector product per row.  A dense operator costs one singular value
decomposition of the whitened operator per noise level, and the covariance
R R^T is positive semidefinite by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError
from .operators import ForwardOperator, apply
from .priors import GaussianPrior, quadratic_form_quantile
from .spectral import CoeffVector, SpectralBasis, coeff_vector

__all__ = [
    "Observation",
    "PosteriorFactor",
    "noise_draw",
    "noise_block",
    "observe",
    "posterior_factor",
    "posterior_update",
    "tikhonov_solve",
    "two_sided_quantile",
    "exact_ball_radius",
]

@dataclass(frozen=True)
class Observation:
    """Noisy measurement M = A f + eps * w, with its noise seed when it was simulated."""

    data: CoeffVector
    epsilon: float
    noise_seed: Optional[int] = None

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigurationError("noise level epsilon must be positive and finite")


def noise_block(basis: SpectralBasis, seeds: Sequence[int]) -> np.ndarray:
    """White-noise realisations, one row per seed: row r holds the iid standard
    normal coefficients of ``default_rng(seeds[r])``, shape (len(seeds), n_modes)."""
    block = np.empty((len(seeds), basis.n_modes))
    for row, seed in zip(block, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    return block


def noise_draw(basis: SpectralBasis, seed: int) -> CoeffVector:
    """White-noise realisation: iid standard normal coefficients."""
    return coeff_vector(basis, noise_block(basis, (seed,))[0])


def observe(
    op: ForwardOperator, f_dagger: CoeffVector, epsilon: float, seed: int
) -> Observation:
    """Simulate one measurement from the fixed truth with a seeded noise draw."""
    w = noise_draw(op.basis, seed)
    data = coeff_vector(op.basis, apply(op, f_dagger).coeffs + epsilon * w.coeffs)
    return Observation(data=data, epsilon=epsilon, noise_seed=seed)


@dataclass(frozen=True, eq=False)
class PosteriorFactor:
    """Data-independent part of the conjugate posterior for one (prior, operator, epsilon).

    Under white noise the gain K = S A^T (A S A^T + eps^2 I)^{-1} and the
    posterior covariance depend only on the prior, the operator and the noise
    level, so one factor serves every data vector M: the posterior mean is K M.
    ``root`` maps standard normal vectors to centred posterior draws, so the
    covariance is R R^T.  Diagonal operators keep per-mode vectors (the gains
    and the standard deviations), dense ones full matrices.
    """

    prior: GaussianPrior
    operator: ForwardOperator
    epsilon: float
    gain: np.ndarray
    root: np.ndarray

    def __post_init__(self):
        for name in ("gain", "root"):
            array = getattr(self, name)
            if array.flags.writeable:
                frozen = array.copy()
                frozen.flags.writeable = False
                object.__setattr__(self, name, frozen)

    @property
    def is_diagonal(self) -> bool:
        return self.root.ndim == 1

    def centred_draws(self, z: np.ndarray) -> np.ndarray:
        """Map standard normal vectors (the last axis of ``z``) to centred posterior draws."""
        if self.is_diagonal:
            return z * self.root
        return z @ self.root.T

    def weighted_spectrum(self, weights: np.ndarray) -> np.ndarray:
        """Eigenvalues mu of W^{1/2} R R^T W^{1/2} for W = diag(weights).

        A centred draw f has sum_j weights_j f_j^2 distributed as
        sum_k mu_k Z_k^2 with Z iid standard normal.  Dense path: the squared
        singular values of W^{1/2} R, one singular value decomposition.
        """
        if self.is_diagonal:
            return weights * self.root**2
        try:
            s = np.linalg.svd(np.sqrt(weights)[:, None] * self.root, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"weighted posterior spectrum singular value decomposition (svd) failed: {exc}"
            ) from exc
        return s**2

    def functional_variance(self, psi: CoeffVector) -> float:
        """Posterior variance |R^T psi|^2 of the functional <f, psi>; data-independent."""
        if not self.prior.basis.compatible(psi.basis):
            raise ShapeError("functional lives on a different basis than the posterior")
        if self.is_diagonal:
            spread = self.root * psi.coeffs
        else:
            spread = psi.coeffs @ self.root
        return float(np.dot(spread, spread))

    def update_block(self, data: np.ndarray) -> np.ndarray:
        """Posterior means K M for data vectors along the last axis of ``data``.

        Each row is computed on its own (an elementwise product, or one
        matrix-vector product per row), so a row's mean is bitwise the same
        in any block; a matrix-matrix product would not guarantee that.
        """
        if data.shape[-1] != self.prior.basis.n_modes:
            raise ShapeError(
                f"expected data with {self.prior.basis.n_modes} coefficients, "
                f"got shape {data.shape}"
            )
        if self.is_diagonal:
            return self.gain * data
        return np.matmul(self.gain, data[..., None])[..., 0]

    def update(self, data: CoeffVector) -> CoeffVector:
        """Posterior mean K M for one data vector M; the covariance R R^T does not depend on M."""
        if not self.prior.basis.compatible(data.basis):
            raise ShapeError("data live on a different basis than the posterior")
        return coeff_vector(self.prior.basis, self.update_block(data.coeffs))


def _check_compatible(prior: GaussianPrior, op: ForwardOperator, obs: Observation) -> None:
    if not (prior.basis.compatible(op.basis) and op.basis.compatible(obs.data.basis)):
        raise ShapeError("prior, operator, and observation must share one basis")


def posterior_factor(
    prior: GaussianPrior, op: ForwardOperator, epsilon: float
) -> PosteriorFactor:
    """Gain and sampling root of the conjugate update at noise level epsilon.

    Diagonal path: per-mode formulas.  Dense path: with S the prior covariance
    and the singular system B = A S^{1/2} / eps = U diag(s) V^T of the whitened
    operator, W = S^{1/2} V gives the root R = W diag((1 + s^2)^{-1/2}), the
    covariance R R^T = (A^T A / eps^2 + S^{-1})^{-1} and the gain
    K = W diag(s / (1 + s^2)) U^T / eps.
    """
    if not prior.basis.compatible(op.basis):
        raise ShapeError("prior and operator must share one basis")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ConfigurationError("noise level epsilon must be positive and finite")
    tau = prior.variances
    if op.is_diagonal:
        eps2 = epsilon**2
        a = op.multipliers
        denom = a**2 * tau + eps2
        return PosteriorFactor(
            prior=prior,
            operator=op,
            epsilon=epsilon,
            gain=tau * a / denom,
            root=np.sqrt(eps2 * tau / denom),
        )
    prior_sd = np.sqrt(tau)
    try:
        u, s, vt = np.linalg.svd(op.matrix * (prior_sd / epsilon)[None, :])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"posterior factor singular value decomposition (svd) failed: {exc}"
        ) from exc
    w = prior_sd[:, None] * vt.T
    shrink = 1.0 + s**2
    return PosteriorFactor(
        prior=prior,
        operator=op,
        epsilon=epsilon,
        gain=(w * (s / shrink)) @ u.T / epsilon,
        root=w / np.sqrt(shrink),
    )


def posterior_update(
    prior: GaussianPrior, op: ForwardOperator, obs: Observation
) -> CoeffVector:
    """Closed-form conjugate posterior mean: ``posterior_factor`` applied to the observed data."""
    return posterior_factor(prior, op, obs.epsilon).update(obs.data)


def tikhonov_solve(
    prior: GaussianPrior, op: ForwardOperator, obs: Observation
) -> CoeffVector:
    """Minimise the penalised data-misfit functional by parameter-space normal equations.

    Deliberately a different factorization than ``posterior_update`` - solving
    (A^T A / eps^2 + S^{-1}) f = A^T M / eps^2 densely even for diagonal
    operators - so agreement with the posterior mean is a genuine cross-check.
    """
    _check_compatible(prior, op, obs)
    eps2 = obs.epsilon**2
    if op.is_diagonal:
        amat = np.diag(op.multipliers)
    else:
        amat = op.matrix
    hess = amat.T @ amat / eps2 + np.diag(1.0 / prior.variances)
    rhs = amat.T @ obs.data.coeffs / eps2
    try:
        # the Cholesky factor is only the positive-definiteness gate
        np.linalg.cholesky(hess)
        solution = np.linalg.solve(hess, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"normal-equation solve failed: {exc}") from exc
    return coeff_vector(prior.basis, solution)


def two_sided_quantile(level: float) -> float:
    """q with P(|Z| <= q) = level for standard normal Z."""
    if not 0.0 < level < 1.0:
        raise ConfigurationError("level must lie strictly between 0 and 1")
    upper = 0.5 + level / 2.0
    if upper == 1.0:
        raise ConfigurationError(f"level {level!r} is too close to 1 for a finite quantile")
    return NormalDist().inv_cdf(upper)


def exact_ball_radius(factor: PosteriorFactor, beta: float, level: float) -> float:
    """Radius of the level credible ball about the posterior mean, in the dual norm of
    smoothness beta.

    The squared distance of a posterior draw from the mean is a Gaussian
    quadratic form with the weighted spectrum of the covariance as weights, so
    the radius is the square root of its exact quantile; it needs the factor
    and not the data.
    """
    if beta < 0:
        raise ConfigurationError("ball norms use beta >= 0")
    weights = (1.0 + factor.prior.basis.eigenvalues) ** (-beta)
    return math.sqrt(quadratic_form_quantile(factor.weighted_spectrum(weights), level))
