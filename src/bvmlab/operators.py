"""Forward maps: smoothing multiplier on the torus, elliptic solution
operator on the interval, heat semigroup, with adjoints and inversion of the
normal operator A*A.

Operators are immutable; a dense operator's singular value decomposition is
computed once and cached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, IllPosedError, NumericalError, ShapeError
from .spectral import BasisKind, CoeffVector, SpectralBasis, coeff_vector, fourier_moments

__all__ = [
    "ForwardOperator",
    "EllipticCoefficient",
    "psido_multiplier",
    "elliptic_operator",
    "heat_semigroup",
    "apply",
    "adjoint_apply",
    "normal_apply",
    "fisher_solve",
    "embedding_constant",
]

# multipliers below this are stored as exact zeros
UNDERFLOW_FLOOR = 1e-300

DEFAULT_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class ForwardOperator:
    """Linear forward map in the spectral basis: diagonal multipliers or a dense matrix.

    ``companion`` links the elliptic differential operator and its solution
    map to each other.
    """

    basis: SpectralBasis
    multipliers: Optional[np.ndarray] = None
    matrix: Optional[np.ndarray] = None
    companion: Optional["ForwardOperator"] = None

    def __post_init__(self):
        if (self.multipliers is None) == (self.matrix is None):
            raise ConfigurationError("exactly one of multipliers/matrix must be given")
        if self.multipliers is not None:
            m = np.array(self.multipliers, dtype=float, copy=True)
            if m.shape != (self.basis.n_modes,):
                raise ShapeError("multiplier count does not match the basis")
            if not np.all(np.isfinite(m)):
                raise ConfigurationError("multipliers must be finite")
            m.flags.writeable = False
            object.__setattr__(self, "multipliers", m)
        else:
            a = np.array(self.matrix, dtype=float, copy=True)
            n = self.basis.n_modes
            if a.shape != (n, n):
                raise ShapeError("matrix must be square over the basis modes")
            a.flags.writeable = False
            object.__setattr__(self, "matrix", a)

    @property
    def is_diagonal(self) -> bool:
        return self.multipliers is not None

    @cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray]:
        # singular values (descending) and right singular vectors V^T of the
        # dense representation; A^T A = V diag(s^2) V^T
        try:
            _, s, vt = np.linalg.svd(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"forward operator singular value decomposition (svd) failed: {exc}"
            ) from exc
        return s, vt


@dataclass(frozen=True)
class EllipticCoefficient:
    """Scalar diffusion coefficient a(x) on [0,1] with a uniform ellipticity floor."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    floor: float = 1e-6

    def __post_init__(self):
        if self.floor <= 0:
            raise ConfigurationError("ellipticity floor must be positive")

    def samples(self, grid: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.evaluator(grid), dtype=float) * np.ones_like(grid)
        # np.linalg.cholesky passes NaN through, so the Galerkin gate cannot catch it
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("coefficient must be finite on the grid")
        if vals.min() < self.floor:
            raise ConfigurationError(
                f"coefficient dips to {vals.min():.3g}, below the ellipticity floor {self.floor:.3g}"
            )
        return vals


def psido_multiplier(basis: SpectralBasis, t: float) -> ForwardOperator:
    """Order-t smoothing multiplier (1 + k^2)^(-t/2) on the torus; t = 0 is the identity.

    An order that takes a multiplier to 0 or inf is refused."""
    if basis.kind is not BasisKind.FOURIER_TORUS:
        raise ConfigurationError("the smoothing multiplier is defined on the torus basis")
    with np.errstate(over="ignore"):
        mult = (1.0 + basis.eigenvalues) ** (-t / 2.0)
    if not np.all((mult > 0) & (mult < math.inf)):
        raise ConfigurationError(f"order t={t!r} takes a multiplier to 0 or inf")
    return ForwardOperator(basis=basis, multipliers=mult)


def elliptic_operator(
    coeff: EllipticCoefficient, basis: SpectralBasis
) -> tuple[ForwardOperator, ForwardOperator]:
    """Assemble the divergence-form operator L and its solution map L^-1.

    The Galerkin entries, quadratures of a(x) phi_i'(x) phi_j'(x), are
    pi^2 i j (a_{|i-j|} + a_{i+j}) in the cosine moments a_k of the coefficient
    (exactly symmetric); a constant coefficient collapses both operators to
    exact diagonals.  Returns ``(L, L_inv)`` linked as companions.
    """
    if basis.kind is not BasisKind.DIRICHLET_SINE:
        raise ConfigurationError("the elliptic solution operator is defined on the Dirichlet basis")
    avals = coeff.samples(basis.grid)
    if np.ptp(avals) == 0.0:
        lam = avals[0] * basis.eigenvalues
        fwd = ForwardOperator(basis=basis, multipliers=lam)
        inv = ForwardOperator(basis=basis, multipliers=1.0 / lam, companion=fwd)
        object.__setattr__(fwd, "companion", inv)
        return fwd, inv
    j = np.arange(1, basis.n_modes + 1)
    moments = fourier_moments(avals, basis, 2 * basis.n_modes + 1).real
    mat = np.pi**2 * np.outer(j, j) * (moments[np.abs(j[:, None] - j)] + moments[j[:, None] + j])
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(mat))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Galerkin matrix is numerically singular: {exc}") from exc
    # mat = C C^T, so mat^{-1} = C^{-T} C^{-1}
    inv_mat = chol_inv.T @ chol_inv
    inv_mat = 0.5 * (inv_mat + inv_mat.T)
    fwd = ForwardOperator(basis=basis, matrix=mat)
    inv = ForwardOperator(basis=basis, matrix=inv_mat, companion=fwd)
    object.__setattr__(fwd, "companion", inv)
    return fwd, inv


def heat_semigroup(basis: SpectralBasis, time_horizon: float) -> ForwardOperator:
    """Diagonal semigroup exp(-lambda_j T); underflowed modes are stored as exact zeros."""
    if basis.kind is not BasisKind.DIRICHLET_SINE:
        raise ConfigurationError("the heat semigroup is defined on the Dirichlet basis")
    if time_horizon < 0:
        raise ConfigurationError("the observation time must be nonnegative")
    with np.errstate(under="ignore"):
        mult = np.exp(-basis.eigenvalues * time_horizon)
    mult[mult < UNDERFLOW_FLOOR] = 0.0
    return ForwardOperator(basis=basis, multipliers=mult)


def _check_basis(op: ForwardOperator, f: CoeffVector) -> None:
    if not op.basis.compatible(f.basis):
        raise ShapeError("operator and coefficient vector live on different bases")


def apply(op: ForwardOperator, f: CoeffVector) -> CoeffVector:
    """Forward action A f."""
    _check_basis(op, f)
    if op.is_diagonal:
        return coeff_vector(op.basis, op.multipliers * f.coeffs)
    return coeff_vector(op.basis, op.matrix @ f.coeffs)


def adjoint_apply(op: ForwardOperator, g: CoeffVector) -> CoeffVector:
    """Adjoint action A* g (transpose action for the dense representation)."""
    _check_basis(op, g)
    if op.is_diagonal:
        return coeff_vector(op.basis, op.multipliers * g.coeffs)
    return coeff_vector(op.basis, op.matrix.T @ g.coeffs)


def normal_apply(op: ForwardOperator, f: CoeffVector) -> CoeffVector:
    """Action of the normal operator A*A."""
    return adjoint_apply(op, apply(op, f))


def fisher_solve(
    op: ForwardOperator, psi: CoeffVector, cond_limit: float = DEFAULT_COND_LIMIT
) -> CoeffVector:
    """Solve A*A x = psi, refusing when the normal operator is too ill-conditioned.

    For diagonal operators the effective condition number is measured over the
    modes psi actually occupies, relative to the best-observed mode; exceeding
    ``cond_limit`` (or touching an underflowed mode) raises ``IllPosedError``.
    Dense operators use their cached singular system A = U diag(s) V^T: the
    condition is (s_max / s_min)^2 (infinite when s_min = 0), and the solution
    V ((V^T psi) / s^2) has an error that scales with cond(A), not cond(A^T A).
    """
    _check_basis(op, psi)
    if cond_limit <= 0:
        raise ConfigurationError("cond_limit must be positive")
    if op.is_diagonal:
        squared = op.multipliers**2
        occupied = psi.coeffs != 0.0
        if not np.any(occupied):
            return coeff_vector(op.basis, np.zeros(op.basis.n_modes))
        s_best = float(squared.max())
        s_worst = float(squared[occupied].min())
        if s_worst == 0.0 or s_best / s_worst > cond_limit:
            raise IllPosedError(
                "requested modes are outside the numerically resolvable range of A*A "
                f"(effective condition {math.inf if s_worst == 0 else s_best / s_worst:.3g} "
                f"> limit {cond_limit:.3g})"
            )
        out = np.zeros(op.basis.n_modes)
        out[occupied] = psi.coeffs[occupied] / squared[occupied]
        return coeff_vector(op.basis, out)
    s, vt = op._svd
    cond = math.inf if s[-1] == 0.0 else float((s[0] / s[-1]) ** 2)
    if cond > cond_limit:
        raise IllPosedError(
            f"normal operator condition {cond:.3g} exceeds limit {cond_limit:.3g}"
        )
    return coeff_vector(op.basis, vt.T @ ((vt @ psi.coeffs) / s**2))


def embedding_constant(op: ForwardOperator, ambient_exponent: float) -> float:
    """Calibrated constant c with ||A f|| <= c * ||f|| in the smoothness-``ambient_exponent`` norm.

    Computed as the operator norm of A composed with the inverse weight map,
    exact for diagonal operators.
    """
    half_inverse_weights = (1.0 + op.basis.eigenvalues) ** (-ambient_exponent / 2.0)
    if op.is_diagonal:
        return float(np.max(np.abs(op.multipliers) * half_inverse_weights))
    return float(np.linalg.norm(op.matrix * half_inverse_weights[None, :], 2))
