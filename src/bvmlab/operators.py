"""Forward maps: smoothing multiplier on the torus, elliptic solution
operator on the interval, heat semigroup, with adjoints and inversion of the
normal operator A*A.

Only this module reads how a map is stored: a vector is a diagonal map and
a matrix a dense one.  Operators are immutable and cache nothing; every
singular value decomposition of a stored map runs here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Linear forward map in the spectral basis, stored as one finite array: a
    vector of multipliers is a diagonal map, an n x n matrix a dense one.

    ``companion`` links the elliptic differential operator and its solution
    map to each other.
    """

    basis: SpectralBasis
    array: np.ndarray
    companion: Optional["ForwardOperator"] = None

    def __post_init__(self):
        a = np.array(self.array, dtype=float, copy=True)
        n = self.basis.n_modes
        if a.shape not in ((n,), (n, n)):
            raise ShapeError(f"a map over {n} modes has shape ({n},) or ({n}, {n}), not {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ConfigurationError("the forward map's entries must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    @property
    def is_diagonal(self) -> bool:
        return self.array.ndim == 1

    @property
    def multipliers(self) -> Optional[np.ndarray]:
        """The stored vector of a diagonal map, else None."""
        return self.array if self.is_diagonal else None

    @property
    def matrix(self) -> Optional[np.ndarray]:
        """The stored matrix of a dense map, else None."""
        return None if self.is_diagonal else self.array


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
        mult = basis.sobolev_weights(-t / 2.0)
    if not np.all((mult > 0) & (mult < math.inf)):
        raise ConfigurationError(f"order t={t!r} takes a multiplier to 0 or inf")
    return ForwardOperator(basis, mult)


def elliptic_operator(
    coeff: EllipticCoefficient, basis: SpectralBasis
) -> tuple[ForwardOperator, ForwardOperator]:
    """Assemble the divergence-form operator L and its solution map L^-1.

    The Galerkin entries, quadratures of a(x) phi_i'(x) phi_j'(x), are
    pi^2 i j (a_{|i-j|} + a_{i+j}) in the cosine moments a_k of the coefficient
    (exactly symmetric); a constant coefficient collapses both operators to
    exact diagonals.  Each map is assembled under ``np.errstate`` and passes the
    forward map's finite check, so a coefficient whose entries leave the double
    range is refused before any factorisation.  Returns ``(L, L_inv)`` linked
    as companions.
    """
    if basis.kind is not BasisKind.DIRICHLET_SINE:
        raise ConfigurationError("the elliptic solution operator is defined on the Dirichlet basis")
    avals = coeff.samples(basis.grid)
    # an entry past the double range is refused by the forward map's own check
    with np.errstate(over="ignore", invalid="ignore"):
        if np.ptp(avals) == 0.0:
            array = avals[0] * basis.eigenvalues
        else:
            j = np.arange(1, basis.n_modes + 1)
            moments = fourier_moments(avals, basis, 2 * basis.n_modes + 1).real
            array = np.pi**2 * np.outer(j, j) * (
                moments[np.abs(j[:, None] - j)] + moments[j[:, None] + j]
            )
    fwd = ForwardOperator(basis, array)
    del array
    if fwd.is_diagonal:
        with np.errstate(over="ignore", divide="ignore"):
            inv_array = 1.0 / fwd.array
    else:
        try:
            chol_inv = np.linalg.inv(np.linalg.cholesky(fwd.array))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Galerkin matrix is numerically singular: {exc}") from exc
        # L = C C^T, so L^{-1} = C^{-T} C^{-1}
        inv_array = chol_inv.T @ chol_inv
        del chol_inv
        inv_array += inv_array.T
        inv_array *= 0.5
    inv = ForwardOperator(basis, inv_array, companion=fwd)
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
    return ForwardOperator(basis, mult)


def _map_rows(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``matrix @ row`` for every row along the last axis of ``rows``: elementwise
    for a vector, which is a diagonal map, and one matrix-vector product per row
    for a matrix, so a row's result is bitwise the same in any block."""
    if matrix.ndim == 1:
        return matrix * rows
    return np.matmul(matrix, rows[..., None])[..., 0]


def _dense(matrix: np.ndarray) -> np.ndarray:
    """The n x n matrix of a stored map: a vector is a diagonal map."""
    return np.diag(matrix) if matrix.ndim == 1 else matrix


def _svd(matrix: np.ndarray, stage: str, compute_uv: bool = True):
    """``np.linalg.svd`` of a matrix, whose failure raises NumericalError naming ``stage``."""
    try:
        return np.linalg.svd(matrix, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{stage} singular value decomposition (svd) failed: {exc}") from exc


def _singular_system(matrix: np.ndarray, stage: str) -> tuple[np.ndarray, ...]:
    """U^T, s and V^T of a stored map M = U diag(s) V^T.  A vector is a diagonal
    map: s is the vector itself and U = V = I, kept as vectors of ones."""
    if matrix.ndim == 1:
        return np.ones_like(matrix), matrix, np.ones_like(matrix)
    u, s, vt = _svd(matrix, stage)
    return u.T, s, vt


def _singular_squares(d: np.ndarray, m: np.ndarray, r: np.ndarray, stage: str) -> np.ndarray:
    """Squared singular values of diag(d)^{1/2} M diag(r) for a stored map M:
    elementwise for a vector, one values-only decomposition for a matrix."""
    if m.ndim == 1:
        return d * (m * r) ** 2
    scaled = np.sqrt(d)[:, None] * m
    scaled *= r
    return _svd(scaled, stage, compute_uv=False) ** 2


def _check_basis(op: ForwardOperator, f: CoeffVector) -> None:
    if not op.basis.compatible(f.basis):
        raise ShapeError("operator and coefficient vector live on different bases")


def apply(op: ForwardOperator, f: CoeffVector) -> CoeffVector:
    """Forward action A f."""
    _check_basis(op, f)
    return coeff_vector(op.basis, _map_rows(op.array, f.coeffs))


def adjoint_apply(op: ForwardOperator, g: CoeffVector) -> CoeffVector:
    """Adjoint action A* g (transpose action for the dense representation)."""
    _check_basis(op, g)
    return coeff_vector(op.basis, _map_rows(op.array.T, g.coeffs))


def normal_apply(op: ForwardOperator, f: CoeffVector) -> CoeffVector:
    """Action of the normal operator A*A."""
    return adjoint_apply(op, apply(op, f))


def fisher_solve(
    op: ForwardOperator, psi: CoeffVector, cond_limit: float = DEFAULT_COND_LIMIT
) -> CoeffVector:
    """Solve A*A x = psi, refusing when the normal operator is too ill-conditioned
    on the singular modes psi occupies.

    With A = U diag(s) V^T (V = I for a diagonal map), decomposed on each call,
    psi occupies the modes where V^T psi is nonzero.  A largest s^2 that
    overflows raises ``NumericalError``; a condition (largest s^2 over least
    occupied s^2) above ``cond_limit``, or an occupied s = 0, raises
    ``IllPosedError``.  The solution V ((V^T psi) / s^2) has an error that
    scales with cond(A), not cond(A^T A).
    """
    _check_basis(op, psi)
    if cond_limit <= 0:
        raise ConfigurationError("cond_limit must be positive")
    _, s, vt = _singular_system(op.array, "forward operator")
    coef = _map_rows(vt, psi.coeffs)
    occupied = coef != 0.0
    # an overflowing quotient, and the nan it leaves in a dense product, are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        squared = s**2
        s_best = float(squared.max())
        # an eigenvalue of A^T A at inf would zero its mode of the solution
        if not s_best < math.inf:
            raise NumericalError(
                f"the normal operator's largest eigenvalue, {float(np.abs(s).max()):.3g} "
                "squared, overflows"
            )
        # psi = 0 occupies no mode: condition 0 and solution 0
        s_worst = float(np.min(squared[occupied], initial=math.inf))
        cond = math.inf if s_worst == 0.0 else s_best / s_worst
        if cond > cond_limit:
            raise IllPosedError(
                f"normal operator condition {cond:.3g} over the modes psi occupies "
                f"exceeds limit {cond_limit:.3g}"
            )
        modes = np.zeros(op.basis.n_modes)
        modes[occupied] = coef[occupied] / squared[occupied]
        solution = _map_rows(vt.T, modes)
    if not np.all(np.isfinite(solution)):
        raise NumericalError("the solution of A*A x = psi overflows the double range")
    return coeff_vector(op.basis, solution)


def embedding_constant(op: ForwardOperator, ambient_exponent: float) -> float:
    """Calibrated constant c with ||A f|| <= c * ||f|| in the smoothness-``ambient_exponent`` norm.

    Computed as the operator norm of A composed with the inverse weight map,
    exact for diagonal operators.  A constant that leaves the double range is
    refused.
    """
    with np.errstate(over="ignore"):
        half_inverse_weights = op.basis.sobolev_weights(-ambient_exponent / 2.0)
        scaled = op.array * half_inverse_weights
        if scaled.ndim == 1:
            c = float(np.max(np.abs(scaled)))
        else:
            c = float(_svd(scaled, "embedding constant", compute_uv=False)[0])
    if not c < math.inf:
        raise ConfigurationError(
            f"the embedding constant is {c!r}: the weak-norm bound leaves the double range"
        )
    return c
