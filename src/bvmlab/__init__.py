"""Numerical laboratory for Gaussian-prior linear inverse problems.

Spectral bases, forward operators (smoothing multiplier, elliptic solution
map, heat semigroup), conjugate Gaussian posteriors with Tikhonov
cross-checks, and a Monte Carlo harness measuring the frequentist behaviour
of posterior functionals, credible intervals, and credible balls in the
small-noise limit.
"""

from .errors import (
    BvmlabError,
    ConfigurationError,
    IllPosedError,
    NumericalError,
    RareEventError,
    ShapeError,
)

__version__ = "0.1.0"

__all__ = [
    "BvmlabError",
    "ConfigurationError",
    "IllPosedError",
    "NumericalError",
    "RareEventError",
    "ShapeError",
    "__version__",
]
