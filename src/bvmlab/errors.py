"""Exception hierarchy shared by all bvmlab modules.

The CLI maps these onto exit codes: configuration 1, numerical 2,
rare-event 3, ill-posedness 4.
"""
from contextlib import contextmanager
from typing import Iterator


class BvmlabError(Exception):
    """Base class for all bvmlab errors."""


class ConfigurationError(BvmlabError):
    """Invalid parameter, option, or precondition violation."""


class ShapeError(ConfigurationError):
    """Mismatched bases, lengths, or array shapes."""


class NumericalError(BvmlabError):
    """Linear-algebra failure: singular system, PSD defect, lost agreement."""


class RareEventError(BvmlabError):
    """Monte Carlo estimate refused: too few hits for a reliable answer."""


class IllPosedError(BvmlabError):
    """Requested inversion exceeds the numerically resolvable range."""


@contextmanager
def _keyed(*keys: str) -> Iterator[None]:
    """Name ``keys`` in a configuration error that the library raises in the block."""
    names = "/".join(f"'{key}'" for key in keys)
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(f"key{'s' * (len(keys) > 1)} {names}: {exc}") from exc
