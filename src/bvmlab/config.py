"""Flat key=value experiment configuration with section prefixes.

``ExperimentConfig`` is the only description of the keys: each field is one
key, spelled as the key with its section dot replaced by ``_``
(``operator.time`` is the field ``operator_time``), parsed by its
annotation, and listed in field order.  Unknown keys are rejected by name;
defaults are applied at parse time and echoed into every output file's
metadata block.  Settings derived from the keys are the config's properties.
``validate`` checks each key's own range and the keys' compatibility: first
what every experiment needs, then what the experiment's record in
``experiments.EXPERIMENTS`` checks.  The library's limits are met where the
run is built, by ``cli.build_context``, which names the key each builder reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import ConfigurationError, _keyed
from .experiments import EXPERIMENTS, _check_bump, _format_value
from .operators import EllipticCoefficient
from .posterior import two_sided_quantile
from .spectral import (
    BasisKind,
    CoeffVector,
    SpectralBasis,
    analyze,
    coeff_vector,
    make_bump,
    sobolev_draw,
)

__all__ = ["ExperimentConfig", "parse_config", "resolved_items"]

DEFAULT_EPSILONS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)

OPERATOR_KINDS = ("psido", "bvp", "heat")
TRUTH_KINDS = ("bump", "sobolev", "modes")
FUNCTIONAL_KINDS = ("smoothed_image", "mode", "heat_mode", "sobolev")


def _parse_list(text: str, item=float) -> tuple:
    """Comma-separated items: an empty value is the empty list, an empty item an error."""
    parts = text.split(",") if text else []
    if not all(part.strip() for part in parts):
        raise ValueError("empty list item")
    return tuple(map(item, parts))


def _parse_pair(text: str) -> tuple[float, float]:
    parts = _parse_list(text)
    if len(parts) != 2:
        raise ValueError("expected two comma-separated numbers")
    return parts  # type: ignore[return-value]


# field annotation -> parser of a key's text
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "Optional[float]": float,
    "tuple[float, ...]": _parse_list,
    "tuple[int, ...]": lambda text: _parse_list(text, int),
    "tuple[float, float]": _parse_pair,
}

_SECTIONS = ("operator", "prior", "truth", "functional", "tightness", "concentration")


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description (defaults applied)."""

    experiment: str = "coverage"
    n_modes: int = 256
    oversample: int = 8
    master_seed: int = 0
    output_path: str = "results.csv"
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    n_replicates: int = 100
    level: float = 0.95
    ball_beta: Optional[float] = None
    operator_kind: str = "bvp"
    operator_t: float = 2.0
    operator_time: float = 0.1
    operator_coefficient: str = "constant"
    operator_coefficient_base: float = 1.0
    operator_coefficient_amplitude: float = 0.5
    prior_r: float = 1.0
    prior_amplitude: float = 1.0
    truth_kind: str = "bump"
    truth_support: tuple[float, float] = (0.2, 0.7)
    truth_plateau: tuple[float, float] = (0.35, 0.55)
    truth_scale: float = 1.0
    truth_alpha: float = 2.0
    truth_seed: int = 3
    truth_modes: tuple[int, ...] = (1,)
    truth_values: tuple[float, ...] = (1.0,)
    functional_kind: str = "smoothed_image"
    functional_support: tuple[float, float] = (0.02, 0.98)
    functional_plateau: tuple[float, float] = (0.10, 0.90)
    functional_sine: int = 2
    functional_band: int = 64
    functional_mode: int = 1
    functional_alpha: float = 5.0
    functional_seed: int = 12
    tightness_beta: float = 3.5
    tightness_max_modes: int = 400
    concentration_deltas: tuple[float, ...] = (0.5, 0.35, 0.25, 0.18)
    concentration_mc_samples: int = 100_000

    @property
    def basis_kind(self) -> BasisKind:
        """The torus for the smoothing multiplier, the Dirichlet sine basis otherwise."""
        kind = self.operator_kind
        return BasisKind.FOURIER_TORUS if kind == "psido" else BasisKind.DIRICHLET_SINE

    @property
    def torus_modes(self) -> int:
        """Mode count of conjugacy's torus: n_modes, raised to odd."""
        return self.n_modes | 1

    @property
    def coefficient(self) -> EllipticCoefficient:
        """The elliptic operator's diffusion coefficient.  The sine's floor is
        half its least value base - |swing|; the constant keeps the default."""
        base, amplitude = self.operator_coefficient_base, self.operator_coefficient_amplitude
        if self.operator_coefficient == "constant":
            return EllipticCoefficient(lambda x: base * np.ones_like(x))
        return EllipticCoefficient(
            lambda x: base + amplitude * np.sin(2 * np.pi * x),
            floor=(base - abs(amplitude)) / 2,
        )

    @property
    def ambient_exponent(self) -> float:
        """Sobolev exponent of the weak norm the forward map is measured in:
        H^{-t} for the order-t multiplier, H^{-2} for the elliptic solution
        map, L^2 for the heat semigroup."""
        if self.operator_kind == "psido":
            return -self.operator_t
        return -2.0 if self.operator_kind == "bvp" else 0.0

    def truth(self, basis: SpectralBasis) -> CoeffVector:
        """The configured truth on ``basis``: its shape times truth.scale.

        Only a Sobolev shape can leave the double range (at an extreme alpha),
        and then the scale can take a finite shape out of it; each refusal
        names its key."""
        with np.errstate(over="ignore", invalid="ignore"):
            with _keyed("truth.alpha"):
                shape = self._truth_shape(basis)
            with _keyed("truth.scale"):
                return coeff_vector(basis, self.truth_scale * shape)

    def _truth_shape(self, basis: SpectralBasis) -> np.ndarray:
        """The bump, the unit-norm Sobolev draw or the listed modes, unscaled."""
        if self.truth_kind == "bump":
            zeta = make_bump(self.truth_support, self.truth_plateau)
            return analyze(zeta(basis.grid), basis).coeffs
        if self.truth_kind == "sobolev":
            return sobolev_draw(basis, self.truth_alpha, self.truth_seed).coeffs
        coeffs = np.zeros(basis.n_modes)
        for mode, value in zip(self.truth_modes, self.truth_values):
            coeffs[mode - 1] = value
        return coeffs

    def validate(self) -> None:
        """Check each key's own range and the keys' compatibility, the
        experiment's own checks last; build nothing."""
        for key, (attr, _) in _KEY_TABLE.items():
            value = getattr(self, attr)
            values = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(v) for v in values if isinstance(v, float)):
                raise ConfigurationError(
                    f"key '{key}': values must be finite, got {_format_value(value)}"
                )
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"key 'experiment': unknown experiment {self.experiment!r}; "
                f"choose from {', '.join(EXPERIMENTS)}"
            )
        if self.operator_kind not in OPERATOR_KINDS:
            raise ConfigurationError(
                f"key 'operator.kind': unknown operator {self.operator_kind!r}"
            )
        if self.truth_kind not in TRUTH_KINDS:
            raise ConfigurationError(f"key 'truth.kind': unknown truth {self.truth_kind!r}")
        if self.functional_kind not in FUNCTIONAL_KINDS:
            raise ConfigurationError(
                f"key 'functional.kind': unknown functional {self.functional_kind!r}"
            )
        if self.n_modes < 1:
            raise ConfigurationError("key 'n_modes': must be a positive integer")
        if self.operator_kind == "psido" and self.n_modes % 2 == 0:
            raise ConfigurationError(
                "key 'n_modes': the torus basis needs an odd mode count"
            )
        # every seed is derived from the master seed as one 64-bit word
        if not 0 <= self.master_seed < 2**64:
            raise ConfigurationError(
                f"key 'master_seed': must lie in 0..2**64 - 1, got {self.master_seed}"
            )
        if self.oversample < 4:
            raise ConfigurationError("key 'oversample': must be at least 4")
        with _keyed("level"):
            two_sided_quantile(self.level)
        if not self.epsilons or any(e <= 0 for e in self.epsilons):
            raise ConfigurationError("key 'epsilons': need a nonempty list of positive values")
        if self.n_replicates < 1:
            raise ConfigurationError("key 'n_replicates': must be a positive integer")
        if self.ball_beta is not None and self.ball_beta < 0:
            raise ConfigurationError("key 'ball_beta': must be nonnegative")
        if self.operator_kind == "bvp":
            self._check_coefficient()
        experiment = EXPERIMENTS[self.experiment]
        if experiment.reads_truth:
            self._check_truth(experiment.basis_modes(self)[0])
        experiment.check(self)

    def _check_coefficient(self) -> None:
        coefficient, base = self.operator_coefficient, self.operator_coefficient_base
        if coefficient not in ("constant", "sine"):
            raise ConfigurationError(
                f"key 'operator.coefficient': unknown coefficient {coefficient!r}"
            )
        if coefficient == "sine" and 0 < base <= abs(self.operator_coefficient_amplitude):
            raise ConfigurationError(
                "key 'operator.coefficient_amplitude': sine swing must stay below the base "
                "(uniform ellipticity)"
            )

    def _check_truth(self, n_modes: int) -> None:
        if self.truth_kind == "bump":
            _check_bump("truth", self.truth_support, self.truth_plateau)
        modes = self.truth_modes
        if self.truth_kind == "modes" and len(modes) != len(self.truth_values):
            raise ConfigurationError(
                "keys 'truth.modes'/'truth.values': lists must have equal length"
            )
        if self.truth_kind == "modes" and len(set(modes)) != len(modes):
            raise ConfigurationError(
                f"key 'truth.modes': modes must be distinct, got {_format_value(modes)}"
            )
        if self.truth_kind == "modes" and not all(1 <= m <= n_modes for m in modes):
            raise ConfigurationError(
                f"key 'truth.modes': modes must lie in 1..{n_modes}, "
                f"got {_format_value(modes)}"
            )
        # a Sobolev draw seeds NumPy's generator, which takes no negative seed
        if self.truth_kind == "sobolev" and self.truth_seed < 0:
            raise ConfigurationError(
                f"key 'truth.seed': must be nonnegative, got {self.truth_seed}"
            )


def _key(attr: str) -> str:
    section, _, rest = attr.partition("_")
    return f"{section}.{rest}" if section in _SECTIONS else attr


# key -> (attribute, parser), in field order
_KEY_TABLE = {
    _key(field.name): (field.name, _PARSERS[field.type]) for field in fields(ExperimentConfig)
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a key=value configuration document and check its keys' ranges.

    Nothing is built: a limit of the library (a prior variance that
    underflows, a functional the basis cannot hold) is met by
    ``cli.build_context``, which names its key."""
    config = ExperimentConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_TABLE:
            raise ConfigurationError(f"line {lineno}: unknown configuration key '{key}'")
        if key in seen:
            raise ConfigurationError(f"line {lineno}: duplicate configuration key '{key}'")
        seen.add(key)
        attr, parser = _KEY_TABLE[key]
        try:
            setattr(config, attr, parser(value))
        except (ValueError, TypeError) as exc:
            raise ConfigurationError(
                f"line {lineno}: key '{key}': cannot parse {value!r} ({exc})"
            ) from exc
    config.validate()
    return config


def resolved_items(config: ExperimentConfig) -> list[tuple[str, str]]:
    """Every configuration key with its resolved (post-default) value."""
    items = []
    for key, (attr, _) in _KEY_TABLE.items():
        value = getattr(config, attr)
        if value is None:
            continue
        items.append((key, _format_value(value)))
    return items
