"""Flat key=value experiment configuration with section prefixes.

``ExperimentConfig`` is the only description of the keys: each field is one
key, spelled as the key with its section dot replaced by ``_``
(``operator.cond_limit`` is the field ``operator_cond_limit``), parsed by its
annotation, and listed in field order.  Unknown keys are rejected by name;
defaults are applied at parse time and echoed into every output file's
metadata block.  Settings derived from the keys are the config's properties,
and ``validate`` checks each library limit by running the library's own check.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator, Optional

import numpy as np

from .bvm import heat_psi_from_representer
from .errors import ConfigurationError
from .operators import DEFAULT_COND_LIMIT, EllipticCoefficient, psido_multiplier
from .posterior import two_sided_quantile
from .priors import matern_prior
from .spectral import BasisKind, build_basis, unit_vector

__all__ = ["ExperimentConfig", "parse_config", "resolved_items"]

DEFAULT_EPSILONS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)

EXPERIMENTS = ("coverage", "rates", "tightness", "concentration", "conjugacy")
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
    operator_cond_limit: float = DEFAULT_COND_LIMIT
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
    def basis_modes(self) -> int:
        """Mode count of the experiment's basis, which tightness widens to its series."""
        if self.experiment == "tightness":
            return max(self.n_modes, self.tightness_max_modes)
        return self.n_modes

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

    @property
    def reads_truth(self) -> bool:
        """Tightness and conjugacy never read the configured truth."""
        return self.experiment in ("coverage", "rates", "concentration")

    def validate(self) -> None:
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
        # tightness sums the series of the elliptic differential operator
        if self.experiment == "tightness" and self.operator_kind != "bvp":
            raise ConfigurationError(
                f"key 'operator.kind': tightness needs the elliptic operator (bvp), "
                f"got {self.operator_kind!r}"
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
        # the keys above are in range; the library's limits are checked on the run's basis
        basis = build_basis(self.basis_kind, self.basis_modes, self.oversample)
        # every experiment builds the prior; at unit amplitude its variances are
        # the decay alone, so if those fail prior.r is at fault
        key = "prior.amplitude"
        try:
            matern_prior(basis, self.prior_r)
        except ConfigurationError:
            key = "prior.r"
        with _keyed(key):
            matern_prior(basis, self.prior_r, self.prior_amplitude)
        with _keyed("level"):
            two_sided_quantile(self.level)
        if not self.epsilons or any(e <= 0 for e in self.epsilons):
            raise ConfigurationError("key 'epsilons': need a nonempty list of positive values")
        # the posterior squares each noise level, which must stay a positive double
        if self.experiment in ("coverage", "rates") and not all(
            0 < e * e < math.inf for e in self.epsilons
        ):
            raise ConfigurationError(
                f"key 'epsilons': every squared noise level must be a positive finite double, "
                f"got {_format_value(self.epsilons)}"
            )
        if self.n_replicates < 1:
            raise ConfigurationError("key 'n_replicates': must be a positive integer")
        if self.ball_beta is not None and self.ball_beta < 0:
            raise ConfigurationError("key 'ball_beta': must be nonnegative")
        # conjugacy builds all three forward maps, whatever operator.kind says
        conjugacy = self.experiment == "conjugacy"
        if (self.operator_kind == "heat" or conjugacy) and self.operator_time < 0:
            raise ConfigurationError("key 'operator.time': must be nonnegative")
        if self.operator_kind == "psido" or conjugacy:
            torus = build_basis(BasisKind.FOURIER_TORUS, self.torus_modes, self.oversample)
            with _keyed("operator.t"):
                psido_multiplier(torus, self.operator_t)
        if self.operator_kind == "bvp":
            self._check_coefficient(basis.grid)
        if self.reads_truth:
            self._check_truth()
        # replicate rows are gathered per noise level, so a repeated level
        # would count its rows twice
        if self.experiment in ("coverage", "rates") and len(set(self.epsilons)) != len(
            self.epsilons
        ):
            raise ConfigurationError(
                f"key 'epsilons': noise levels must be distinct, got {_format_value(self.epsilons)}"
            )
        if self.experiment == "rates" and self.operator_kind == "heat":
            raise ConfigurationError(
                "key 'experiment': polynomial rate fits are not defined for the heat semigroup"
            )
        if self.experiment == "rates":
            # the rate fit reads these only after every replicate has run
            if len(self.epsilons) < 3:
                raise ConfigurationError(
                    f"key 'epsilons': a rate fit needs at least three noise levels, "
                    f"got {_format_value(self.epsilons)}"
                )
            if self.operator_kind == "psido" and self.operator_t < 0:
                raise ConfigurationError(
                    f"key 'operator.t': a rate needs a smoothing order t >= 0, "
                    f"got {self.operator_t!r}"
                )
            t = -self.ambient_exponent
            if self.truth_alpha < 0 and self.truth_alpha <= -t:
                raise ConfigurationError(
                    f"key 'truth.alpha': a rate needs truth smoothness alpha > -t = {-t!r}, "
                    f"got {self.truth_alpha!r}"
                )
        if self.experiment == "concentration":
            if self.concentration_mc_samples < 1000:
                raise ConfigurationError(
                    "key 'concentration.mc_samples': need at least 1000 samples"
                )
            if not self.concentration_deltas:
                raise ConfigurationError("key 'concentration.deltas': need at least one delta")
            if any(d <= 0 for d in self.concentration_deltas):
                raise ConfigurationError(
                    "key 'concentration.deltas': every delta must be positive"
                )
        if self.experiment == "tightness" and self.tightness_max_modes < 100:
            raise ConfigurationError(
                "key 'tightness.max_modes': need at least 100 modes to judge the tail"
            )
        kind, coverage = self.functional_kind, self.experiment == "coverage"
        if coverage and kind == "smoothed_image" and self.operator_kind != "bvp":
            raise ConfigurationError(
                "key 'functional.kind': smoothed_image requires the elliptic operator (bvp)"
            )
        if coverage and kind == "heat_mode" and self.operator_kind != "heat":
            raise ConfigurationError(
                "key 'functional.kind': heat_mode requires the heat operator"
            )
        # the coverage functional indexes a basis of exactly n_modes modes
        reads_band = kind in ("sobolev", "smoothed_image")
        reads_mode = kind in ("mode", "heat_mode")
        # every functional but heat_mode goes through the representer solve
        reads_cond = kind != "heat_mode"
        if coverage and reads_cond and self.operator_cond_limit <= 0:
            raise ConfigurationError(
                f"key 'operator.cond_limit': must be positive, got {self.operator_cond_limit!r}"
            )
        if coverage and kind == "sobolev" and self.functional_seed < 0:
            raise ConfigurationError(
                f"key 'functional.seed': must be nonnegative, got {self.functional_seed}"
            )
        if coverage and kind == "smoothed_image":
            _check_bump("functional", self.functional_support, self.functional_plateau)
        if coverage and reads_band and self.functional_band > self.n_modes:
            raise ConfigurationError(
                f"key 'functional.band': band {self.functional_band} exceeds "
                f"n_modes={self.n_modes}"
            )
        # a band below the basis's lowest frequency, or sin(0 pi x), makes psi
        # zero, and a zero functional covers every replicate with radius 0
        lowest = 0 if self.operator_kind == "psido" else 1
        if coverage and reads_band and self.functional_band < lowest:
            raise ConfigurationError(
                f"key 'functional.band': band {self.functional_band} keeps no mode; "
                f"the basis's lowest frequency is {lowest}"
            )
        if coverage and kind == "smoothed_image" and self.functional_sine == 0:
            raise ConfigurationError("key 'functional.sine': sine 0 makes the functional zero")
        # the sine is sampled on the N-point midpoint grid, where k aliases to 2N - k
        grid = basis.grid.size
        if coverage and kind == "smoothed_image" and abs(self.functional_sine) >= grid:
            raise ConfigurationError(
                f"key 'functional.sine': |sine| {abs(self.functional_sine)} must stay below "
                f"the grid size oversample * n_modes = {grid}"
            )
        if coverage and reads_mode and not 1 <= self.functional_mode <= self.n_modes:
            raise ConfigurationError(
                f"key 'functional.mode': mode {self.functional_mode} is outside "
                f"1..n_modes={self.n_modes}"
            )
        if coverage and kind == "heat_mode":
            with _keyed("functional.mode"):
                tilde = unit_vector(basis, self.functional_mode - 1)
                heat_psi_from_representer(tilde, self.operator_time)

    def _check_coefficient(self, grid: np.ndarray) -> None:
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
        with _keyed("operator.coefficient_base"):
            self.coefficient.samples(grid)

    def _check_truth(self) -> None:
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
        if self.truth_kind == "modes" and not all(1 <= m <= self.basis_modes for m in modes):
            raise ConfigurationError(
                f"key 'truth.modes': modes must lie in 1..{self.basis_modes}, "
                f"got {_format_value(modes)}"
            )
        # a Sobolev draw seeds NumPy's generator, which takes no negative seed
        if self.truth_kind == "sobolev" and self.truth_seed < 0:
            raise ConfigurationError(
                f"key 'truth.seed': must be nonnegative, got {self.truth_seed}"
            )


@contextmanager
def _keyed(key: str) -> Iterator[None]:
    """Name ``key`` in a configuration error that the library raises in the block."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(f"key '{key}': {exc}") from exc


def _key(attr: str) -> str:
    section, _, rest = attr.partition("_")
    return f"{section}.{rest}" if section in _SECTIONS else attr


# key -> (attribute, parser), in field order
_KEY_TABLE = {
    _key(field.name): (field.name, _PARSERS[field.type]) for field in fields(ExperimentConfig)
}


def _check_bump(section: str, support: tuple[float, float], plateau: tuple[float, float]) -> None:
    """The cutoff ``spectral.make_bump`` accepts: 0 < a < p <= q < b < 1."""
    (a, b), (p, q) = support, plateau
    if not 0.0 < a < b < 1.0:
        raise ConfigurationError(
            f"key '{section}.support': need 0 < support[0] < support[1] < 1, "
            f"got {_format_value(support)}"
        )
    if not a < p <= q < b:
        raise ConfigurationError(
            f"key '{section}.plateau': need support[0] < plateau[0] <= plateau[1] < support[1], "
            f"got {_format_value(plateau)} inside {_format_value(support)}"
        )


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a key=value configuration document."""
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


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def resolved_items(config: ExperimentConfig) -> list[tuple[str, str]]:
    """Every configuration key with its resolved (post-default) value."""
    items = []
    for key, (attr, _) in _KEY_TABLE.items():
        value = getattr(config, attr)
        if value is None:
            continue
        items.append((key, _format_value(value)))
    return items
