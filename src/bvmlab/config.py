"""Flat key=value experiment configuration with section prefixes.

Unknown keys are rejected by name; defaults are applied at parse time and
echoed into every output file's metadata block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigurationError

__all__ = ["ExperimentConfig", "parse_config", "resolved_items"]

DEFAULT_EPSILONS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)

EXPERIMENTS = ("coverage", "rates", "tightness", "concentration", "conjugacy")
OPERATOR_KINDS = ("psido", "bvp", "heat")
TRUTH_KINDS = ("bump", "sobolev", "modes")
FUNCTIONAL_KINDS = ("smoothed_image", "mode", "heat_mode", "sobolev")


def _parse_float(text: str) -> float:
    return float(text)


def _parse_int(text: str) -> int:
    return int(text)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_pair(text: str) -> tuple[float, float]:
    parts = _parse_float_list(text)
    if len(parts) != 2:
        raise ValueError("expected two comma-separated numbers")
    return parts  # type: ignore[return-value]


def _parse_str(text: str) -> str:
    return text


# key -> (attribute, parser)
_KEY_TABLE = {
    "experiment": ("experiment", _parse_str),
    "n_modes": ("n_modes", _parse_int),
    "oversample": ("oversample", _parse_int),
    "master_seed": ("master_seed", _parse_int),
    "output_path": ("output_path", _parse_str),
    "epsilons": ("epsilons", _parse_float_list),
    "n_replicates": ("n_replicates", _parse_int),
    "level": ("level", _parse_float),
    "ball_beta": ("ball_beta", _parse_float),
    "operator.kind": ("operator_kind", _parse_str),
    "operator.t": ("operator_t", _parse_float),
    "operator.time": ("operator_time", _parse_float),
    "operator.coefficient": ("coefficient", _parse_str),
    "operator.coefficient_base": ("coefficient_base", _parse_float),
    "operator.coefficient_amplitude": ("coefficient_amplitude", _parse_float),
    "operator.cond_limit": ("cond_limit", _parse_float),
    "prior.r": ("prior_r", _parse_float),
    "prior.amplitude": ("prior_amplitude", _parse_float),
    "truth.kind": ("truth_kind", _parse_str),
    "truth.support": ("truth_support", _parse_pair),
    "truth.plateau": ("truth_plateau", _parse_pair),
    "truth.scale": ("truth_scale", _parse_float),
    "truth.alpha": ("truth_alpha", _parse_float),
    "truth.seed": ("truth_seed", _parse_int),
    "truth.modes": ("truth_modes", _parse_int_list),
    "truth.values": ("truth_values", _parse_float_list),
    "functional.kind": ("functional_kind", _parse_str),
    "functional.support": ("functional_support", _parse_pair),
    "functional.plateau": ("functional_plateau", _parse_pair),
    "functional.sine": ("functional_sine", _parse_int),
    "functional.band": ("functional_band", _parse_int),
    "functional.mode": ("functional_mode", _parse_int),
    "functional.alpha": ("functional_alpha", _parse_float),
    "functional.seed": ("functional_seed", _parse_int),
    "tightness.beta": ("tightness_beta", _parse_float),
    "tightness.max_modes": ("tightness_max_modes", _parse_int),
    "concentration.deltas": ("concentration_deltas", _parse_float_list),
    "concentration.ambient": ("concentration_ambient", _parse_float),
    "concentration.mc_samples": ("concentration_mc_samples", _parse_int),
}

# keys parsed by these hold floats, which must all be finite
_FLOAT_PARSERS = (_parse_float, _parse_float_list, _parse_pair)


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
    coefficient: str = "constant"
    coefficient_base: float = 1.0
    coefficient_amplitude: float = 0.5
    cond_limit: float = 1e12
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
    concentration_ambient: float = -2.0
    concentration_mc_samples: int = 100_000

    def validate(self) -> None:
        for key, (attr, parser) in _KEY_TABLE.items():
            value = getattr(self, attr)
            if parser in _FLOAT_PARSERS and value is not None:
                values = value if isinstance(value, tuple) else (value,)
                if not all(math.isfinite(v) for v in values):
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
        if self.oversample < 4:
            raise ConfigurationError("key 'oversample': must be at least 4")
        if self.prior_r <= 0.5:
            raise ConfigurationError(
                f"key 'prior.r': smoothness {self.prior_r} violates the requirement r > d/2 = 0.5"
            )
        if self.prior_amplitude <= 0:
            raise ConfigurationError("key 'prior.amplitude': must be positive")
        if not 0.0 < self.level < 1.0:
            raise ConfigurationError("key 'level': must lie strictly between 0 and 1")
        if 0.5 + self.level / 2.0 == 1.0:
            raise ConfigurationError(
                f"key 'level': {self.level!r} is too close to 1 for a finite quantile"
            )
        if not self.epsilons or any(e <= 0 for e in self.epsilons):
            raise ConfigurationError("key 'epsilons': need a nonempty list of positive values")
        if self.n_replicates < 1:
            raise ConfigurationError("key 'n_replicates': must be a positive integer")
        if self.ball_beta is not None and self.ball_beta < 0:
            raise ConfigurationError("key 'ball_beta': must be nonnegative")
        if self.operator_kind == "heat" and self.operator_time < 0:
            raise ConfigurationError("key 'operator.time': must be nonnegative")
        if self.operator_kind == "bvp" and self.coefficient not in ("constant", "sine"):
            raise ConfigurationError(
                f"key 'operator.coefficient': unknown coefficient {self.coefficient!r}"
            )
        if self.coefficient == "sine" and abs(self.coefficient_amplitude) >= self.coefficient_base:
            raise ConfigurationError(
                "key 'operator.coefficient_amplitude': sine swing must stay below the base "
                "(uniform ellipticity)"
            )
        if self.truth_kind == "bump":
            _check_bump("truth", self.truth_support, self.truth_plateau)
        if self.truth_kind == "modes" and len(self.truth_modes) != len(self.truth_values):
            raise ConfigurationError(
                "keys 'truth.modes'/'truth.values': lists must have equal length"
            )
        if self.truth_kind == "modes" and len(set(self.truth_modes)) != len(self.truth_modes):
            raise ConfigurationError(
                f"key 'truth.modes': modes must be distinct, got {_format_value(self.truth_modes)}"
            )
        # the truth lives on the experiment's basis, which tightness widens
        basis_modes = self.n_modes
        if self.experiment == "tightness":
            basis_modes = max(self.n_modes, self.tightness_max_modes)
        if self.truth_kind == "modes" and not all(1 <= m <= basis_modes for m in self.truth_modes):
            raise ConfigurationError(
                f"key 'truth.modes': modes must lie in 1..{basis_modes}, "
                f"got {_format_value(self.truth_modes)}"
            )
        # a Sobolev draw seeds NumPy's generator, which takes no negative seed
        if self.truth_kind == "sobolev" and self.truth_seed < 0:
            raise ConfigurationError(
                f"key 'truth.seed': must be nonnegative, got {self.truth_seed}"
            )
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
            t = 2.0 if self.operator_kind == "bvp" else self.operator_t
            if self.truth_alpha < 0 and self.truth_alpha <= -t:
                raise ConfigurationError(
                    f"key 'truth.alpha': a rate needs truth smoothness alpha > -t = {-t!r}, "
                    f"got {self.truth_alpha!r}"
                )
        if self.experiment == "concentration" and self.concentration_mc_samples < 1000:
            raise ConfigurationError(
                "key 'concentration.mc_samples': need at least 1000 samples"
            )
        if self.experiment == "concentration":
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
        if coverage and reads_cond and self.cond_limit <= 0:
            raise ConfigurationError(
                f"key 'operator.cond_limit': must be positive, got {self.cond_limit!r}"
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
        if coverage and reads_mode and not 1 <= self.functional_mode <= self.n_modes:
            raise ConfigurationError(
                f"key 'functional.mode': mode {self.functional_mode} is outside "
                f"1..n_modes={self.n_modes}"
            )


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
