"""One record per experiment: what it checks, builds and computes.

``EXPERIMENTS`` maps each experiment's name to its ``Experiment``.
``ExperimentConfig.validate`` runs the checks common to every experiment and
then the record's; ``cli.build_context`` builds what the record asks for; the
CLI runs the record's runner, then formats and writes its table.  No other
module tells the experiments apart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import bvm, operators, posterior, priors, spectral
from .errors import ConfigurationError, NumericalError, _keyed
from .seeds import derive_seed

__all__ = ["Experiment", "EXPERIMENTS"]


def _format_value(value) -> str:
    """A key's value as the metadata block and the error messages print it."""
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


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


# the key each operator kind's builder reads
_OPERATOR_KEYS = {"psido": "operator.t", "bvp": "operator.coefficient_base", "heat": "operator.time"}


def _build_operator(config, kind: str, basis) -> operators.ForwardOperator:
    with _keyed(_OPERATOR_KEYS[kind]):
        if kind == "psido":
            return operators.psido_multiplier(basis, config.operator_t)
        if kind == "heat":
            return operators.heat_semigroup(basis, config.operator_time)
        return operators.elliptic_operator(config.coefficient, basis)[1]


def _configured_modes(config) -> tuple[int, str]:
    return config.n_modes, "n_modes"


def _builds_nothing(config, basis, forward) -> dict:
    return {}


@dataclass(frozen=True)
class Experiment:
    """What one experiment checks, builds and computes.  Every field is a
    constant or a module-level function, so a record pickles by reference.

    ``check(config)`` refuses a key the experiment cannot run with, after the
    checks common to all; ``basis_modes(config)`` is the basis's mode count
    and the key that sets it; ``build(config, basis, forward)`` returns the
    context fields the experiment adds.  ``run(context, score_chunks)``
    returns the table's columns and its metadata lines.  A chunked
    experiment's runner returns no columns: it hands ``score_chunks`` what
    ``rows(context, run, indices)`` reads, and gets back each noise level's
    numbers by chunk; ``rows`` returns each level's columns and numbers for
    a range of replicates.
    """

    header: tuple[str, ...]
    check: Callable
    run: Callable
    reads_truth: bool = False
    build: Callable = _builds_nothing
    basis_modes: Callable = _configured_modes
    rows: Optional[Callable] = None


def _check_levels(config) -> None:
    # the posterior squares each noise level, which must stay a positive double
    if not all(0 < e * e < math.inf for e in config.epsilons):
        raise ConfigurationError(
            f"key 'epsilons': every squared noise level must be a positive finite double, "
            f"got {_format_value(config.epsilons)}"
        )
    # replicate rows are gathered per noise level, so a repeated level
    # would count its rows twice
    if len(set(config.epsilons)) != len(config.epsilons):
        raise ConfigurationError(
            f"key 'epsilons': noise levels must be distinct, got {_format_value(config.epsilons)}"
        )


def _check_coverage(config) -> None:
    _check_levels(config)
    kind, operator_kind = config.functional_kind, config.operator_kind
    if kind == "smoothed_image" and operator_kind != "bvp":
        raise ConfigurationError(
            "key 'functional.kind': smoothed_image requires the elliptic operator (bvp)"
        )
    if kind == "heat_mode" and operator_kind != "heat":
        raise ConfigurationError("key 'functional.kind': heat_mode requires the heat operator")
    if kind in ("mode", "heat_mode") and not 1 <= config.functional_mode <= config.n_modes:
        raise ConfigurationError(
            f"key 'functional.mode': mode must lie in 1..{config.n_modes}, "
            f"got {config.functional_mode}"
        )
    # every functional but heat_mode goes through the representer solve
    if kind != "heat_mode" and config.operator_cond_limit <= 0:
        raise ConfigurationError(
            f"key 'operator.cond_limit': must be positive, got {config.operator_cond_limit!r}"
        )
    if kind == "sobolev" and config.functional_seed < 0:
        raise ConfigurationError(
            f"key 'functional.seed': must be nonnegative, got {config.functional_seed}"
        )
    if kind == "smoothed_image":
        _check_bump("functional", config.functional_support, config.functional_plateau)
    # a band below the basis's lowest frequency, or sin(0 pi x), makes psi
    # zero, and a zero functional covers every replicate with radius 0
    lowest = 0 if operator_kind == "psido" else 1
    if kind in ("sobolev", "smoothed_image") and config.functional_band < lowest:
        raise ConfigurationError(
            f"key 'functional.band': band {config.functional_band} keeps no mode; "
            f"the basis's lowest frequency is {lowest}"
        )
    if kind == "smoothed_image" and config.functional_sine == 0:
        raise ConfigurationError("key 'functional.sine': sine 0 makes the functional zero")


def _check_rates(config) -> None:
    _check_levels(config)
    if config.operator_kind == "heat":
        raise ConfigurationError(
            "key 'experiment': polynomial rate fits are not defined for the heat semigroup"
        )
    # the rate fit reads these only after every replicate has run
    if len(config.epsilons) < 3:
        raise ConfigurationError(
            f"key 'epsilons': a rate fit needs at least three noise levels, "
            f"got {_format_value(config.epsilons)}"
        )
    if config.operator_kind == "psido" and config.operator_t < 0:
        raise ConfigurationError(
            f"key 'operator.t': a rate needs a smoothing order t >= 0, got {config.operator_t!r}"
        )
    t = -config.ambient_exponent
    if config.truth_alpha < 0 and config.truth_alpha <= -t:
        raise ConfigurationError(
            f"key 'truth.alpha': a rate needs truth smoothness alpha > -t = {-t!r}, "
            f"got {config.truth_alpha!r}"
        )


def _check_tightness(config) -> None:
    # tightness sums the series of the elliptic differential operator
    if config.operator_kind != "bvp":
        raise ConfigurationError(
            f"key 'operator.kind': tightness needs the elliptic operator (bvp), "
            f"got {config.operator_kind!r}"
        )
    if config.tightness_max_modes < 100:
        raise ConfigurationError(
            "key 'tightness.max_modes': need at least 100 modes to judge the tail"
        )


def _check_concentration(config) -> None:
    if config.concentration_mc_samples < 1000:
        raise ConfigurationError("key 'concentration.mc_samples': need at least 1000 samples")
    if config.concentration_mc_samples > priors.MAX_MC_SAMPLES:
        raise ConfigurationError(
            "key 'concentration.mc_samples': at most 2**63 - 1 samples, "
            f"got {config.concentration_mc_samples}"
        )
    with _keyed("concentration.deltas"):
        priors._positive_deltas(config.concentration_deltas)


def _checks_nothing(config) -> None:
    """Conjugacy draws its own priors, truths and noise levels."""


def _tightness_modes(config) -> tuple[int, str]:
    """The series' length widens the basis when it is the larger."""
    if config.tightness_max_modes > config.n_modes:
        return config.tightness_max_modes, "tightness.max_modes"
    return config.n_modes, "n_modes"


def _build_functional(config, basis, forward) -> dict:
    """Coverage's functional."""
    kind = config.functional_kind
    if kind == "heat_mode":
        with _keyed("functional.mode"):
            tilde = spectral.unit_vector(basis, config.functional_mode - 1)
            return {"functional": bvm.heat_psi_from_representer(tilde, config.operator_time)}
    if kind == "mode":
        psi = spectral.unit_vector(basis, config.functional_mode - 1)
    elif kind == "sobolev":
        with np.errstate(over="ignore", invalid="ignore"), _keyed("functional.alpha"):
            draw = spectral.sobolev_draw(basis, config.functional_alpha, config.functional_seed)
        with _keyed("functional.band"):
            psi = spectral.bandlimit_approx(draw, config.functional_band)
    else:
        psi = operators.apply(forward, _smoothed_image(config, basis))
    return {"functional": bvm.representer(forward, psi, config.operator_cond_limit)}


def _smoothed_image(config, basis) -> spectral.CoeffVector:
    """The image of the smoothed_image functional under the differential
    operator: a band-limited bump-windowed sine, sampled on the N-point
    midpoint grid, where sine k aliases to 2N - k."""
    sine, grid = config.functional_sine, basis.grid
    if abs(sine) >= grid.size:
        raise ConfigurationError(
            f"key 'functional.sine': |sine| {abs(sine)} must stay below "
            f"the grid size oversample * n_modes = {grid.size}"
        )
    zeta = spectral.make_bump(config.functional_support, config.functional_plateau)
    window = zeta(grid) * np.sin(sine * np.pi * grid)
    with _keyed("functional.band"):
        return spectral.bandlimit_approx(spectral.analyze(window, basis), config.functional_band)


def _check_weak_norm(config, basis, forward) -> dict:
    """Concentration measures the truth and its small balls in the weak norm."""
    with _keyed(_OPERATOR_KEYS[config.operator_kind]):
        with np.errstate(over="ignore"):
            weak = basis.sobolev_weights(config.ambient_exponent)
        if not np.all(weak < math.inf):
            raise ConfigurationError(
                f"the weak norm's weights (1 + lambda_j)^{config.ambient_exponent!r} overflow"
            )
    return {}


def _conjugacy_maps(config, basis, forward) -> dict:
    """The unit-coefficient solution map and the configured multiplier and
    semigroup; the run's own basis and forward map serve where they fit."""
    sine, torus = spectral.BasisKind.DIRICHLET_SINE, spectral.BasisKind.FOURIER_TORUS
    bases = {basis.kind: basis}
    with _keyed("n_modes", "oversample"):
        for kind, n_modes in ((sine, config.n_modes), (torus, config.torus_modes)):
            if kind not in bases:
                bases[kind] = spectral.build_basis(kind, n_modes, config.oversample)
    unit = operators.EllipticCoefficient(lambda x: np.ones_like(x))
    maps = {"bvp": operators.elliptic_operator(unit, bases[sine])[1]}
    for kind, on in (("psido", bases[torus]), ("heat", bases[sine])):
        maps[kind] = forward if config.operator_kind == kind else _build_operator(config, kind, on)
    return {"conjugacy_maps": maps}


def _coverage_rows(context, run: tuple, indices: range) -> list[tuple]:
    # run is the posterior system and the credible sets of every noise level;
    # an overflow surfaces as the non-finite column that the formatter names
    with np.errstate(over="ignore", invalid="ignore"):
        tables = bvm.replicate_table(*run, context.truth, indices, context.config.master_seed)
    replicates = [str(i) for i in indices]
    rows = []
    for t in tables:
        sets = t.sets
        columns = (sets.epsilon, replicates, t.functional_mean, t.scaled_error, t.hat_psi)
        columns += (sets.interval_radius, t.interval_covered, sets.ball_radius, t.ball_covered)
        ball_hits = 0 if t.ball_covered is None else int(np.count_nonzero(t.ball_covered))
        rows.append((columns, (int(np.count_nonzero(t.interval_covered)), ball_hits)))
    return rows


def _run_coverage(context, score_chunks):
    config = context.config
    system = posterior.posterior_system(context.prior, context.forward)
    levels = [
        bvm.credible_sets(system, epsilon, context.functional, config.level, config.ball_beta)
        for epsilon in config.epsilons
    ]
    hits = score_chunks((system, levels))
    # per level, the summed (interval, ball) hits of its chunks
    interval_hits, ball_hits = np.sum(hits, axis=1).T.tolist()
    extra = [("diag.coverage_hits", interval_hits)]
    if config.ball_beta is not None:
        extra.append(("diag.ball_hits", ball_hits))
    return None, extra


def _rates_rows(context, system: posterior.PosteriorSystem, indices: range) -> list[tuple]:
    config = context.config
    # in the forward map's weak norm; an overflow surfaces as the non-finite
    # column that the formatter names
    with np.errstate(over="ignore", invalid="ignore"):
        errors = bvm.replicate_errors(
            system, config.epsilons, context.truth, indices, config.ambient_exponent,
            config.master_seed,
        )
    replicates = [str(i) for i in indices]
    return [((e, replicates, row), row) for e, row in zip(config.epsilons, errors)]


def _run_rates(context, score_chunks):
    config = context.config
    errors = score_chunks(posterior.posterior_system(context.prior, context.forward))
    # the doubles the dual_error cells were formatted from, so a reparse of the
    # file's cells gives the same means
    mean_errors = [float(np.mean(np.concatenate(level))) for level in errors]
    predicted = priors.predict_rate(-config.ambient_exponent, config.prior_r, config.truth_alpha)
    fit = bvm.rate_fit(config.epsilons, mean_errors, predicted.exponent)
    names = ("slope", "r_squared", "predicted_exponent")
    extra = [(f"rate_{name}", getattr(fit, name)) for name in names]
    extra.append(("rate_binding_branch", predicted.which.value))
    return None, extra


def _run_tightness(context, score_chunks):
    config = context.config
    # the check admits tightness only for the elliptic solution map, whose
    # companion is the differential operator
    result = bvm.tightness_series(
        context.forward.companion, config.tightness_beta, config.tightness_max_modes
    )
    modes = [str(j) for j in range(1, config.tightness_max_modes + 1)]
    return (modes, result.partial_sums), [("tightness_verdict", result.verdict.value)]


_CONCENTRATION_TERMS = ("approx_term", "smallball_term", "phi")


def _run_concentration(context, score_chunks):
    config = context.config
    deltas = config.concentration_deltas
    values = priors.concentration_ladder(
        context.prior,
        context.truth,
        deltas,
        config.ambient_exponent,
        config.concentration_mc_samples,
        # stream 0's key is the master seed itself, which may equal truth.seed
        derive_seed(config.master_seed, 1),
    )
    columns = [np.array([getattr(v, name) for v in values]) for name in _CONCENTRATION_TERMS]
    extra = [
        (f"diag.smallball_{name}", [getattr(v.estimate, name) for v in values])
        for name in ("hits", "log_low", "log_high", "log_exact")
    ]
    extra.append(("diag.quadrature_rtol", priors.QUADRATURE_RTOL))
    return [np.array(deltas), *columns], extra


_CONJUGACY_FAMILIES = ("bvp", "psido", "heat")


def _run_conjugacy(context, score_chunks):
    config = context.config
    n = config.n_replicates
    families = [_CONJUGACY_FAMILIES[i % len(_CONJUGACY_FAMILIES)] for i in range(n)]
    epsilons, gaps = np.empty(n), np.empty(n)
    for i, family in enumerate(families):
        op = context.conjugacy_maps[family]
        rng = np.random.default_rng(derive_seed(config.master_seed, i))
        r = 0.8 + 1.4 * rng.random()
        amplitude = 0.5 + 1.5 * rng.random()
        epsilons[i] = epsilon = 10.0 ** rng.uniform(-3, -1)
        prior = priors.matern_prior(op.basis, r, amplitude)
        truth = spectral.sobolev_draw(op.basis, 1.5, derive_seed(config.master_seed, 2**32 + i))
        data = posterior.observe(op, truth, epsilon, derive_seed(config.master_seed, 2**33 + i))
        mean = posterior.posterior_system(prior, op).update(data, epsilon)
        tik = posterior.tikhonov_solve(prior, op, data, epsilon)
        gaps[i] = np.linalg.norm(tik.coeffs - mean.coeffs) / max(
            np.linalg.norm(mean.coeffs), np.finfo(float).tiny
        )
    worst = float(np.max(gaps))
    if worst > 1e-8:
        raise NumericalError(
            f"Tikhonov minimiser and posterior mean disagree by {worst:.3g} (> 1e-8)"
        )
    return ([str(i) for i in range(n)], families, epsilons, gaps), []


EXPERIMENTS = {
    "coverage": Experiment(
        header=(
            "epsilon",
            "replicate",
            "functional_mean",
            "scaled_error",
            "hat_psi",
            "radius",
            "covered",
            "ball_radius",
            "ball_covered",
        ),
        check=_check_coverage,
        run=_run_coverage,
        rows=_coverage_rows,
        reads_truth=True,
        build=_build_functional,
    ),
    "rates": Experiment(
        header=("epsilon", "replicate", "dual_error"),
        check=_check_rates,
        run=_run_rates,
        rows=_rates_rows,
        reads_truth=True,
    ),
    "tightness": Experiment(
        header=("modes", "partial_sum"),
        check=_check_tightness,
        run=_run_tightness,
        basis_modes=_tightness_modes,
    ),
    "concentration": Experiment(
        header=("delta", *_CONCENTRATION_TERMS),
        check=_check_concentration,
        run=_run_concentration,
        reads_truth=True,
        build=_check_weak_norm,
    ),
    "conjugacy": Experiment(
        header=("index", "family", "epsilon", "rel_distance"),
        check=_checks_nothing,
        run=_run_conjugacy,
        build=_conjugacy_maps,
    ),
}
