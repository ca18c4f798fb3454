"""Command-line front end: experiment orchestration, deterministic parallel
replicates, and CSV emission.

Exit codes: 0 success, 1 configuration, 2 numerical, 3 rare-event,
4 ill-posedness.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

# parallelism comes from --workers: one BLAS thread per process unless the user
# set one; this must run before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import bvm, operators, posterior, priors, spectral  # noqa: E402
from .config import ExperimentConfig, parse_config, resolved_items  # noqa: E402
from .errors import (  # noqa: E402
    BvmlabError,
    ConfigurationError,
    IllPosedError,
    NumericalError,
    RareEventError,
)
from .seeds import derive_seed  # noqa: E402

__all__ = [
    "ExperimentContext",
    "build_context",
    "run_command",
    "emit_csv",
    "main",
]

_EXIT_CODES = (
    (RareEventError, 3),
    (IllPosedError, 4),
    (NumericalError, 2),
    (ConfigurationError, 1),
    (BvmlabError, 2),
)

COVERAGE_COLUMNS = (
    "epsilon",
    "replicate",
    "functional_mean",
    "scaled_error",
    "hat_psi",
    "radius",
    "covered",
    "ball_radius",
    "ball_covered",
)


@dataclass
class ExperimentContext:
    """All objects an experiment needs, built deterministically from the config."""

    config: ExperimentConfig
    basis: spectral.SpectralBasis
    forward: operators.ForwardOperator
    prior: priors.GaussianPrior
    truth: Optional[spectral.CoeffVector]  # None for experiments that read no truth
    functional: Optional[bvm.TestFunctional]


def _build_operator(config: ExperimentConfig, basis) -> operators.ForwardOperator:
    if config.operator_kind == "psido":
        return operators.psido_multiplier(basis, config.operator_t)
    if config.operator_kind == "heat":
        return operators.heat_semigroup(basis, config.operator_time)
    base, amplitude = config.operator_coefficient_base, config.operator_coefficient_amplitude
    if config.operator_coefficient == "constant":
        coeff = operators.EllipticCoefficient(lambda x, b=base: b * np.ones_like(x))
    else:
        coeff = operators.EllipticCoefficient(
            lambda x, b=base, a=amplitude: b + a * np.sin(2 * np.pi * x),
            floor=(base - abs(amplitude)) / 2,
        )
    return operators.elliptic_operator(coeff, basis)[1]


def _build_truth(config: ExperimentConfig, basis) -> spectral.CoeffVector:
    if config.truth_kind == "bump":
        zeta = spectral.make_bump(config.truth_support, config.truth_plateau)
        base = spectral.analyze(zeta(basis.grid), basis)
        return spectral.coeff_vector(basis, config.truth_scale * base.coeffs)
    if config.truth_kind == "sobolev":
        draw = spectral.sobolev_draw(basis, config.truth_alpha, config.truth_seed)
        return spectral.coeff_vector(basis, config.truth_scale * draw.coeffs)
    coeffs = np.zeros(basis.n_modes)
    for mode, value in zip(config.truth_modes, config.truth_values):
        coeffs[mode - 1] = value
    return spectral.coeff_vector(basis, config.truth_scale * coeffs)


def _build_functional(config: ExperimentConfig, basis, forward) -> bvm.TestFunctional:
    kind = config.functional_kind
    if kind == "heat_mode":
        tilde = spectral.unit_vector(basis, config.functional_mode - 1)
        return bvm.heat_psi_from_representer(tilde, config.operator_time)
    if kind == "mode":
        psi = spectral.unit_vector(basis, config.functional_mode - 1)
        return bvm.representer(forward, psi, config.operator_cond_limit)
    if kind == "sobolev":
        draw = spectral.sobolev_draw(basis, config.functional_alpha, config.functional_seed)
        psi = spectral.bandlimit_approx(draw, config.functional_band)
        return bvm.representer(forward, psi, config.operator_cond_limit)
    # smoothed_image: the functional whose image under the differential
    # operator is a band-limited bump-windowed sine
    zeta = spectral.make_bump(config.functional_support, config.functional_plateau)
    window = zeta(basis.grid) * np.sin(config.functional_sine * np.pi * basis.grid)
    image = spectral.bandlimit_approx(
        spectral.analyze(window, basis), config.functional_band
    )
    psi = operators.apply(forward, image)
    return bvm.representer(forward, psi, config.operator_cond_limit)


def build_context(config: ExperimentConfig) -> ExperimentContext:
    """Materialise basis, operator, prior, truth, and functional for one config."""
    kind = (
        spectral.BasisKind.FOURIER_TORUS
        if config.operator_kind == "psido"
        else spectral.BasisKind.DIRICHLET_SINE
    )
    basis = spectral.build_basis(kind, config.basis_modes, config.oversample)
    forward = _build_operator(config, basis)
    prior = priors.matern_prior(basis, config.prior_r, config.prior_amplitude)
    truth = _build_truth(config, basis) if config.reads_truth else None
    functional = None
    if config.experiment == "coverage":
        functional = _build_functional(config, basis, forward)
    return ExperimentContext(config, basis, forward, prior, truth, functional)


def _csv_text(rows) -> str:
    """The CSV lines of rows of string cells, joined: the one joiner of every table body."""
    return "".join([",".join(row) + "\n" for row in rows])


def emit_csv(
    header: Sequence[str], text: str, path: str, metadata: Sequence[tuple[str, str]] = ()
) -> None:
    """Write one CSV file: a '# key=value' metadata block, the header, then the
    body ``text``, the data lines as ``_csv_text`` joins them.

    The experiments format floating-point cells with 17 significant digits, so
    a reparse reproduces the values exactly.
    """
    if not text:
        raise ConfigurationError("refusing to emit an empty results table")
    # write a sibling file, then rename it over the output, so a reader never
    # sees a partial table and a failed run leaves an older file intact
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.writelines(f"# {key}={value}\n" for key, value in metadata)
            fh.write(",".join(header) + "\n")
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _base_metadata(context: ExperimentContext) -> list[tuple[str, str]]:
    tail = priors.truncation_tail(context.prior)
    # in the forward map's weak norm, which contraction and concentration use too
    c = operators.embedding_constant(context.forward, context.config.ambient_exponent)
    return [
        *resolved_items(context.config),
        ("prior_tail_bound", format(tail, ".17g")),
        ("embedding_constant_c", format(c, ".17g")),
    ]


def _float_cells(values: np.ndarray) -> list[str]:
    return [format(x, ".17g") for x in values.tolist()]


def _flag_cells(flags: np.ndarray) -> list[str]:
    return ["true" if flag else "false" for flag in flags.tolist()]


def _checked_cells(values: np.ndarray, column: str, epsilon: float) -> list[str]:
    """A chunk's column at one noise level, formatted once it is known to be finite."""
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"column '{column}' is not finite at epsilon={epsilon!r}")
    return _float_cells(values)


def _table_text(table: bvm.ReplicateTable, replicates: list[str]) -> tuple[str, tuple[int, int]]:
    """One noise level's CSV lines of a chunk, and its interval and ball hit counts."""
    n_rows = len(replicates)
    no_ball = [""] * n_rows
    ball_cells, ball_hits = [no_ball, no_ball], 0
    if table.ball_radius is not None:
        ball_cells = [
            [format(table.ball_radius, ".17g")] * n_rows,
            _flag_cells(table.ball_covered),
        ]
        ball_hits = int(np.count_nonzero(table.ball_covered))
    cells = (
        [format(table.epsilon, ".17g")] * n_rows,
        replicates,
        *(_checked_cells(getattr(table, c), c, table.epsilon) for c in COVERAGE_COLUMNS[2:5]),
        [format(table.interval_radius, ".17g")] * n_rows,
        _flag_cells(table.interval_covered),
        *ball_cells,
    )
    return _csv_text(zip(*cells)), (int(np.count_nonzero(table.interval_covered)), ball_hits)


def _coverage_rows(context: ExperimentContext, run: tuple, indices: range) -> list[tuple]:
    # run is the posterior system and the credible sets of every noise level;
    # an overflow surfaces as the non-finite column that _checked_cells names
    with np.errstate(over="ignore", invalid="ignore"):
        tables = bvm.replicate_table(*run, context.truth, indices, context.config.master_seed)
    replicates = [str(i) for i in indices]
    return [_table_text(table, replicates) for table in tables]


def _rates_rows(
    context: ExperimentContext, system: posterior.PosteriorSystem, indices: range
) -> list[tuple[str, np.ndarray]]:
    # the dual norm of beta = 2, spectral.sobolev_norm at exponent -2, one row at a time
    weights = (1.0 + context.basis.eigenvalues) ** -2.0
    epsilons, seed = context.config.epsilons, context.config.master_seed
    errors = np.empty((len(epsilons), len(indices)))
    blocks = bvm.replicate_blocks(system, epsilons, context.truth, indices, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, rows, _, modes in blocks:
            means = system.synthesise(modes)
            errors[k, rows] = np.sqrt(np.vecdot((means - context.truth.coeffs) ** 2, weights))
    replicates = [str(i) for i in indices]
    texts = (
        _csv_text(
            zip([format(e, ".17g")] * len(indices), replicates, _checked_cells(row, "dual_error", e))
        )
        for e, row in zip(epsilons, errors)
    )
    return list(zip(texts, errors))


def _chunks(n: int, workers: int) -> list[range]:
    """Contiguous index ranges of ``ceil(n / workers)`` replicates, but of no more
    than ``bvm.REPLICATE_BLOCK``: a chunk holds every noise level's rows of its
    replicates, so the block size bounds what a task holds."""
    size = min(bvm.REPLICATE_BLOCK, math.ceil(n / workers))
    return [range(lo, min(lo + size, n)) for lo in range(0, n, size)]


# the (row_fn, context, run) a pool worker scores its chunks with: the pool's
# initializer stores it once per worker, inherited under fork and pickled once
# otherwise, so a task is an index range and no worker builds or factors anything
_worker_run: Optional[tuple] = None


def _init_worker(run: tuple) -> None:
    global _worker_run
    _worker_run = run


def _run_chunk(indices: range) -> list[tuple]:
    row_fn, context, run = _worker_run
    return row_fn(context, run, indices)


def _map_chunks(context: ExperimentContext, workers: int, run, row_fn) -> tuple[str, list]:
    """The CSV body of every noise level and replicate, in (epsilon, replicate)
    order, and each level's chunk numbers, in chunk order.

    ``run`` holds the data-independent objects of every noise level, built
    once per run (the posterior system, and for coverage the credible sets),
    and ``row_fn(context, run, indices)`` returns one pair per level for a
    chunk of replicates: the chunk's CSV lines at that level, joined, and its
    numbers there (coverage's hit counts, rates' errors).  So each replicate's
    noise is drawn once for all levels, and the parent reparses no cell.  One
    worker runs the chunks in-process; more map them over a process pool
    whose initializer hands each worker the run once.  Rows depend only on
    (epsilon, replicate index), so the output is the same for any worker count.
    """
    workers = min(workers, os.cpu_count() or 1)
    tasks = _chunks(context.config.n_replicates, workers)
    if workers <= 1:
        chunks = [row_fn(context, run, chunk) for chunk in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)),
            initializer=_init_worker,
            initargs=((row_fn, context, run),),
        ) as pool:
            chunks = list(pool.map(_run_chunk, tasks))
    levels = range(len(context.config.epsilons))
    text = "".join(chunk[k][0] for k in levels for chunk in chunks)
    return text, [[chunk[k][1] for chunk in chunks] for k in levels]


def _run_coverage(context: ExperimentContext, workers: int):
    config = context.config
    system = posterior.posterior_system(context.prior, context.forward)
    levels = [
        bvm.credible_sets(system, epsilon, context.functional, config.level, config.ball_beta)
        for epsilon in config.epsilons
    ]
    text, hits = _map_chunks(context, workers, (system, levels), _coverage_rows)
    # per level, the summed (interval, ball) hits of its chunks
    interval_hits, ball_hits = np.sum(hits, axis=1).T.tolist()
    extra = [("diag.coverage_hits", ",".join(map(str, interval_hits)))]
    if config.ball_beta is not None:
        extra.append(("diag.ball_hits", ",".join(map(str, ball_hits))))
    return COVERAGE_COLUMNS, text, extra


def _run_rates(context: ExperimentContext, workers: int):
    config = context.config
    system = posterior.posterior_system(context.prior, context.forward)
    text, errors = _map_chunks(context, workers, system, _rates_rows)
    # the doubles the dual_error cells were formatted from, so a reparse of the
    # file's cells gives the same means
    mean_errors = [float(np.mean(np.concatenate(level))) for level in errors]
    predicted = priors.predict_rate(-config.ambient_exponent, config.prior_r, config.truth_alpha)
    fit = bvm.rate_fit(config.epsilons, mean_errors, predicted.exponent)
    extra = [
        ("rate_slope", format(fit.slope, ".17g")),
        ("rate_r_squared", format(fit.r_squared, ".17g")),
        ("rate_predicted_exponent", format(fit.predicted_exponent, ".17g")),
        ("rate_binding_branch", predicted.which.value),
    ]
    return ("epsilon", "replicate", "dual_error"), text, extra


def _run_tightness(context: ExperimentContext):
    config = context.config
    # validate admits tightness only for the elliptic solution map, whose
    # companion is the differential operator
    result = bvm.tightness_series(
        context.forward.companion, config.tightness_beta, config.tightness_max_modes
    )
    text = _csv_text((str(j), s) for j, s in enumerate(_float_cells(result.partial_sums), start=1))
    return ("modes", "partial_sum"), text, [("tightness_verdict", result.verdict.value)]


def _run_concentration(context: ExperimentContext):
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
    text = _csv_text(
        [format(x, ".17g") for x in (delta, v.approx_term, v.smallball_term, v.phi)]
        for delta, v in zip(deltas, values)
    )
    extra = [
        ("diag.smallball_hits", ",".join(str(v.estimate.hits) for v in values)),
        ("diag.smallball_log_low", ",".join(format(v.estimate.log_low, ".17g") for v in values)),
        ("diag.smallball_log_high", ",".join(format(v.estimate.log_high, ".17g") for v in values)),
    ]
    return ("delta", "approx_term", "smallball_term", "phi"), text, extra


_CONJUGACY_FAMILIES = ("bvp", "psido", "heat")


def _run_conjugacy(context: ExperimentContext):
    config = context.config
    interval = context.basis
    if interval.kind is not spectral.BasisKind.DIRICHLET_SINE:
        interval = spectral.build_basis(
            spectral.BasisKind.DIRICHLET_SINE, config.n_modes, config.oversample
        )
    torus_modes = config.n_modes if config.n_modes % 2 == 1 else config.n_modes + 1
    torus = spectral.build_basis(
        spectral.BasisKind.FOURIER_TORUS, torus_modes, config.oversample
    )
    constant = operators.EllipticCoefficient(lambda x: np.ones_like(x))
    family_ops = {
        "bvp": operators.elliptic_operator(constant, interval)[1],
        "psido": operators.psido_multiplier(torus, config.operator_t),
        "heat": operators.heat_semigroup(interval, config.operator_time),
    }
    rows = []
    worst = 0.0
    for i in range(config.n_replicates):
        family = _CONJUGACY_FAMILIES[i % len(_CONJUGACY_FAMILIES)]
        op = family_ops[family]
        rng = np.random.default_rng(derive_seed(config.master_seed, i))
        r = 0.8 + 1.4 * rng.random()
        amplitude = 0.5 + 1.5 * rng.random()
        epsilon = 10.0 ** rng.uniform(-3, -1)
        prior = priors.matern_prior(op.basis, r, amplitude)
        truth = spectral.sobolev_draw(op.basis, 1.5, derive_seed(config.master_seed, 2**32 + i))
        obs = posterior.observe(
            op, truth, epsilon, derive_seed(config.master_seed, 2**33 + i)
        )
        mean = posterior.posterior_update(prior, op, obs)
        tik = posterior.tikhonov_solve(prior, op, obs)
        gap = float(
            np.linalg.norm(tik.coeffs - mean.coeffs)
            / max(np.linalg.norm(mean.coeffs), np.finfo(float).tiny)
        )
        worst = max(worst, gap)
        rows.append((str(i), family, format(epsilon, ".17g"), format(gap, ".17g")))
    if worst > 1e-8:
        raise NumericalError(
            f"Tikhonov minimiser and posterior mean disagree by {worst:.3g} (> 1e-8)"
        )
    return ("index", "family", "epsilon", "rel_distance"), _csv_text(rows), []


def run_command(config: ExperimentConfig, workers: int = 1) -> int:
    """Execute the configured experiment, write its CSV, and return an exit status."""
    try:
        context = build_context(config)
        if config.experiment == "coverage":
            header, text, extra = _run_coverage(context, workers)
        elif config.experiment == "rates":
            header, text, extra = _run_rates(context, workers)
        elif config.experiment == "tightness":
            header, text, extra = _run_tightness(context)
        elif config.experiment == "concentration":
            header, text, extra = _run_concentration(context)
        else:
            header, text, extra = _run_conjugacy(context)
        emit_csv(header, text, config.output_path, _base_metadata(context) + extra)
    except BvmlabError as exc:
        for err_type, code in _EXIT_CODES:
            if isinstance(exc, err_type):
                print(f"error[{code}]: {exc}", file=sys.stderr)
                return code
        raise AssertionError("unreachable")
    except OSError as exc:
        print(f"error[1]: cannot write output: {exc}", file=sys.stderr)
        return 1
    except (concurrent.futures.BrokenExecutor, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"error[2]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bvmlab",
        description="Gaussian-prior inverse problem experiments with frequentist scoring",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute an experiment configuration")
    run_parser.add_argument("config", help="path to a key=value configuration file")
    run_parser.add_argument("--workers", type=int, default=1, help="parallel worker count")
    run_parser.add_argument("--out", help="override output_path")
    run_parser.add_argument("--seed", type=int, help="override master_seed")
    validate_parser = sub.add_parser("validate", help="parse and validate a configuration")
    validate_parser.add_argument("config")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error[1]: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
        if args.command == "run" and args.seed is not None:
            # the override passes the same check as the key
            config.master_seed = args.seed
            config.validate()
    except ConfigurationError as exc:
        print(f"error[1]: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        for key, value in resolved_items(config):
            print(f"{key}={value}")
        return 0
    if args.out is not None:
        config.output_path = args.out
    if args.workers < 1:
        print("error[1]: --workers must be at least 1", file=sys.stderr)
        return 1
    return run_command(config, workers=args.workers)


if __name__ == "__main__":
    sys.exit(main())
