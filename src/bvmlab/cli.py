"""Command-line front end: experiment orchestration, deterministic parallel
replicates, and CSV emission.

Exit codes: 0 success, 1 configuration, 2 numerical, 3 rare-event,
4 ill-posedness.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import functools
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

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
    "load_csv",
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
    diff_op: Optional[operators.ForwardOperator]
    prior: priors.GaussianPrior
    truth: spectral.CoeffVector
    functional: Optional[bvm.TestFunctional]
    ambient_exponent: float


def _build_operator(config: ExperimentConfig, basis):
    if config.operator_kind == "psido":
        t = config.operator_t
        if t == 0.0:
            forward = operators.identity_operator(basis)
        else:
            forward = operators.psido_multiplier(basis, t)
        return forward, None, -t
    if config.operator_kind == "heat":
        return operators.heat_semigroup(basis, config.operator_time), None, 0.0
    if config.coefficient == "constant":
        coeff = operators.EllipticCoefficient(
            lambda x, b=config.coefficient_base: b * np.ones_like(x)
        )
    else:
        coeff = operators.EllipticCoefficient(
            lambda x, b=config.coefficient_base, a=config.coefficient_amplitude: (
                b + a * np.sin(2 * np.pi * x)
            ),
            floor=(config.coefficient_base - abs(config.coefficient_amplitude)) / 2,
        )
    diff_op, solution_op = operators.elliptic_operator(coeff, basis)
    return solution_op, diff_op, -2.0


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
        if not 1 <= mode <= basis.n_modes:
            raise ConfigurationError(f"key 'truth.modes': mode {mode} out of range")
        coeffs[mode - 1] = value
    return spectral.coeff_vector(basis, config.truth_scale * coeffs)


def _build_functional(config: ExperimentConfig, basis, forward) -> bvm.TestFunctional:
    kind = config.functional_kind
    if kind == "heat_mode":
        if config.operator_kind != "heat":
            raise ConfigurationError(
                "key 'functional.kind': heat_mode requires the heat operator"
            )
        tilde = spectral.unit_vector(basis, config.functional_mode - 1)
        return bvm.heat_psi_from_representer(tilde, config.operator_time)
    if kind == "mode":
        psi = spectral.unit_vector(basis, config.functional_mode - 1)
        return bvm.representer(forward, psi, config.cond_limit)
    if kind == "sobolev":
        draw = spectral.sobolev_draw(basis, config.functional_alpha, config.functional_seed)
        psi = spectral.bandlimit_approx(draw, config.functional_band)
        return bvm.representer(forward, psi, config.cond_limit)
    # smoothed_image: the functional whose image under the differential
    # operator is a band-limited bump-windowed sine
    if config.operator_kind != "bvp":
        raise ConfigurationError(
            "key 'functional.kind': smoothed_image requires the elliptic operator"
        )
    zeta = spectral.make_bump(config.functional_support, config.functional_plateau)
    window = zeta(basis.grid) * np.sin(config.functional_sine * np.pi * basis.grid)
    image = spectral.bandlimit_approx(
        spectral.analyze(window, basis), config.functional_band
    )
    psi = operators.apply(forward, image)
    return bvm.representer(forward, psi, config.cond_limit)


def build_context(config: ExperimentConfig) -> ExperimentContext:
    """Materialise basis, operator, prior, truth, and functional for one config."""
    kind = (
        spectral.BasisKind.FOURIER_TORUS
        if config.operator_kind == "psido"
        else spectral.BasisKind.DIRICHLET_SINE
    )
    n_modes = config.n_modes
    if config.experiment == "tightness":
        n_modes = max(n_modes, config.tightness_max_modes)
    basis = spectral.build_basis(kind, n_modes, config.oversample)
    forward, diff_op, ambient = _build_operator(config, basis)
    prior = priors.matern_prior(basis, config.prior_r, config.prior_amplitude)
    truth = _build_truth(config, basis)
    functional = None
    if config.experiment == "coverage":
        functional = _build_functional(config, basis, forward)
    return ExperimentContext(
        config=config,
        basis=basis,
        forward=forward,
        diff_op=diff_op,
        prior=prior,
        truth=truth,
        functional=functional,
        ambient_exponent=ambient,
    )


def _csv_line(row: Sequence[str]) -> str:
    return ",".join(row) + "\n"


def emit_csv(records, path: str, metadata: Sequence[tuple[str, str]] = ()) -> None:
    """Write rows of string cells as CSV: one '# key=value' metadata block, then
    header, then data.

    The experiments format floating-point cells with 17 significant digits, so
    a reparse reproduces the values exactly.
    """
    header, rows = records
    if not rows:
        raise ConfigurationError("refusing to emit an empty results table")
    if any(len(row) != len(header) for row in rows):
        raise ConfigurationError("row width does not match the header")
    # write a sibling file, then rename it over the output, so a reader never
    # sees a partial table and a failed run leaves an older file intact; the
    # lines are streamed, so the whole text is never held in memory
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.writelines(f"# {key}={value}\n" for key, value in metadata)
            fh.write(",".join(header) + "\n")
            fh.writelines(map(_csv_line, rows))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_csv(path: str):
    """Read back an emitted file: (metadata dict, header list, rows of strings)."""
    metadata: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                metadata[key] = value
                continue
            if not header:
                header = line.split(",")
                continue
            if line:
                rows.append(line.split(","))
    return metadata, header, rows


def _base_metadata(context: ExperimentContext) -> list[tuple[str, str]]:
    items = list(resolved_items(context.config))
    items.append(("prior_tail_bound", format(priors.truncation_tail(context.prior), ".17g")))
    items.append(
        (
            "embedding_constant_c",
            format(
                operators.embedding_constant(context.forward, context.ambient_exponent),
                ".17g",
            ),
        )
    )
    return items


class _Chunk(NamedTuple):
    """Rows of one (epsilon, replicate chunk), with every cell formatted in the
    process that computed it, and the raw columns the parent summarises."""

    rows: list[tuple[str, ...]]
    columns: dict[str, np.ndarray]


def _float_cells(values: np.ndarray) -> list[str]:
    return [format(x, ".17g") for x in values.tolist()]


def _flag_cells(flags: np.ndarray) -> list[str]:
    return ["true" if flag else "false" for flag in flags.tolist()]


def _coverage_rows(context: ExperimentContext, epsilon: float, indices: range) -> _Chunk:
    config = context.config
    table = bvm.replicate_table(
        context.prior,
        context.forward,
        context.truth,
        [context.functional],
        epsilon,
        config.n_replicates,
        level=config.level,
        ball_beta=config.ball_beta,
        master_seed=config.master_seed,
        replicate_indices=indices,
    )
    n_rows = len(indices)
    covered = table.interval_covered[:, 0]
    columns = {"covered": covered}
    no_ball = [""] * n_rows
    ball_cells = [no_ball, no_ball]
    if table.ball_radius is not None:
        columns["ball_covered"] = table.ball_covered
        ball_cells = [
            _float_cells(np.array([table.ball_radius])) * n_rows,
            _flag_cells(table.ball_covered),
        ]
    cells = (
        [format(epsilon, ".17g")] * n_rows,
        [str(i) for i in indices],
        _float_cells(table.functional_mean[:, 0]),
        _float_cells(table.scaled_error[:, 0]),
        _float_cells(table.hat_psi[:, 0]),
        _float_cells(table.interval_radius[:1]) * n_rows,
        _flag_cells(covered),
        *ball_cells,
    )
    return _Chunk(list(zip(*cells)), columns)


def _rates_rows(context: ExperimentContext, epsilon: float, indices: range) -> _Chunk:
    factor = posterior.posterior_factor(context.prior, context.forward, epsilon)
    signal = operators.apply(context.forward, context.truth).coeffs
    # the dual norm of beta = 2, as spectral.dual_norm computes it, one row at a time
    weights = (1.0 + context.basis.eigenvalues) ** -2.0
    errors = np.empty(len(indices))
    for lo in range(0, len(indices), bvm.REPLICATE_BLOCK):
        block = indices[lo : lo + bvm.REPLICATE_BLOCK]
        seeds = [derive_seed(context.config.master_seed, i) for i in block]
        noise = posterior.noise_block(context.basis, seeds)
        means = factor.update_block(signal + epsilon * noise)
        errors[lo : lo + len(block)] = np.sqrt(
            np.vecdot((means - context.truth.coeffs) ** 2, weights)
        )
    cells = (
        [format(epsilon, ".17g")] * len(indices),
        [str(i) for i in indices],
        _float_cells(errors),
    )
    return _Chunk(list(zip(*cells)), {"dual_error": errors})


def _chunks(n: int, workers: int) -> list[range]:
    size = math.ceil(n / workers)
    return [range(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _config_text(config: ExperimentConfig) -> str:
    return "\n".join(f"{k}={v}" for k, v in resolved_items(config))


@functools.lru_cache(maxsize=1)
def _worker_context(config_text: str) -> ExperimentContext:
    # a pool worker builds the context on its first chunk and reuses it after
    return build_context(parse_config(config_text))


def _run_chunk(payload) -> _Chunk:
    config_text, row_fn, epsilon, indices = payload
    return row_fn(_worker_context(config_text), epsilon, indices)


def _map_chunks(context: ExperimentContext, workers: int, row_fn) -> list[tuple[float, _Chunk]]:
    """``(epsilon, row_fn(context, epsilon, indices))`` for every noise level and
    replicate chunk, in order.

    One worker runs in-process on ``context``; more map the chunks over a
    process pool.  Rows depend only on (epsilon, replicate index), so the
    output is the same for any worker count.
    """
    config = context.config
    workers = min(workers, os.cpu_count() or 1)
    tasks = [
        (eps, chunk)
        for eps in config.epsilons
        for chunk in _chunks(config.n_replicates, workers)
    ]
    if workers <= 1:
        chunks = [row_fn(context, eps, chunk) for eps, chunk in tasks]
    else:
        text = _config_text(config)
        payloads = [(text, row_fn, eps, chunk) for eps, chunk in tasks]
        pool_size = min(workers, len(tasks))
        with concurrent.futures.ProcessPoolExecutor(max_workers=pool_size) as pool:
            chunks = list(pool.map(_run_chunk, payloads))
    return [(eps, chunk) for (eps, _), chunk in zip(tasks, chunks)]


def _joined_rows(chunks: list[tuple[float, _Chunk]]) -> list[tuple[str, ...]]:
    return [row for _, chunk in chunks for row in chunk.rows]


def _column(chunks: list[tuple[float, _Chunk]], epsilon: float, name: str) -> np.ndarray:
    """One raw column over every chunk of one noise level, in replicate order."""
    return np.concatenate([chunk.columns[name] for eps, chunk in chunks if eps == epsilon])


def _hits(chunks: list[tuple[float, _Chunk]], epsilons, name: str) -> str:
    """True entries of a boolean column per noise level, comma-separated in order."""
    return ",".join(str(np.count_nonzero(_column(chunks, eps, name))) for eps in epsilons)


def _run_coverage(context: ExperimentContext, workers: int):
    config = context.config
    chunks = _map_chunks(context, workers, _coverage_rows)
    extra = [("diag.coverage_hits", _hits(chunks, config.epsilons, "covered"))]
    if config.ball_beta is not None:
        extra.append(("diag.ball_hits", _hits(chunks, config.epsilons, "ball_covered")))
    return COVERAGE_COLUMNS, _joined_rows(chunks), extra


def _run_rates(context: ExperimentContext, workers: int):
    config = context.config
    chunks = _map_chunks(context, workers, _rates_rows)
    mean_errors = [float(np.mean(_column(chunks, eps, "dual_error"))) for eps in config.epsilons]
    t_order = 2.0 if config.operator_kind == "bvp" else config.operator_t
    predicted = priors.predict_rate(t_order, config.prior_r, config.truth_alpha, 1)
    fit = bvm.rate_fit(config.epsilons, mean_errors, predicted.exponent)
    extra = [
        ("rate_slope", format(fit.slope, ".17g")),
        ("rate_r_squared", format(fit.r_squared, ".17g")),
        ("rate_predicted_exponent", format(fit.predicted_exponent, ".17g")),
        ("rate_binding_branch", predicted.which.value),
    ]
    return ("epsilon", "replicate", "dual_error"), _joined_rows(chunks), extra


def _run_tightness(context: ExperimentContext):
    config = context.config
    op_l = context.diff_op
    if op_l is None:
        raise ConfigurationError("tightness needs the elliptic differential operator")
    result = bvm.tightness_series(op_l, config.tightness_beta, config.tightness_max_modes)
    rows = [(str(j), s) for j, s in enumerate(_float_cells(result.partial_sums), start=1)]
    return ("modes", "partial_sum"), rows, [("tightness_verdict", result.verdict.value)]


def _run_concentration(context: ExperimentContext):
    config = context.config
    deltas = config.concentration_deltas
    values = priors.concentration_ladder(
        context.prior,
        context.truth,
        deltas,
        config.concentration_ambient,
        config.concentration_mc_samples,
        derive_seed(config.master_seed, 0),
    )
    rows = [
        tuple(format(x, ".17g") for x in (delta, v.approx_term, v.smallball_term, v.phi))
        for delta, v in zip(deltas, values)
    ]
    extra = [
        ("diag.smallball_hits", ",".join(str(v.estimate.hits) for v in values)),
        ("diag.smallball_log_low", ",".join(format(v.estimate.log_low, ".17g") for v in values)),
        ("diag.smallball_log_high", ",".join(format(v.estimate.log_high, ".17g") for v in values)),
    ]
    return ("delta", "approx_term", "smallball_term", "phi"), rows, extra


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
    return ("index", "family", "epsilon", "rel_distance"), rows, []


def run_command(config: ExperimentConfig, workers: int = 1) -> int:
    """Execute the configured experiment, write its CSV, and return an exit status."""
    try:
        context = build_context(config)
        if config.experiment == "coverage":
            header, rows, extra = _run_coverage(context, workers)
        elif config.experiment == "rates":
            header, rows, extra = _run_rates(context, workers)
        elif config.experiment == "tightness":
            header, rows, extra = _run_tightness(context)
        elif config.experiment == "concentration":
            header, rows, extra = _run_concentration(context)
        else:
            header, rows, extra = _run_conjugacy(context)
        emit_csv((header, rows), config.output_path, _base_metadata(context) + extra)
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
    except ConfigurationError as exc:
        print(f"error[1]: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        for key, value in resolved_items(config):
            print(f"{key}={value}")
        return 0
    if args.out is not None:
        config.output_path = args.out
    if args.seed is not None:
        config.master_seed = args.seed
    if args.workers < 1:
        print("error[1]: --workers must be at least 1", file=sys.stderr)
        return 1
    return run_command(config, workers=args.workers)


if __name__ == "__main__":
    sys.exit(main())
