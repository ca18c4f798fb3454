"""Command-line front end: experiment orchestration, deterministic parallel
replicates, and CSV emission.  Every experiment's table body goes through
``_csv_text``, which fills one row template per row and refuses non-finite
numbers.  The coverage and rates chunks' texts go to an unlinked spill file
beside the output as each chunk arrives, and reach ``emit_csv`` as pieces read
back one at a time, so the parent holds about one chunk per worker, never the
body.

Exit codes: 0 success, 1 configuration, 2 numerical, 3 rare-event,
4 ill-posedness.
"""
from __future__ import annotations

import argparse
import collections.abc
import concurrent  # the package; its futures module loads with a pool
import contextlib
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
from .config import ExperimentConfig, _keyed, parse_config, resolved_items  # noqa: E402
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
_RATES_COLUMNS = ("epsilon", "replicate", "dual_error")

# the most replicates in one chunk: the replicate engine scores a chunk in one
# block and the parent spills each chunk's rows as it arrives, so a task's
# memory is O(REPLICATE_BLOCK * n_modes) and the parent's about one chunk's
# texts per worker, for any replicate count
REPLICATE_BLOCK = 256


@dataclass
class ExperimentContext:
    """All objects an experiment needs, built once from the config by
    ``build_context``, which checks each library limit on the way."""

    config: ExperimentConfig
    basis: spectral.SpectralBasis
    forward: operators.ForwardOperator
    prior: priors.GaussianPrior
    truth: Optional[spectral.CoeffVector]  # None for experiments that read no truth
    functional: Optional[bvm.TestFunctional]
    embedding_constant: float  # the forward map's, in its weak norm
    prior_tail: float  # the prior's variance beyond the basis
    conjugacy_maps: Optional[dict[str, operators.ForwardOperator]]  # by family, for conjugacy


# the key each operator kind's builder reads
_OPERATOR_KEYS = {"psido": "operator.t", "bvp": "operator.coefficient_base", "heat": "operator.time"}


def _build_operator(config: ExperimentConfig, kind: str, basis) -> operators.ForwardOperator:
    with _keyed(_OPERATOR_KEYS[kind]):
        if kind == "psido":
            return operators.psido_multiplier(basis, config.operator_t)
        if kind == "heat":
            return operators.heat_semigroup(basis, config.operator_time)
        return operators.elliptic_operator(config.coefficient, basis)[1]


def _build_prior(config: ExperimentConfig, basis) -> priors.GaussianPrior:
    try:
        return priors.matern_prior(basis, config.prior_r, config.prior_amplitude)
    except ConfigurationError as exc:
        # at unit amplitude the variances are the decay alone, so if those
        # fail too prior.r is at fault
        try:
            priors.matern_prior(basis, config.prior_r)
        except ConfigurationError:
            raise ConfigurationError(f"key 'prior.r': {exc}") from exc
        raise ConfigurationError(f"key 'prior.amplitude': {exc}") from exc


def _build_functional(config: ExperimentConfig, basis, forward) -> bvm.TestFunctional:
    kind = config.functional_kind
    if kind == "heat_mode":
        with _keyed("functional.mode"):
            tilde = spectral.unit_vector(basis, config.functional_mode - 1)
            return bvm.heat_psi_from_representer(tilde, config.operator_time)
    if kind == "mode":
        with _keyed("functional.mode"):
            psi = spectral.unit_vector(basis, config.functional_mode - 1)
        return bvm.representer(forward, psi, config.operator_cond_limit)
    if kind == "sobolev":
        with np.errstate(over="ignore", invalid="ignore"), _keyed("functional.alpha"):
            draw = spectral.sobolev_draw(basis, config.functional_alpha, config.functional_seed)
        with _keyed("functional.band"):
            psi = spectral.bandlimit_approx(draw, config.functional_band)
        return bvm.representer(forward, psi, config.operator_cond_limit)
    # smoothed_image: the functional whose image under the differential
    # operator is a band-limited bump-windowed sine, sampled on the N-point
    # midpoint grid, where sine k aliases to 2N - k
    sine, grid = config.functional_sine, basis.grid
    if abs(sine) >= grid.size:
        raise ConfigurationError(
            f"key 'functional.sine': |sine| {abs(sine)} must stay below "
            f"the grid size oversample * n_modes = {grid.size}"
        )
    zeta = spectral.make_bump(config.functional_support, config.functional_plateau)
    window = zeta(grid) * np.sin(sine * np.pi * grid)
    with _keyed("functional.band"):
        image = spectral.bandlimit_approx(spectral.analyze(window, basis), config.functional_band)
    psi = operators.apply(forward, image)
    return bvm.representer(forward, psi, config.operator_cond_limit)


def _conjugacy_maps(
    config: ExperimentConfig, basis, forward
) -> dict[str, operators.ForwardOperator]:
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
    return maps


def build_context(config: ExperimentConfig) -> ExperimentContext:
    """Build the basis, operator, prior, truth and functional of one config,
    each once.  Each builder runs the library's own checks, and an error
    there names the key the builder reads."""
    widened = config.basis_modes > config.n_modes
    with _keyed("tightness.max_modes" if widened else "n_modes", "oversample"):
        basis = spectral.build_basis(config.basis_kind, config.basis_modes, config.oversample)
    forward = _build_operator(config, config.operator_kind, basis)
    experiment = config.experiment
    with _keyed(_OPERATOR_KEYS[config.operator_kind]):
        c = operators.embedding_constant(forward, config.ambient_exponent)
        # concentration measures the truth and its small balls in the weak norm
        if experiment == "concentration":
            with np.errstate(over="ignore"):
                weak = basis.sobolev_weights(config.ambient_exponent)
            if not np.all(weak < math.inf):
                raise ConfigurationError(
                    f"the weak norm's weights (1 + lambda_j)^{config.ambient_exponent!r} overflow"
                )
    prior = _build_prior(config, basis)
    truth = config.truth(basis) if config.reads_truth else None
    functional = _build_functional(config, basis, forward) if experiment == "coverage" else None
    maps = _conjugacy_maps(config, basis, forward) if experiment == "conjugacy" else None
    tail = priors.truncation_tail(prior)
    return ExperimentContext(config, basis, forward, prior, truth, functional, c, tail, maps)


def emit_csv(
    header: Sequence[str],
    body: str | Sequence[str],
    path: str,
    metadata: Sequence[tuple[str, object]] = (),
) -> None:
    """Write one CSV file: a '# key=value' metadata block, the header, then the
    data lines as ``_csv_text`` formats them.  ``body`` is one text or a
    sequence of pieces, written in order and never joined, so the file holds
    their concatenation and the caller's pieces are the only copy of the body.
    A metadata value is a str, or a number or list of numbers written in the
    cell format."""
    pieces = [body] if isinstance(body, str) else body
    if not any(pieces):
        raise ConfigurationError("refusing to emit an empty results table")
    # write a sibling file, then rename it over the output, so a reader never
    # sees a partial table and a failed run leaves an older file intact
    tmp = _sibling(path, "tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            for key, value in metadata:
                if not isinstance(value, str):
                    value = ",".join(_cells(np.atleast_1d(value)))
                fh.write(f"# {key}={value}\n")
            fh.write(",".join(header) + "\n")
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _sibling(path: str, suffix: str) -> str:
    """The hidden name '.{name}.{pid}.{suffix}' beside ``path``."""
    directory, name = os.path.split(path)
    return os.path.join(directory, f".{name}.{os.getpid()}.{suffix}")


class _Spill(collections.abc.Sequence):
    """Text pieces kept in a file beside the output instead of in memory.

    The file is created exclusively under a sibling name of the output and
    unlinked at once, so neither a finished nor a failed run leaves it
    behind; leaving the ``with`` block closes it.  ``write`` appends one piece
    and returns its (offset, length) in bytes.  As a sequence the spill holds
    the pieces whose extents ``order`` lists, each read back only when it is
    indexed."""

    def __init__(self, output_path: str):
        path = _sibling(output_path, "spill")
        self._file = open(path, "x+b")
        try:
            os.unlink(path)
        except BaseException:
            self._file.close()
            raise
        self.order: list[tuple[int, int]] = []

    def write(self, text: str) -> tuple[int, int]:
        data = text.encode()
        offset = self._file.tell()
        self._file.write(data)
        return offset, len(data)

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, index: int) -> str:
        offset, length = self.order[index]
        self._file.flush()
        return os.pread(self._file.fileno(), length, offset).decode()

    def __enter__(self) -> _Spill:
        return self

    def __exit__(self, *exc_info) -> None:
        self._file.close()


def _cells(values: np.ndarray) -> list[str]:
    """The one cell format: a bool array's values as true/false, a number
    array's with 17 significant digits, so a reparse gives the same doubles."""
    if values.dtype == bool:
        return ["true" if flag else "false" for flag in values.tolist()]
    return [format(x, ".17g") for x in values.tolist()]


def _csv_text(header: Sequence[str], columns: Sequence, where: str = "") -> str:
    """The CSV lines of a table body, one column per ``header`` name.

    A column is a float or bool array, a list of str cells printed as is, or
    a single value repeated on every row (a number, a str, or None printed
    empty).  A number that is not finite raises NumericalError naming its
    column, with ``where`` appended.
    """
    n_rows = next(len(c) for c in columns if isinstance(c, (list, np.ndarray)))
    # one %-template per row: a single value is formatted once into the
    # template, and the per-row cells fill it from one row-major object array;
    # '%.17g' runs the conversion format(x, '.17g') does
    template, per_row = [], []
    for name, column in zip(header, columns, strict=True):
        if column is None or isinstance(column, str):
            template.append((column or "").replace("%", "%%"))
        elif isinstance(column, list):
            template.append("%s")
            per_row.append(column)
        else:
            values = np.atleast_1d(column)
            if not np.all(np.isfinite(values)):
                raise NumericalError(f"column '{name}' is not finite{where}")
            if not np.ndim(column):
                template.append(_cells(values)[0])
            elif values.dtype == bool:
                template.append("%s")
                per_row.append(_cells(values))
            else:
                template.append("%.17g")
                per_row.append(values)
    if any(len(column) != n_rows for column in per_row):
        raise ValueError(f"every column must hold {n_rows} rows")
    cells = np.empty((n_rows, len(per_row)), dtype=object)
    for j, column in enumerate(per_row):
        cells[:, j] = column
    return (",".join(template) + "\n") * n_rows % tuple(cells.ravel().tolist())


def _base_metadata(context: ExperimentContext) -> list[tuple[str, object]]:
    numbers = [
        ("prior_tail_bound", context.prior_tail),
        ("embedding_constant_c", context.embedding_constant),
    ]
    return [*resolved_items(context.config), *numbers]


def _coverage_rows(context: ExperimentContext, run: tuple, indices: range) -> list[tuple]:
    # run is the posterior system and the credible sets of every noise level;
    # an overflow surfaces as the non-finite column that _csv_text names
    with np.errstate(over="ignore", invalid="ignore"):
        tables = bvm.replicate_table(*run, context.truth, indices, context.config.master_seed)
    replicates = [str(i) for i in indices]
    rows = []
    for t in tables:
        sets = t.sets
        columns = (sets.epsilon, replicates, t.functional_mean, t.scaled_error, t.hat_psi)
        columns += (sets.interval_radius, t.interval_covered, sets.ball_radius, t.ball_covered)
        text = _csv_text(COVERAGE_COLUMNS, columns, f" at epsilon={sets.epsilon!r}")
        ball_hits = 0 if t.ball_covered is None else int(np.count_nonzero(t.ball_covered))
        rows.append((text, (int(np.count_nonzero(t.interval_covered)), ball_hits)))
    return rows


def _rates_rows(
    context: ExperimentContext, system: posterior.PosteriorSystem, indices: range
) -> list[tuple[str, np.ndarray]]:
    config = context.config
    # in the forward map's weak norm; an overflow surfaces as the non-finite
    # column that _csv_text names
    with np.errstate(over="ignore", invalid="ignore"):
        errors = bvm.replicate_errors(
            system, config.epsilons, context.truth, indices, config.ambient_exponent,
            config.master_seed,
        )
    replicates = [str(i) for i in indices]
    return [
        (_csv_text(_RATES_COLUMNS, (e, replicates, row), f" at epsilon={e!r}"), row)
        for e, row in zip(config.epsilons, errors)
    ]


def _chunks(n: int, workers: int) -> list[range]:
    """Contiguous index ranges of ``ceil(n / workers)`` replicates, but of no more
    than ``REPLICATE_BLOCK``: a chunk holds every noise level's rows of its
    replicates, so the block size bounds what a task holds."""
    size = min(REPLICATE_BLOCK, math.ceil(n / workers))
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


def _map_chunks(context: ExperimentContext, workers: int, run, row_fn, spill: _Spill) -> list:
    """Write the CSV body of every noise level and replicate to ``spill``, whose
    pieces it orders (epsilon, replicate)-major, and return each level's chunk
    numbers, in chunk order.

    ``run`` holds the data-independent objects of every noise level, built
    once per run (the posterior system, and for coverage the credible sets),
    and ``row_fn(context, run, indices)`` returns one pair per level for a
    chunk of replicates: the chunk's CSV lines at that level, joined, and its
    numbers there (coverage's hit counts, rates' errors).  So each replicate's
    noise is drawn once for all levels.  Each chunk's texts are spilled as the
    chunk arrives, and the parent keeps only their extents and the numbers: it
    reparses no cell, joins no text and holds about one chunk per worker.  One
    worker, or one chunk, runs in-process; more map the chunks over a process
    pool, which yields them in chunk order, and whose initializer hands each
    worker the run once.  Rows depend only on (epsilon, replicate index), so
    the output is the same for any worker count.
    """
    workers = min(workers, os.cpu_count() or 1)
    tasks = _chunks(context.config.n_replicates, workers)
    workers = min(workers, len(tasks))
    levels = range(len(context.config.epsilons))
    extents, numbers = [[] for _ in levels], [[] for _ in levels]

    def keep(chunk):
        for k, (text, number) in enumerate(chunk):
            extents[k].append(spill.write(text))
            numbers[k].append(number)

    if workers <= 1:
        # a chunk's texts are freed before the next chunk is scored
        for indices in tasks:
            keep(row_fn(context, run, indices))
    else:
        # loaded here, so a run that starts no pool does not pay for the module
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=((row_fn, context, run),),
        ) as pool:
            for chunk in pool.map(_run_chunk, tasks):
                keep(chunk)
    spill.order = [extent for level in extents for extent in level]
    return numbers


def _run_coverage(context: ExperimentContext, workers: int, spill: _Spill):
    config = context.config
    system = posterior.posterior_system(context.prior, context.forward)
    levels = [
        bvm.credible_sets(system, epsilon, context.functional, config.level, config.ball_beta)
        for epsilon in config.epsilons
    ]
    hits = _map_chunks(context, workers, (system, levels), _coverage_rows, spill)
    # per level, the summed (interval, ball) hits of its chunks
    interval_hits, ball_hits = np.sum(hits, axis=1).T.tolist()
    extra = [("diag.coverage_hits", interval_hits)]
    if config.ball_beta is not None:
        extra.append(("diag.ball_hits", ball_hits))
    return COVERAGE_COLUMNS, spill, extra


def _run_rates(context: ExperimentContext, workers: int, spill: _Spill):
    config = context.config
    system = posterior.posterior_system(context.prior, context.forward)
    errors = _map_chunks(context, workers, system, _rates_rows, spill)
    # the doubles the dual_error cells were formatted from, so a reparse of the
    # file's cells gives the same means
    mean_errors = [float(np.mean(np.concatenate(level))) for level in errors]
    predicted = priors.predict_rate(-config.ambient_exponent, config.prior_r, config.truth_alpha)
    fit = bvm.rate_fit(config.epsilons, mean_errors, predicted.exponent)
    names = ("slope", "r_squared", "predicted_exponent")
    extra = [(f"rate_{name}", getattr(fit, name)) for name in names]
    extra.append(("rate_binding_branch", predicted.which.value))
    return _RATES_COLUMNS, spill, extra


def _run_tightness(context: ExperimentContext):
    config = context.config
    # validate admits tightness only for the elliptic solution map, whose
    # companion is the differential operator
    result = bvm.tightness_series(
        context.forward.companion, config.tightness_beta, config.tightness_max_modes
    )
    header = ("modes", "partial_sum")
    modes = [str(j) for j in range(1, config.tightness_max_modes + 1)]
    text = _csv_text(header, (modes, result.partial_sums))
    return header, text, [("tightness_verdict", result.verdict.value)]


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
    header = ("delta", "approx_term", "smallball_term", "phi")
    columns = [np.array([getattr(v, name) for v in values]) for name in header[1:]]
    extra = [
        (f"diag.smallball_{name}", [getattr(v.estimate, name) for v in values])
        for name in ("hits", "log_low", "log_high", "log_exact")
    ]
    extra.append(("diag.quadrature_rtol", priors.QUADRATURE_RTOL))
    return header, _csv_text(header, [np.array(deltas), *columns]), extra


_CONJUGACY_FAMILIES = ("bvp", "psido", "heat")


def _run_conjugacy(context: ExperimentContext):
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
        obs = posterior.observe(op, truth, epsilon, derive_seed(config.master_seed, 2**33 + i))
        mean = posterior.posterior_update(prior, op, obs)
        tik = posterior.tikhonov_solve(prior, op, obs)
        gaps[i] = np.linalg.norm(tik.coeffs - mean.coeffs) / max(
            np.linalg.norm(mean.coeffs), np.finfo(float).tiny
        )
    worst = float(np.max(gaps))
    if worst > 1e-8:
        raise NumericalError(
            f"Tikhonov minimiser and posterior mean disagree by {worst:.3g} (> 1e-8)"
        )
    header = ("index", "family", "epsilon", "rel_distance")
    text = _csv_text(header, ([str(i) for i in range(n)], families, epsilons, gaps))
    return header, text, []


def _failures() -> tuple[type[BaseException], ...]:
    """What a failed build or run raises besides a write error, each reported as
    one stderr line.  A broken process pool is among them once
    ``concurrent.futures`` is loaded; before that no pool can exist."""
    futures = sys.modules.get("concurrent.futures")
    broken = () if futures is None else (futures.BrokenExecutor,)
    return (BvmlabError, MemoryError, np.linalg.LinAlgError, *broken)


def _failed(exc: BaseException) -> int:
    """Print ``exc`` as the one stderr line of a failed command; return its exit code."""
    code = next((code for err_type, code in _EXIT_CODES if isinstance(exc, err_type)), 2)
    message = str(exc) if isinstance(exc, BvmlabError) else f"{type(exc).__name__}: {exc}"
    print(f"error[{code}]: {message}", file=sys.stderr)
    return code


def _unwritable(exc: OSError) -> int:
    """Print the one stderr line of an output that cannot be written; return 1."""
    print(f"error[1]: cannot write output: {exc}", file=sys.stderr)
    return 1


def _checked_build(config: ExperimentConfig) -> ExperimentContext:
    """The run's context, built only for an ``output_path`` that is not a
    directory, so that ``run`` and ``validate`` refuse the same configs."""
    if os.path.isdir(config.output_path):
        raise IsADirectoryError(f"output_path {config.output_path!r} is a directory")
    return build_context(config)


def run_command(config: ExperimentConfig, workers: int = 1) -> int:
    """Execute the configured experiment, write its CSV, and return an exit status."""
    path = config.output_path
    try:
        context = _checked_build(config)
        experiment = config.experiment
        # the chunked experiments' spill is made before any replicate is
        # scored, so an output directory that cannot be written fails first
        chunked = experiment in ("coverage", "rates")
        with _Spill(path) if chunked else contextlib.nullcontext() as spill:
            if experiment == "coverage":
                header, body, extra = _run_coverage(context, workers, spill)
            elif experiment == "rates":
                header, body, extra = _run_rates(context, workers, spill)
            elif experiment == "tightness":
                header, body, extra = _run_tightness(context)
            elif experiment == "concentration":
                header, body, extra = _run_concentration(context)
            else:
                header, body, extra = _run_conjugacy(context)
            emit_csv(header, body, path, _base_metadata(context) + extra)
    except OSError as exc:
        return _unwritable(exc)
    except _failures() as exc:
        return _failed(exc)
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
    validate_parser = sub.add_parser("validate", help="parse a configuration and build its run")
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
        if args.command == "validate":
            # the checks and the build run makes, so a refusal there exits
            # with run's code
            _checked_build(config)
    except OSError as exc:
        return _unwritable(exc)
    except _failures() as exc:
        return _failed(exc)

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
