"""Command-line front end: the build of a run, the run of its experiment's
record from ``experiments.EXPERIMENTS``, deterministic parallel replicates,
and CSV emission.  Every experiment's table body goes through
``_csv_text``, which fills one row template per row and refuses non-finite
numbers, and then to a nameless spill file beside the output: a chunked
experiment's texts as each chunk arrives, any other's as one text.  They
reach ``emit_csv`` as pieces read back one at a time, so the parent holds
about one chunk per worker, never the body.

Exit codes: 0 success, 1 configuration, 2 numerical, 3 rare-event,
4 ill-posedness.
"""
from __future__ import annotations

import argparse
import collections.abc
import concurrent  # the package; its futures module loads with a pool
import functools
import importlib.util
import math
import os
import sys
import tempfile  # NumPy loads it too
from dataclasses import dataclass
from typing import Optional, Sequence

# parallelism comes from --workers: one BLAS thread per process unless the user
# set one; this must run before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import bvm, operators, priors, spectral  # noqa: E402
from .config import ExperimentConfig, parse_config, resolved_items  # noqa: E402
from .errors import (  # noqa: E402
    BvmlabError,
    ConfigurationError,
    IllPosedError,
    NumericalError,
    RareEventError,
    _keyed,
)
from .experiments import EXPERIMENTS, _OPERATOR_KEYS, Experiment, _build_operator  # noqa: E402

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
    experiment: Experiment  # the config's record in experiments.EXPERIMENTS
    basis: spectral.SpectralBasis
    forward: operators.ForwardOperator
    prior: priors.GaussianPrior
    truth: Optional[spectral.CoeffVector]  # None for experiments that read no truth
    embedding_constant: float  # the forward map's, in its weak norm
    prior_tail: float  # the prior's variance beyond the basis
    # built by the experiment's record: coverage's functional, conjugacy's maps by family
    functional: Optional[bvm.TestFunctional] = None
    conjugacy_maps: Optional[dict[str, operators.ForwardOperator]] = None


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


def build_context(config: ExperimentConfig) -> ExperimentContext:
    """Build the basis, operator, prior, truth and what the experiment adds,
    each once.  Each builder runs the library's own checks, and an error
    there names the key the builder reads."""
    experiment = EXPERIMENTS[config.experiment]
    n_modes, key = experiment.basis_modes(config)
    with _keyed(key, "oversample"):
        basis = spectral.build_basis(config.basis_kind, n_modes, config.oversample)
    forward = _build_operator(config, config.operator_kind, basis)
    with _keyed(_OPERATOR_KEYS[config.operator_kind]):
        c = operators.embedding_constant(forward, config.ambient_exponent)
    prior = _build_prior(config, basis)
    truth = config.truth(basis) if experiment.reads_truth else None
    built = experiment.build(config, basis, forward)
    tail = priors.truncation_tail(prior)
    return ExperimentContext(config, experiment, basis, forward, prior, truth, c, tail, **built)


def emit_csv(
    header: Sequence[str],
    body: Sequence[str],
    path: str,
    metadata: Sequence[tuple[str, object]] = (),
) -> None:
    """Write one CSV file: a '# key=value' metadata block, the header, then the
    data lines as ``_csv_text`` formats them.  ``body`` is a sequence of
    pieces, written in order and never joined, so the file holds their
    concatenation and the caller's pieces are the only copy of the body.  A
    metadata value is a str, or a number or list of numbers written in the
    cell format."""
    if not any(body):
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
            fh.writelines(body)
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

    The file is a ``tempfile.TemporaryFile`` in the output's directory, which
    never has a name on Linux and is unlinked at once on other POSIX systems,
    so neither a finished nor a failed run leaves it behind; leaving the
    ``with`` block closes it.  ``write`` appends one piece and returns its
    (offset, length) in bytes.  As a sequence the spill holds the pieces
    whose extents ``order`` lists, each read back only when it is indexed."""

    def __init__(self, output_path: str):
        self._file = tempfile.TemporaryFile(dir=os.path.dirname(output_path) or os.curdir)
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


def _chunks(n: int, workers: int) -> list[range]:
    """Contiguous index ranges of ``ceil(n / workers)`` replicates, but of no more
    than ``REPLICATE_BLOCK``: a chunk holds every noise level's rows of its
    replicates, so the block size bounds what a task holds."""
    size = min(REPLICATE_BLOCK, math.ceil(n / workers))
    return [range(lo, min(lo + size, n)) for lo in range(0, n, size)]


# the modules hashlib builds its digests from when OpenSSL's _hashlib is absent
_BUILTIN_DIGESTS = ("_md5", "_sha1", "_blake2", "_sha3") + (
    ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
)


def _skip_openssl() -> None:
    """Block OpenSSL's ``_hashlib`` before ``numpy.random`` loads.

    ``numpy.random`` imports ``secrets``, ``hmac`` and ``hashlib``, whose
    ``_hashlib`` maps libcrypto (3.7 MB resident), although nothing here
    hashes and every stream is seeded explicitly.  A ``None`` entry in
    ``sys.modules`` makes that import fail, so ``hashlib`` and ``hmac`` use
    CPython's built-in digests.  ``main`` and the pool's initializer call
    this, never an import of the module.  An interpreter that lacks a built-in
    digest is left alone, since ``hashlib`` would then log an error per
    missing algorithm to stderr; ``find_spec`` looks for them without loading
    anything.  An already loaded ``_hashlib`` is kept."""
    if all(importlib.util.find_spec(name) for name in _BUILTIN_DIGESTS):
        sys.modules.setdefault("_hashlib", None)


# the (context, run) a pool worker scores its chunks with: the pool's
# initializer stores it once per worker, inherited under fork and pickled once
# otherwise, so a task is an index range and no worker builds or factors anything
_worker_run: Optional[tuple] = None


def _init_worker(run: tuple) -> None:
    global _worker_run
    # a spawned or forkserver worker starts without the parent's sys.modules
    _skip_openssl()
    _worker_run = run


def _run_chunk(indices: range) -> list[tuple]:
    return _chunk_texts(*_worker_run, indices)


def _chunk_texts(context: ExperimentContext, run, indices: range) -> list[tuple]:
    """One chunk's CSV text and numbers at each noise level: the experiment's
    row function scores the chunk, and its columns are formatted here, in the
    process that scored them."""
    experiment = context.experiment
    levels = experiment.rows(context, run, indices)
    return [
        (_csv_text(experiment.header, columns, f" at epsilon={epsilon!r}"), number)
        for epsilon, (columns, number) in zip(context.config.epsilons, levels)
    ]


def _map_chunks(context: ExperimentContext, workers: int, spill: _Spill, run) -> list:
    """Write the CSV body of every noise level and replicate to ``spill``, whose
    pieces it orders (epsilon, replicate)-major, and return each level's chunk
    numbers, in chunk order.

    ``run`` holds the data-independent objects of every noise level, built
    once per run (the posterior system, and for coverage the credible sets),
    and ``_chunk_texts`` returns one pair per level for a chunk of replicates:
    the chunk's CSV lines at that level, joined, and its numbers there
    (coverage's hit counts, rates' errors).  So each replicate's noise is
    drawn once for all levels.  Each chunk's texts are spilled as the chunk
    arrives, and the parent keeps only their extents and the numbers: it
    reparses no cell, joins no text and holds about one chunk per worker.  One
    worker, or one chunk, runs in-process; more map the chunks over a process
    pool, which yields them in chunk order, and whose initializer hands each
    worker the context and the run once.  Rows depend only on (epsilon,
    replicate index), so the output is the same for any worker count.
    """
    # the CPUs this process may run on, where the platform reports its
    # affinity: more workers than those would only time-share them
    if hasattr(os, "sched_getaffinity"):
        workers = min(workers, len(os.sched_getaffinity(0)))
    else:
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
            keep(_chunk_texts(context, run, indices))
    else:
        # loaded here, so a run that starts no pool does not pay for the module
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=((context, run),),
        ) as pool:
            for chunk in pool.map(_run_chunk, tasks):
                keep(chunk)
    spill.order = [extent for level in extents for extent in level]
    return numbers


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
        header = context.experiment.header
        # the spill is made before anything is computed, so an output
        # directory that cannot be written fails first
        with _Spill(path) as spill:
            score_chunks = functools.partial(_map_chunks, context, workers, spill)
            columns, extra = context.experiment.run(context, score_chunks)
            # a chunked experiment has spilled its rows; any other returns its table
            if columns is not None:
                spill.order = [spill.write(_csv_text(header, columns))]
            emit_csv(header, spill, path, _base_metadata(context) + extra)
    except OSError as exc:
        return _unwritable(exc)
    except _failures() as exc:
        return _failed(exc)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    _skip_openssl()
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
