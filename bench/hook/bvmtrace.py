"""Span tracer for bvmlab processes, installed by this directory's sitecustomize.

Every public function of the traced modules is replaced, in every bvmlab
module namespace that refers to it, by a wrapper that records a span: name,
parent span, start and end (``perf_counter_ns``, CLOCK_MONOTONIC on Linux,
so spans of different processes share one clock).  Counters record
``CoeffVector`` constructions, O(n^3) LAPACK calls by the module of the
innermost span, and the work a few functions are asked to do, read from
their arguments.

Spans stay in memory and each process writes them to
``<out_dir>/spans-<pid>.json`` when it exits: at interpreter exit, or from a
multiprocessing finalizer in pool workers, which leave through ``os._exit``.
Forked workers drop what they inherited from the parent.  Workers started
with ``spawn`` run this hook themselves, so the wrappers do not depend on
fork inheritance.
"""
from __future__ import annotations

import atexit
import collections
import functools
import importlib
import inspect
import json
import multiprocessing.util
import os
import sys
import time
import types
from array import array

# seeds does one 64-bit mix per stream; nothing there is worth a span
TRACED_MODULES = ("spectral", "operators", "priors", "posterior", "bvm", "config", "cli")

# O(n^3) LAPACK entry points, counted by the module of the innermost open span
N3_FUNCTIONS = (
    ("numpy.linalg", "cholesky"),
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "eigvalsh"),
    ("scipy.linalg", "cho_factor"),
    ("scipy.linalg", "cholesky"),
    ("scipy.linalg", "eigh"),
    ("scipy.linalg", "eigvalsh"),
)

# span name -> (counter, work done by one call, from its bound arguments)
ARGUMENT_COUNTERS = {
    "posterior.credible_ball_radius": ("posterior.ball_draws", lambda a: a["n_draws"]),
    "priors.small_ball_logprob": ("priors.smallball_draws", lambda a: a["mc_samples"]),
    "cli.emit_csv": ("cli.csv_bytes", lambda a: os.path.getsize(a["path"])),
}


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.names: list[str] = []
        self.modules: list[str] = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list[int] = []
        self.counters: collections.Counter = collections.Counter()
        self.flushed = False

    def _span_wrapper(self, module: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(f"{module}.{fn.__name__}")
        self.modules.append(module)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.ends.append(0)
            self.stack.append(index)
            self.starts.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter_ns()
                self.stack.pop()
            if after is not None:
                after(args, kwargs)
            return result

        return traced

    def _argument_counter(self, fn, counter: str, work):
        signature = inspect.signature(fn)

        def after(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counters[counter] += work(bound.arguments)

        return after

    def _n3_wrapper(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            module = self.modules[self.name_ids[self.stack[-1]]] if self.stack else "none"
            self.counters[f"{module}.n3_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        import bvmlab.cli  # noqa: F401  (imports every traced module)
        from bvmlab.spectral import CoeffVector

        replacements = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"bvmlab.{short}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not isinstance(fn, types.FunctionType):
                    continue
                after = None
                if f"{short}.{attr}" in ARGUMENT_COUNTERS:
                    after = self._argument_counter(fn, *ARGUMENT_COUNTERS[f"{short}.{attr}"])
                replacements[id(fn)] = self._span_wrapper(short, fn, after)
        for name, module in list(sys.modules.items()):
            if name == "bvmlab" or name.startswith("bvmlab."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replacements and isinstance(value, types.FunctionType):
                        setattr(module, attr, replacements[id(value)])

        post_init = CoeffVector.__post_init__

        def counted_post_init(vector):
            self.counters["spectral.coeff_vectors"] += 1
            post_init(vector)

        CoeffVector.__post_init__ = counted_post_init

        for module_name, attr in N3_FUNCTIONS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._n3_wrapper(getattr(module, attr)))

        atexit.register(self.flush)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # runs in every multiprocessing child, forked or spawned, before its target
        if os.getpid() != self.pid:
            self._reset()
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def flush(self) -> None:
        if self.flushed or os.getpid() != self.pid:
            return
        self.flushed = True
        record = {
            "pid": self.pid,
            "ppid": os.getppid(),
            "names": self.names,
            "name_id": self.name_ids.tolist(),
            "parent": self.parents.tolist(),
            "start_ns": self.starts.tolist(),
            "end_ns": self.ends.tolist(),
            "counters": dict(self.counters),
        }
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        os.replace(path + ".tmp", path)


def install(out_dir: str) -> Tracer:
    tracer = Tracer(out_dir)
    tracer.install()
    return tracer
