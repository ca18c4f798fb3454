"""bvmlab benchmark: runs a workload the way a user does and reports its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.

--trace 0  Closed loop, one client: each execution is a fresh
           ``python -m bvmlab.cli run config.ini --workers N`` started after
           the previous one exits, for S seconds.  Every output is checked.
           Before each execution, a fresh set-up process times importing
           ``bvmlab.cli``, ``parse_config`` and ``build_context``.
--trace 1  Alternates untraced and traced executions for S seconds, then
           times one execution with one BLAS thread as a reference.  Traced
           executions load the start-up hook in ``bench/hook``, which wraps
           the public functions of each bvmlab module in every process,
           pool workers included.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
name every metric with its unit, ``failed_frac`` and the run's environment.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# thread-count variables cleared for the program, so every run gets the
# threading users get by default
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OMP_THREAD_LIMIT",
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "MKL_NUM_THREADS",
    "MKL_DYNAMIC",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "NUMEXPR_MAX_THREADS",
)
ONE_BLAS_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
import bvmlab.cli
from bvmlab.config import parse_config
with open(sys.argv[1], encoding="utf-8") as fh:
    bvmlab.cli.build_context(parse_config(fh.read()))
print(repr(time.perf_counter() - t0))
"""
TRACED_MAIN = "import sys, bvmlab.cli; sys.exit(bvmlab.cli.main())"

E2E_UNITS = {"work_per_s": "1/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# traced-run metrics besides the per-layer totals of spans.PER_LAYER
TRACE_UNITS = {
    "spectral.coeff_vectors_per_row": "count/row",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "reference.one_blas_thread_wall_s": "s",
}


class Execution:
    """One program process (with its workers): exit code, wall time, peak RSS.

    The process is started by ``launch.py``, a bare interpreter that imports
    no NumPy, so the peak RSS is the program's and not this harness's.
    """

    def __init__(self, argv: list[str], cwd: Path, env: dict):
        stdout_path, stderr_path = cwd / "stdout.txt", cwd / "stderr.txt"
        launcher = [sys.executable, "-I", "-S", str(BENCH / "launch.py"), str(stdout_path), str(stderr_path)]
        report = subprocess.run(launcher + argv, cwd=cwd, env=env, stdout=subprocess.PIPE, check=True)
        result = json.loads(report.stdout.decode().strip().splitlines()[-1])
        self.returncode = result["returncode"]
        self.wall_s = result["wall_s"]
        self.peak_rss_mb = result["peak_rss_kb"] / 1024.0
        self.stdout = stdout_path.read_text(errors="replace")
        self.stderr = stderr_path.read_text(errors="replace")
        self.ok = False  # set by the output check


def program_env() -> tuple[dict, dict]:
    """The program's environment, and the thread-count variables cleared from it."""
    env = dict(os.environ)
    cleared = {name: env.pop(name) for name in THREAD_VARIABLES if name in env}
    env.pop("BVMBENCH_TRACE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env, cleared


def environment_record(cleared: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cleared_thread_variables": cleared,
    }


class Bench:
    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        config_text = workload.config_text(seed)
        (work_dir / "config.ini").write_text(config_text, encoding="utf-8")
        self.env, self.cleared = program_env()
        hooked = os.pathsep.join([str(ROOT / "src"), str(BENCH / "hook")])
        self.traced_env = dict(self.env, PYTHONPATH=hooked)
        self.argv = ["run", "config.ini", "--workers", str(workload.workers)]
        if workload.experiment == "coverage":
            self.expected = checks.coverage_expectation(config_text)
        self.failures: list[str] = []

    def setup_time(self) -> float:
        argv = [sys.executable, "-c", SETUP_SCRIPT, "config.ini"]
        run = Execution(argv, self.work_dir, self.env)
        if run.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{run.stderr}")
        return float(run.stdout.strip().splitlines()[-1])

    def execute(self, env: dict | None = None, traced: bool = False) -> Execution:
        output = self.work_dir / "results.csv"
        output.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, "-c", TRACED_MAIN, *self.argv]
        else:
            argv = [sys.executable, "-m", "bvmlab.cli", *self.argv]
        run = Execution(argv, self.work_dir, env or self.env)
        run.ok = self.check(run, output)
        return run

    def check(self, run: Execution, output: Path) -> bool:
        try:
            if run.returncode != 0:
                raise checks.CheckError(f"exit code {run.returncode}: {run.stderr.strip()[-500:]}")
            if self.workload.experiment == "coverage":
                checks.check_coverage(str(output), self.expected)
            else:
                checks.check_concentration(str(output), self.workload.deltas, self.workload.draws)
        except (checks.CheckError, OSError) as exc:
            self.failures.append(str(exc))
            print(f"execution failed: {exc}", file=sys.stderr)
            return False
        return True


def closed_loop(bench: Bench, seconds: float) -> dict:
    # one set-up process before each execution, so that set-up and
    # execution times sample the same stretch of the run
    setups, runs = [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        setups.append(bench.setup_time())
        runs.append(bench.execute())
    failed = sum(not r.ok for r in runs)
    good = [r for r in runs if r.ok] or runs
    metrics = {
        "work_per_s": statistics.median(bench.workload.units / r.wall_s for r in good),
        "wall_s": statistics.median(r.wall_s for r in good),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in good),
    }
    return {
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in metrics.items()},
        "notes": {
            "executions": len(runs),
            "wall_s_samples": [round(r.wall_s, 3) for r in runs],
            "setup_s_samples": [round(t, 3) for t in setups],
        },
    }


def traced_loop(bench: Bench, seconds: float) -> dict:
    untraced, traced, layer_values, processes = [], [], [], []
    workload = bench.workload
    rows = workload.units if workload.experiment == "coverage" else len(workload.deltas)
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(bench.execute())
        trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=bench.work_dir))
        run = bench.execute(dict(bench.traced_env, BVMBENCH_TRACE_DIR=str(trace_dir)), traced=True)
        traced.append(run)
        totals = spans.load_totals(str(trace_dir))
        if run.ok and totals.processes == 0:
            run.ok = False
            bench.failures.append("traced execution wrote no spans")
        processes.append(totals.processes)
        layer_values.append({name: get(totals) for name, (_, get) in spans.PER_LAYER.items()})
        shutil.rmtree(trace_dir)
    reference = bench.execute(dict(bench.env, **ONE_BLAS_THREAD))
    runs = untraced + traced + [reference]
    failed = sum(not r.ok for r in runs)

    metrics = {
        name: {"value": statistics.median(v[name] for v in layer_values), "unit": unit}
        for name, (unit, _) in spans.PER_LAYER.items()
    }
    traced_wall = statistics.median(r.wall_s for r in traced)
    extra = {
        "spectral.coeff_vectors_per_row": metrics["spectral.coeff_vectors"]["value"] / rows,
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / statistics.median(r.wall_s for r in untraced),
        "reference.one_blas_thread_wall_s": reference.wall_s,
    }
    metrics.update({name: {"value": v, "unit": TRACE_UNITS[name]} for name, v in extra.items()})
    return {
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
        "notes": {
            "traced_executions": len(traced),
            "untraced_executions": len(untraced),
            "traced_processes": processes,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bvmlab" / "cli.py").is_file():
        print(f"error: no bvmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bvmlab

    if not Path(bvmlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported bvmlab from {bvmlab.__file__}, not this checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    try:
        bench = Bench(workload, args.seed, work_dir)
        result = (traced_loop if args.trace else closed_loop)(bench, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed}: {workload.units} units per execution, "
          f"--workers {workload.workers}")
    print("env " + json.dumps(environment_record(bench.cleared), sort_keys=True))
    notes = result.pop("notes")
    print("notes " + json.dumps(notes))
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} 1")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for failure in bench.failures:
        print(f"failure: {failure}")
    result = {"correct": not bench.failures, **result}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
