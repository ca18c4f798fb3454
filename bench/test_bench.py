"""Self-tests for the benchmark: output checks, span arithmetic, config generation
and the tracing hook.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from bvmlab.cli import run_command  # noqa: E402
from bvmlab.config import parse_config  # noqa: E402

SMALL = {
    "coverage-diag-w2": dataclasses.replace(WORKLOADS["coverage-diag-w2"], replicates=20),
    "coverage-dense": dataclasses.replace(WORKLOADS["coverage-dense"], replicates=2),
}


def _coverage_output(tmp_path: Path, name: str) -> tuple[Path, checks.CoverageExpectation]:
    out = tmp_path / "results.csv"
    text = SMALL[name].config_text(seed=7, output_path=str(out))
    assert run_command(parse_config(text)) == 0
    return out, checks.coverage_expectation(text)


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    first = next(k for k, line in enumerate(lines) if not line.startswith("# ")) + 1
    lines[first:] = edit(lines[first:])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_check_rejects_perturbed_functional_mean(tmp_path, name):
    out, expected = _coverage_output(tmp_path, name)
    checks.check_coverage(str(out), expected)

    def perturb(rows):
        cells = rows[3].split(",")
        cells[2] = format(float(cells[2]) * (1 + 1e-6), ".17g")
        rows[3] = ",".join(cells)
        return rows

    _rewrite(out, perturb)
    with pytest.raises(checks.CheckError, match="functional_mean"):
        checks.check_coverage(str(out), expected)


def test_check_rejects_truncated_file(tmp_path):
    out, expected = _coverage_output(tmp_path, "coverage-diag-w2")
    data = out.read_bytes()
    out.write_bytes(data[: len(data) // 2])
    with pytest.raises(checks.CheckError):
        checks.check_coverage(str(out), expected)


def test_concentration_check_rejects_broken_tables(tmp_path):
    out = tmp_path / "c.csv"
    header = ",".join(checks.CONCENTRATION_HEADER)
    draws = 1000
    deltas = (0.02, 0.01)

    def write(rows):
        body = "\n".join(",".join(map(repr, row)) for row in rows)
        out.write_text(f"# k=v\n{header}\n{body}\n")

    s_wide, s_narrow = -math.log(500 / draws), -math.log(50 / draws)
    write([(0.02, 0.3, s_wide, 0.3 + s_wide), (0.01, 0.7, s_narrow, 0.7 + s_narrow)])
    checks.check_concentration(str(out), deltas, draws)
    write([(0.02, 0.3, s_narrow, 0.3 + s_narrow), (0.01, 0.7, s_wide, 0.7 + s_wide)])
    with pytest.raises(checks.CheckError, match="increases"):
        checks.check_concentration(str(out), deltas, draws)
    write([(0.02, 0.3, s_wide, 0.31 + s_wide), (0.01, 0.7, s_narrow, 0.7 + s_narrow)])
    with pytest.raises(checks.CheckError, match="phi"):
        checks.check_concentration(str(out), deltas, draws)


def test_self_time_on_synthetic_span_tree():
    # 0: root [0, 100]; 1: child [10, 40]; 2: grandchild [15, 35];
    # 3: child [30, 50] overlapping 1; 4: child [90, 120] running past the root
    parents = [-1, 0, 1, 0, 0]
    starts = [0, 10, 15, 30, 90]
    ends = [100, 40, 35, 50, 120]
    assert spans.self_times(parents, starts, ends) == [100 - 40 - 10, 30 - 20, 20, 20, 30]


def test_same_seed_same_config():
    for workload in WORKLOADS.values():
        assert workload.config_text(5) == workload.config_text(5)
        assert workload.config_text(5) != workload.config_text(6)
        assert parse_config(workload.config_text(5)).n_modes == 256


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    per_layer = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**per_layer, **run.TRACE_UNITS}


def test_hook_traces_spawned_workers(tmp_path):
    """Worker spans are recorded without relying on fork inheritance."""
    out = tmp_path / "results.csv"
    (tmp_path / "config.ini").write_text(SMALL["coverage-diag-w2"].config_text(3, str(out)))
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench" / "hook")]),
        BVMBENCH_TRACE_DIR=str(trace_dir),
    )
    code = (
        "import multiprocessing, sys; multiprocessing.set_start_method('spawn'); "
        "import bvmlab.cli; sys.exit(bvmlab.cli.main())"
    )
    subprocess.run(
        [sys.executable, "-c", code, "run", str(tmp_path / "config.ini"), "--workers", "2"],
        env=env, check=True, timeout=120,
    )
    totals = spans.load_totals(str(trace_dir))
    # the parent builds once, each of the 14 chunks parses and builds again
    assert totals.calls["cli.build_context"] == 15
    assert totals.calls["config.parse_config"] == 15
    assert totals.calls["posterior.posterior_update"] == 7 * 20
    assert totals.counters["cli.csv_bytes"] == out.stat().st_size
    assert totals.processes == 3


def test_peak_rss_is_the_programs_not_the_harness(tmp_path):
    """A tiny program reads as tiny although this process holds NumPy and more."""
    ballast = np.ones(64 * 2**20 // 8)  # 64 MB resident in this process
    execution = run.Execution([sys.executable, "-S", "-c", "pass"], tmp_path, dict(os.environ))
    assert execution.returncode == 0
    assert execution.peak_rss_mb < 40 < ballast.nbytes / 2**20
