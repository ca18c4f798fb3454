"""Reading the tracer's span files and turning them into per-layer metrics."""
from __future__ import annotations

import collections
import glob
import json
import os
from dataclasses import dataclass, field


@dataclass
class LayerTotals:
    calls: collections.Counter = field(default_factory=collections.Counter)
    seconds: collections.Counter = field(default_factory=collections.Counter)
    self_seconds: collections.Counter = field(default_factory=collections.Counter)
    counters: collections.Counter = field(default_factory=collections.Counter)
    processes: int = 0


def self_times(parents: list[int], starts: list[int], ends: list[int]) -> list[int]:
    """Each span's duration minus the part of its interval that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = collections.defaultdict(list)
    for child, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[child], ends[child]))
    result = []
    for span, (start, end) in enumerate(zip(starts, ends)):
        covered, reach = 0, start
        for lo, hi in sorted(children.get(span, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def load_totals(trace_dir: str) -> LayerTotals:
    """Sum calls, time and self time per span name, and counters, over every process."""
    totals = LayerTotals()
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        totals.counters.update(record["counters"])
        if not record["name_id"]:
            continue
        totals.processes += 1
        names = record["names"]
        starts, ends = record["start_ns"], record["end_ns"]
        own = self_times(record["parent"], starts, ends)
        for k, name_id in enumerate(record["name_id"]):
            if ends[k] == 0:  # still open when the process exited
                continue
            name = names[name_id]
            totals.calls[name] += 1
            totals.seconds[name] += (ends[k] - starts[k]) * 1e-9
            totals.self_seconds[name] += own[k] * 1e-9
    return totals


# metric -> (unit, value from the totals)
PER_LAYER = {
    "posterior.update_calls": ("count", lambda t: t.calls["posterior.posterior_update"]),
    "posterior.update_s": ("s", lambda t: t.seconds["posterior.posterior_update"]),
    "posterior.n3_calls": ("count", lambda t: t.counters["posterior.n3_calls"]),
    "posterior.ball_radius_s": ("s", lambda t: t.seconds["posterior.credible_ball_radius"]),
    "posterior.ball_draws": ("count", lambda t: t.counters["posterior.ball_draws"]),
    "posterior.noise_draw_s": ("s", lambda t: t.seconds["posterior.noise_draw"]),
    "posterior.marginal_s": ("s", lambda t: t.seconds["posterior.functional_marginal"]),
    "bvm.run_replicates_s": ("s", lambda t: t.seconds["bvm.run_replicates"]),
    "bvm.self_s": ("s", lambda t: t.self_seconds["bvm.run_replicates"]),
    "bvm.representer_s": ("s", lambda t: t.seconds["bvm.representer"]),
    "spectral.coeff_vectors": ("count", lambda t: t.counters["spectral.coeff_vectors"]),
    "spectral.build_basis_s": ("s", lambda t: t.seconds["spectral.build_basis"]),
    "operators.assembly_s": ("s", lambda t: t.seconds["operators.elliptic_operator"]),
    "operators.fisher_solve_s": ("s", lambda t: t.seconds["operators.fisher_solve"]),
    "priors.smallball_calls": ("count", lambda t: t.calls["priors.small_ball_logprob"]),
    "priors.smallball_s": ("s", lambda t: t.seconds["priors.small_ball_logprob"]),
    "priors.smallball_draws": ("count", lambda t: t.counters["priors.smallball_draws"]),
    "config.parses": ("count", lambda t: t.calls["config.parse_config"]),
    "config.parse_s": ("s", lambda t: t.seconds["config.parse_config"]),
    "cli.context_builds": ("count", lambda t: t.calls["cli.build_context"]),
    "cli.build_context_s": ("s", lambda t: t.seconds["cli.build_context"]),
    "cli.emit_s": ("s", lambda t: t.seconds["cli.emit_csv"]),
    "cli.csv_bytes": ("bytes", lambda t: t.counters["cli.csv_bytes"]),
    "cli.self_s": ("s", lambda t: t.self_seconds["cli.run_command"]),
}
