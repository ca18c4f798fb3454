"""The benchmark's workloads and the configs it generates for them.

Every workload uses ``n_modes=256``.  Only ``master_seed`` depends on the
workload seed, so every seed asks for the same amount of work.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

# bvmlab's default noise ladder, written out so the workload does not move
# if the program's default does
DEFAULT_EPSILONS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiment: str  # "coverage" or "concentration"
    workers: int
    extra: tuple[tuple[str, str], ...] = ()
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    replicates: int = 0
    ball_beta: Optional[float] = None
    deltas: tuple[float, ...] = ()
    draws: int = 0

    @property
    def units(self) -> int:
        """Work in one execution: replicate rows, or small-ball draws over the delta ladder."""
        if self.experiment == "coverage":
            return len(self.epsilons) * self.replicates
        return len(self.deltas) * self.draws

    def master_seed(self, seed: int) -> int:
        digest = hashlib.sha256(f"{self.name}:{seed}".encode()).digest()
        return int.from_bytes(digest[:4], "big")

    def config_text(self, seed: int, output_path: str = "results.csv") -> str:
        lines = [f"experiment={self.experiment}", "n_modes=256"]
        lines += [f"{key}={value}" for key, value in self.extra]
        if self.experiment == "coverage":
            lines.append("epsilons=" + ",".join(repr(e) for e in self.epsilons))
            lines.append(f"n_replicates={self.replicates}")
            if self.ball_beta is not None:
                lines.append(f"ball_beta={self.ball_beta!r}")
        else:
            lines.append("concentration.deltas=" + ",".join(repr(d) for d in self.deltas))
            lines.append(f"concentration.mc_samples={self.draws}")
        lines.append(f"master_seed={self.master_seed(seed)}")
        lines.append(f"output_path={output_path}")
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="coverage-dense",
            why="dense Galerkin posterior: per-replicate Cholesky, eigvalsh and ball eigh; "
            "where factor reuse and a once-per-epsilon radius show",
            experiment="coverage",
            workers=1,
            extra=(("operator.kind", "bvp"), ("operator.coefficient", "sine")),
            epsilons=(1e-2, 1e-3, 1e-4),
            replicates=10,
            ball_beta=3.5,
        ),
        Workload(
            name="coverage-diag-w2",
            why="diagonal posterior, 28k cheap replicates on 2 workers: Python overhead, "
            "process pool and a 3 MB CSV; dense-factor and ball changes predict no change",
            experiment="coverage",
            workers=2,
            extra=(("operator.kind", "bvp"),),
            replicates=4000,
        ),
        Workload(
            name="smallball-ladder",
            why="concentration on a 4-delta ladder, 200k draws each: almost all time in "
            "small_ball_logprob; never touches posterior or bvm",
            experiment="concentration",
            workers=1,
            deltas=(0.02, 0.01, 0.005, 0.0025),
            draws=200_000,
        ),
    )
}
