"""Benchmark workloads and their cold graph set-up.

Each workload fixes a code distance, window length, fault rate, decoder and
command path (memory windows through ``estimate_rate`` or lifetime trials
through ``estimate_lifetime``).  Everything runs single-threaded.

Run as a script, ``python3 bench/workloads.py <workload>`` times one cold
set-up in this fresh process and prints the seconds.  ``run.py`` uses it for
its repeated set-up samples: graph building caches fault enumerations per
process, so only a fresh process can time a second cold set-up.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# one thread per process, also inside numpy's and scipy's native libraries
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if not (SRC / "surfdec" / "__init__.py").is_file():
    sys.exit(f"bench: the surfdec sources are missing ({SRC / 'surfdec'})")
sys.path.insert(0, str(SRC))

from surfdec import code, graph  # noqa: E402
from surfdec.experiments import SimConfig  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "memory" or "lifetime"
    L: int
    T: int
    p: float
    decoder: str
    latency_windows: int  # fresh windows per round, each timed with one `decode` call
    oracle_windows: int  # of the first round's, windows re-checked after the timed phases
    setup_samples: int  # cold set-ups per run: this process's and fresh processes'

    def config(self, trials: int, seed: int) -> SimConfig:
        return SimConfig(
            L=self.L,
            p=self.p,
            trials=trials,
            seed=seed,
            T=self.T,
            decoder=self.decoder,
            threads=1,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("life-d5-p005-irmwpm", "lifetime", 5, 5, 0.005, "irmwpm", 100, 40, 5),
        Workload("mem-d7-p001-mwpm", "memory", 7, 7, 0.001, "mwpm", 100, 40, 3),
    )
}


def decode_kwargs(cfg: SimConfig) -> dict:
    """The keyword arguments the command passes to ``decode`` for ``cfg``.

    The throughput blocks compare these with the keyword arguments of the
    command's first ``decode`` call, so the latency phase cannot drift
    from what the command runs.
    """
    return {
        "max_iterations": 0 if cfg.decoder == "mwpm" else cfg.max_iterations,
        "stopping": cfg.stopping,
        "reweight_boundary": cfg.reweight_boundary,
        "raise_on_violation": False,
        "prune_neighbors": cfg.prune_neighbors,
    }


@dataclass
class Setup:
    layout: object
    circuit: object
    gx: object
    gz: object
    cc: tuple | None  # code-capacity pair of the lifetime checks


def cold_setup(wl: Workload) -> Setup:
    """Build what the workload's command builds before its first trial."""
    layout = code.build_layout(wl.L)
    circuit = code.build_se_circuit(layout)
    gx, gz = graph.build_decoder_graphs(wl.L, wl.T, wl.p)
    cc = graph.build_code_capacity_pair(wl.L) if wl.kind == "lifetime" else None
    return Setup(layout, circuit, gx, gz, cc)


def timed_cold_setup(wl: Workload) -> tuple[Setup, float]:
    start = time.perf_counter()
    setup = cold_setup(wl)
    return setup, time.perf_counter() - start


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: workloads.py {{{','.join(WORKLOADS)}}}")
    print(repr(timed_cold_setup(WORKLOADS[sys.argv[1]])[1]))
