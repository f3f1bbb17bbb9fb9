"""Decoder benchmark: cold set-up, window throughput and decode latency.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N --seconds S --trace 0|1]

One workload runs in this process, single-threaded:

1. set-up: the cold graph build the workload's command makes before its
   first trial, timed here first and then in fresh processes spread over
   the run (``setup_s`` is the median);
2. latency and throughput, in SLICES alternating slices of S / (2 SLICES)
   seconds each: a latency slice times one ``decode`` call per window of
   whole rounds of the workload's fixed corpus, each round on windows of
   its own; a throughput slice runs ``estimate_rate`` /
   ``estimate_lifetime`` calls on fresh trials drawn from the seed
   (``decode_ms_p50`` and ``decode_ms_p90`` are percentiles of all the
   run's timed calls, ``windows_per_s`` is all throughput windows over all
   their seconds; each call's graph rebuild before its first trial is not
   counted);
3. checks: a repeated decode, the matching oracle, the graph tables and a
   self-test that feeds the checks a corrupted decode.

The machine's speed drifts by tens of percent over seconds when other
tenants load it, so every metric pools samples spread over the whole run.
``--trace 1`` traces the set-up in this process and the throughput slices,
reports the per-layer metrics in place of the end-to-end ones, and writes
the spans to ``bench/out/``.  ``--workload all`` runs every workload in
its own fresh process.  The last line of standard output is the result as
JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, Workload, decode_kwargs, timed_cold_setup  # sets up sys.path

import numpy as np  # noqa: E402

from surfdec import experiments  # noqa: E402
from surfdec.irmwpm import decode  # noqa: E402
from surfdec.matcher import events_to_nodes, mwpm  # noqa: E402
from surfdec.noise import NoiseParams, sample_faults, simulate  # noqa: E402

import checks  # noqa: E402
from spans import ESTIMATE, SETUP, TraceError, Tracer, per_layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent

#: seeds the latency corpus: window i of round r comes from
#: default_rng([LATENCY_CORPUS, r, i]) whatever --seed is, so every run and
#: every commit times the same windows and fails the same ones
LATENCY_CORPUS = 1

#: latency slices, each followed by a throughput slice; the fresh-process
#: set-ups fall between them, so the samples of every metric spread over
#: the run's whole wall time
SLICES = 4


@dataclass
class Ops:
    attempted: int = 0
    failed_windows: set = field(default_factory=set)  # (round, index) of latency windows
    failed_trials: int = 0

    @property
    def failed(self) -> int:
        return len(self.failed_windows) + self.failed_trials


@dataclass
class Window:
    ev_x: list
    ev_z: list
    residual: object
    e_x: object = None
    e_z: object = None


def log(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr, flush=True)


def make_windows(wl: Workload, setup, rnd: int) -> tuple[list[Window], float]:
    """The latency windows of round ``rnd``, and the seconds to make one."""
    params = NoiseParams(wl.p)
    windows = []
    start = perf_counter()
    for i in range(wl.latency_windows):
        rng = np.random.default_rng([LATENCY_CORPUS, rnd, i])
        faults = sample_faults(setup.circuit, params, wl.T, rng)
        hist = simulate(setup.layout, setup.circuit, faults, wl.T)
        windows.append(Window(
            events_to_nodes(setup.gx, hist.x_lattice_events),
            events_to_nodes(setup.gz, hist.z_lattice_events),
            hist.residual,
        ))
    return windows, (perf_counter() - start) / len(windows)


def latency_round(wl: Workload, setup, rnd: int, windows: list[Window], ops: Ops) -> list[float]:
    """Time and check one decode call per window; returns the seconds of each call.

    A window fails when its decode raises, stops at IRMWPM's iteration
    cap, or leaves a residual with a syndrome.
    """
    kwargs = decode_kwargs(wl.config(1, 0))
    times = []
    for i, w in enumerate(windows):
        ops.attempted += 1
        try:
            t0 = perf_counter()
            w.e_x, w.e_z, trace = decode(setup.gx, setup.gz, w.ev_x, w.ev_z, setup.layout, **kwargs)
            times.append(perf_counter() - t0)
        except Exception:
            log(f"latency window {rnd}/{i} raised:\n{traceback.format_exc()}")
            ops.failed_windows.add((rnd, i))
            continue
        if wl.decoder == "irmwpm" and trace.stop_reason == "max_iters":
            log(f"latency window {rnd}/{i}: stopped at the iteration cap")
            ops.failed_windows.add((rnd, i))
        if not checks.residual_is_clean(setup.layout, w.residual, w.e_x, w.e_z):
            log(f"latency window {rnd}/{i}: residual times correction has a syndrome")
            ops.failed_windows.add((rnd, i))
    return times


class FirstCall:
    """Records the first call of ``owner.attr`` while active (when it
    started and its keyword arguments), then steps aside."""

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self.time = self.kwargs = None

    def __enter__(self):
        self.original = original = getattr(self.owner, self.attr)

        def first(*args, **kwargs):
            setattr(self.owner, self.attr, original)
            self.kwargs = kwargs
            self.time = perf_counter()
            return original(*args, **kwargs)

        setattr(self.owner, self.attr, first)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)


@dataclass
class Throughput:
    """Trial calls of one run; each call draws its trials from its own seed."""

    wl: Workload
    seed: int
    ops: Ops
    tracer: Tracer | None
    calls: int = 0
    rate: float | None = None  # memory trials per second of trials, so far
    blocks: list = field(default_factory=list)  # (windows, seconds)
    decode_kwargs_seen: list = field(default_factory=list)  # those that differ from ours

    def block(self, seconds: float) -> None:
        """Run trials until ``seconds`` of trials have run (one throughput slice).

        A call's trials start at its first ``sample_faults`` call; the
        graph rebuild before it is not counted.  Each call is sized from
        the rate so far, at most doubling the trials of the slice, so that
        one or a few calls fill the time.  Lifetime trials vary too much in
        length to size a call from a few of them, so each lifetime slice
        starts again from one trial.
        """
        wl = self.wl
        if wl.kind == "memory":
            estimate = experiments.estimate_rate
        else:
            estimate = experiments.estimate_lifetime
        busy = 0.0
        windows = trials = 0
        while busy < seconds:
            remaining = seconds - busy
            if trials:
                n = min(math.ceil(remaining * trials / busy), 2 * trials)
            elif self.rate:
                n = math.ceil(remaining * self.rate)
            else:
                n = 1
            cfg = wl.config(max(1, n), self.seed * 1000 + self.calls)
            self.calls += 1
            self.ops.attempted += cfg.trials
            est = None
            with FirstCall(experiments, "decode") as first_decode, \
                    FirstCall(experiments, "sample_faults") as first:
                t0 = perf_counter()
                try:
                    if self.tracer:
                        with self.tracer.span(ESTIMATE):
                            est = estimate(cfg)
                    else:
                        est = estimate(cfg)
                except Exception:
                    log(f"{estimate.__name__} raised:\n{traceback.format_exc()}")
                t1 = perf_counter()
            busy += t1 - (first.time or t0)
            trials += cfg.trials
            if first_decode.kwargs not in (None, decode_kwargs(cfg)):
                self.decode_kwargs_seen.append(first_decode.kwargs)
            windows += self._check(cfg, est)
        if wl.kind == "memory":
            self.rate = trials / busy
        self.blocks.append((windows, busy))

    def totals(self) -> tuple[int, float]:
        """Windows completed and seconds of trials, over all blocks."""
        return sum(n for n, _ in self.blocks), sum(s for _, s in self.blocks)

    def rate_overall(self) -> float:
        windows, seconds = self.totals()
        return windows / seconds

    def _check(self, cfg, est) -> int:
        """Count the call's failed trials; returns the windows it completed."""
        if est is None:
            self.ops.failed_trials += cfg.trials
            return 0
        if self.wl.kind == "memory":
            if not est.trials == cfg.trials == sum(est.iteration_histogram.values()):
                self.ops.failed_trials += cfg.trials
                return 0
            # logged, not failed: which trials a timed block reaches depends
            # on the machine's speed, so the failed share would too; the
            # latency corpus fails every capped decode
            if est.nonconverged:
                log(f"{est.nonconverged} of {cfg.trials} trials (seed {cfg.seed}) "
                    "stopped at the iteration cap")
            return cfg.trials
        period = cfg.check_period or cfg.L
        bad = sum(not (0 < r < cfg.lifetime_cap and r % period == 0) for r in est.rounds)
        if len(est.rounds) != cfg.trials or est.capped:
            bad = cfg.trials
        self.ops.failed_trials += bad
        return sum(est.rounds) // cfg.rounds


def sample(wl: Workload, windows: list[Window]) -> list[int]:
    """Indices of the first round's windows that the untimed checks re-run."""
    stride = len(windows) // wl.oracle_windows
    return list(range(0, stride * wl.oracle_windows, stride))


def repeat_check(wl: Workload, setup, windows: list[Window], ops: Ops) -> None:
    """An untimed second decode of the sampled windows must return the same correction."""
    kwargs = decode_kwargs(wl.config(1, 0))
    for i in sample(wl, windows):
        w = windows[i]
        if w.e_x is None:
            continue
        e_x, e_z, _ = decode(setup.gx, setup.gz, w.ev_x, w.ev_z, setup.layout, **kwargs)
        if (e_x, e_z) != (w.e_x, w.e_z):
            log(f"latency window 0/{i}: a repeated decode returned another correction")
            ops.failed_windows.add((0, i))


def oracle_check(wl: Workload, setup, windows: list[Window], ops: Ops, oracle) -> None:
    """Initial matchings of the sampled windows against the oracle."""
    worst = 0.0
    for i in sample(wl, windows):
        w = windows[i]
        for g, events in ((setup.gx, w.ev_x), (setup.gz, w.ev_z)):
            try:
                reported = mwpm(g, events).total_weight
                expected = oracle.weight(g, events)
            except Exception:
                log(f"oracle window 0/{i} raised:\n{traceback.format_exc()}")
                ops.failed_windows.add((0, i))
                continue
            worst = max(worst, abs(expected - reported))
            if not checks.weights_agree(expected, reported):
                log(f"oracle window 0/{i}: matching weight {reported}, oracle {expected}")
                ops.failed_windows.add((0, i))
    log(f"oracle: {wl.oracle_windows} windows, largest weight difference {worst:.3g}")


def self_test(setup, windows: list[Window], oracle) -> bool:
    """The checks must reject a one-qubit-wrong correction and a matching
    weight one edge off."""
    w = next((w for w in windows if w.ev_x and w.e_x is not None), None)
    if w is None:
        log("self-test: no decoded window with events")
        return False
    rejected = 0
    if not checks.residual_is_clean(setup.layout, w.residual, w.e_x, w.e_z, flip_qubit=0):
        rejected += 1
    matching = mwpm(setup.gx, w.ev_x)
    first_edge = matching.all_edge_ids()[0]
    wrong = matching.total_weight + setup.gx.edges[first_edge].weight
    if not checks.weights_agree(oracle.weight(setup.gx, w.ev_x), wrong):
        rejected += 1
    log(f"self-test: 2 corrupted operations, {rejected} failed")
    return rejected == 2


def graph_check(wl: Workload, setup) -> bool:
    faults = checks.graph_faults(setup.gx, wl.p) + checks.graph_faults(setup.gz, wl.p)
    if setup.cc:
        faults += checks.graph_faults(setup.cc[0], None) + checks.graph_faults(setup.cc[1], None)
    for f in faults[:10]:
        log(f"graph check: {f}")
    return not faults


def fresh_setup_seconds(wl: Workload) -> float:
    out = subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), wl.name],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(out.stdout.split()[-1])


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    ops = Ops()
    if tracer:
        tracer.install()
        with tracer.span(SETUP):
            setup, setup_s = timed_cold_setup(wl)
        tracer.uninstall()
    else:
        setup, setup_s = timed_cold_setup(wl)
    setup_samples = [setup_s]
    fresh = 0 if traced else wl.setup_samples - 1

    throughput = Throughput(wl, seed, ops, tracer)
    share = seconds / (2 * SLICES)
    latency_ms = []
    rounds = 0
    for s in range(SLICES):
        busy = 0.0
        while busy < share:
            windows, make_s = make_windows(wl, setup, rounds)
            times = latency_round(wl, setup, rounds, windows, ops)
            if rounds == 0:
                first_windows = windows
                if wl.kind == "memory" and times:
                    throughput.rate = 1 / (make_s + statistics.fmean(times))
            rounds += 1
            if not times:  # every decode raised: nothing left to time
                break
            busy += sum(times)
            latency_ms += [t * 1e3 for t in times]
        if tracer:
            tracer.install()
        try:
            throughput.block(share)
        finally:
            if tracer:
                tracer.uninstall()
        for _ in range(fresh * (s + 1) // SLICES - fresh * s // SLICES):
            setup_samples.append(fresh_setup_seconds(wl))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    repeat_check(wl, setup, first_windows, ops)
    oracle = checks.MatchingOracle()
    oracle_check(wl, setup, first_windows, ops, oracle)
    correct = graph_check(wl, setup) and self_test(setup, first_windows, oracle)
    for kwargs in throughput.decode_kwargs_seen:
        log(f"the command called decode with {kwargs}, the latency phase with "
            f"{decode_kwargs(wl.config(1, 0))}")
        correct = False

    if tracer:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{wl.name}-seed{seed}.json")
        graphs = (setup.gx, setup.gz)
        try:
            metrics = per_layer_metrics(tracer.spans, {
                "edges": sum(len(g.edges) for g in graphs),
                "correlation_entries": sum(len(r) for g in graphs for r in g.corr_to_dual),
            }, throughput.totals())
        except TraceError as err:
            log(f"trace: {err}")
            correct, metrics = False, {}
        log(f"trace: {len(tracer.spans)} spans; traced loop "
            f"{throughput.rate_overall():.4g} windows/s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "windows_per_s": (throughput.rate_overall(), "windows/s"),
            "decode_ms_p50": (statistics.median(latency_ms), "ms"),
            "decode_ms_p90": (statistics.quantiles(latency_ms, n=10)[8], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        log(f"set-up samples {', '.join(f'{s:.3f}' for s in setup_samples)} s; "
            f"throughput slices "
            f"{', '.join(f'{n} windows in {s:.3f} s' for n, s in throughput.blocks)}; "
            f"{len(latency_ms)} timed decodes in {rounds} rounds of {wl.latency_windows}")
    for name, (value, unit) in metrics.items():
        log(f"{wl.name} {name} = {value:.6g} {unit}")
    log(f"{wl.name}: {ops.attempted} operations attempted, {ops.failed} failed")
    return {
        "correct": bool(correct),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    results = {}
    status = 0
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        if out.returncode != 0:
            log(f"{name} exited with code {out.returncode}")
            status = 1
            continue
        results[name] = r = json.loads(out.stdout.strip().splitlines()[-1])
        if not r["correct"] or r["failed"]:
            status = 1
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
