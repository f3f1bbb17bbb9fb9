"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps the program's public functions under the names their
callers look them up by and forwards every argument unchanged.  Each call
records one span ``[name, start, end, parent, window, info]``: ``parent`` is
the index of the enclosing span (-1 for a root), ``window`` the decoding
window it belongs to (counted at each ``sample_faults`` call, -1 before the
first) and ``info`` the counts taken at that boundary.  Spans stay in memory
until ``write``.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from surfdec import experiments, graph, irmwpm, matcher

NAME, START, END, PARENT, WINDOW, INFO = range(6)

#: root span the benchmark opens around each estimate_rate/estimate_lifetime call
ESTIMATE = "experiments.estimate"
#: root span the benchmark opens around its cold set-up
SETUP = "setup"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.window = -1
        self._patches: list[tuple] = []
        self._mwpm_keys: set | None = None  # (lattice, events, overlay) in this decode

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.window, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = before(tracer, args, kwargs) if before else None
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after:
                info = after(tracer, result, info)
            span[INFO] = info
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def install(self) -> None:
        """Wrap every traced layer function; ``uninstall`` restores them."""
        w = self._wrap
        # set-up: the enumeration and graph assembly inside build_decoder_graphs
        w(graph, "enumerate_single_faults", "noise.enumerate_single_faults",
          after=lambda t, r, i: {"records": len(r)})
        w(graph, "build_graph", "graph.build_graph")
        w(graph, "derive_correlations", "graph.derive_correlations")
        w(graph, "build_code_capacity_pair", "graph.build_code_capacity_pair")
        # the trial loop of estimate_rate / estimate_lifetime
        w(experiments, "sample_faults", "noise.sample_faults", before=_next_window)
        w(experiments, "simulate", "noise.simulate")
        w(experiments, "decode", "irmwpm.decode", before=_decode_before, after=_decode_after)
        w(experiments, "ideal_syndrome", "code.ideal_syndrome")
        w(irmwpm, "reweight", "irmwpm.reweight",
          after=lambda t, r, i: {"overlay_entries": len(r)})
        w(irmwpm, "mwpm", "matcher.mwpm", before=_mwpm_before)
        w(matcher, "shortest_paths", "matcher.shortest_paths")
        w(matcher, "min_weight_perfect_matching", "blossom.min_weight_perfect_matching",
          before=lambda t, a, k: {"edges": len(_arg(a, k, 1, "edges"))})
        w(graph.DecodingGraph, "csr_with_weights", "graph.csr_with_weights")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "window", "info"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def _next_window(tracer, args, kwargs):
    tracer.window += 1


def _decode_before(tracer, args, kwargs):
    tracer._mwpm_keys = set()


def _decode_after(tracer, result, info):
    tracer._mwpm_keys = None
    trace = result[2]
    return {
        "extra_iterations": trace.extra_iterations,
        "capped": int(trace.stop_reason == "max_iters" and trace.extra_iterations > 0),
    }


def _mwpm_before(tracer, args, kwargs):
    events = _arg(args, kwargs, 1, "events")
    info = {"events": len(events)}
    if tracer._mwpm_keys is not None:
        overlay = args[2] if len(args) > 2 else kwargs.get("overlay")
        key = (
            id(_arg(args, kwargs, 0, "graph")),
            tuple(sorted(events)),
            tuple(sorted(overlay.items())) if overlay else (),
        )
        info["in_decode"] = 1
        info["repeat"] = int(key in tracer._mwpm_keys)
        tracer._mwpm_keys.add(key)
    return info


# -- per-layer metrics -----------------------------------------------------

#: loop layers reported per window: span name -> (report calls, report self time)
LOOP_LAYERS = {
    "noise.sample_faults": (True, False),
    "noise.simulate": (True, False),
    "irmwpm.decode": (True, True),
    "irmwpm.reweight": (True, False),
    "matcher.mwpm": (True, True),
    "matcher.shortest_paths": (False, False),
    "graph.csr_with_weights": (True, False),
    "blossom.min_weight_perfect_matching": (True, False),
    "code.ideal_syndrome": (True, False),
}

SETUP_LAYERS = (
    "noise.enumerate_single_faults",
    "graph.build_graph",
    "graph.derive_correlations",
    "graph.build_code_capacity_pair",
)

PER_WINDOW = "s/window"
CALLS = "calls/window"


#: largest relative difference between the traced loop time and the
#: benchmark's own stopwatch over the same calls
LOOP_TOLERANCE = 0.01


class TraceError(RuntimeError):
    """The spans do not nest, or disagree with the benchmark's stopwatch."""


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(spans: list[list], setup_counts: dict, stopwatch: tuple) -> dict:
    """Per-layer metrics of the traced set-up and trial loop.

    Loop figures are per decoding window of the loop, set-up figures per
    cold set-up.  The loop of one estimate call starts at its first
    ``sample_faults`` span; spans before it rebuild the graphs.
    ``experiments.self_s`` is the loop time left over once the top-level
    layer spans are taken out, so the self times add up to the loop time
    by definition.  ``stopwatch`` is (windows, seconds) of the same calls
    as the benchmark counted and timed them without the spans.  Raises
    TraceError unless every span lies inside its parent, the loop has one
    ``sample_faults`` span per window the estimates report, and the traced
    loop time is within LOOP_TOLERANCE of the stopwatch.
    """
    n = len(spans)
    root = [0] * n
    child_time = [0.0] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if s[END] < s[START]:
            raise TraceError(f"span {s[NAME]} never closed")
        if p >= 0:
            root[i] = root[p]
            child_time[p] += s[END] - s[START]
            if not spans[p][START] <= s[START] <= s[END] <= spans[p][END]:
                raise TraceError(f"span {s[NAME]} lies outside its parent {spans[p][NAME]}")
        else:
            root[i] = i
    loop_start = {}
    for i, s in enumerate(spans):
        r = root[i]
        if spans[r][NAME] == ESTIMATE and s[NAME] == "noise.sample_faults":
            loop_start.setdefault(r, s[START])

    total = Counter()
    self_time = Counter()
    calls = Counter()
    info = defaultdict(Counter)
    setup_total = Counter()
    setup_info = Counter()
    top_level = 0.0
    n_setups = 0
    for i, s in enumerate(spans):
        r = root[i]
        name, dur = s[NAME], s[END] - s[START]
        if spans[r][NAME] == SETUP:
            if i == r:
                n_setups += 1
            else:
                setup_total[name] += dur
                setup_info.update(s[INFO] or {})
            continue
        if r not in loop_start or i == r or s[START] < loop_start[r]:
            continue
        total[name] += dur
        self_time[name] += dur - child_time[i]
        calls[name] += 1
        info[name].update(s[INFO] or {})
        if s[PARENT] == r:
            top_level += dur

    loop = sum(spans[r][END] - start for r, start in loop_start.items())
    loop_self = loop - top_level
    windows = calls["noise.sample_faults"]
    stopwatch_windows, stopwatch_s = stopwatch
    if windows != stopwatch_windows:
        raise TraceError(
            f"{windows} sample_faults spans, but the estimates report {stopwatch_windows} windows")
    if abs(loop - stopwatch_s) > LOOP_TOLERANCE * stopwatch_s:
        raise TraceError(f"traced loop time {loop:.6f} s, stopwatch {stopwatch_s:.6f} s")

    out = {
        "experiments.loop.s": (_ratio(loop, windows), PER_WINDOW),
        "experiments.self_s": (_ratio(loop_self, windows), PER_WINDOW),
    }
    for name, (c, st) in LOOP_LAYERS.items():
        out[f"{name}.s"] = (_ratio(total[name], windows), PER_WINDOW)
        if c:
            out[f"{name}.calls"] = (_ratio(calls[name], windows), CALLS)
        if st:
            out[f"{name}.self_s"] = (_ratio(self_time[name], windows), PER_WINDOW)
    decode, mwpm = info["irmwpm.decode"], info["matcher.mwpm"]
    out["irmwpm.extra_iterations_mean"] = (
        _ratio(decode["extra_iterations"], calls["irmwpm.decode"]), "iters/decode")
    out["irmwpm.overlay_entries_mean"] = (
        _ratio(info["irmwpm.reweight"]["overlay_entries"], calls["irmwpm.reweight"]),
        "entries/reweight")
    out["irmwpm.capped_share"] = (_ratio(decode["capped"], calls["irmwpm.decode"]), "ratio")
    out["irmwpm.mwpm_repeat_ratio"] = (_ratio(mwpm["repeat"], mwpm["in_decode"]), "ratio")
    out["matcher.events_per_call"] = (_ratio(mwpm["events"], calls["matcher.mwpm"]), "events/call")
    out["blossom.edges_in"] = (
        _ratio(info["blossom.min_weight_perfect_matching"]["edges"],
               calls["blossom.min_weight_perfect_matching"]), "edges/call")
    for name in SETUP_LAYERS:
        out[f"{name}.s"] = (_ratio(setup_total[name], n_setups), "s")
    out["noise.fault_records"] = (_ratio(setup_info["records"], n_setups), "count")
    out["graph.edges"] = (setup_counts["edges"], "count")
    out["graph.correlation_entries"] = (setup_counts["correlation_entries"], "count")
    return out
