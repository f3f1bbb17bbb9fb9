"""The benchmark in ``bench/`` patches library functions by name and checks
the keywords of the first ``decode`` call; these tests keep the library
fitting those hooks, so a refactor cannot break ``bench/run.py --trace 1``
unnoticed.  Nothing under ``bench/`` is changed."""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest

from surfdec import experiments, graph, irmwpm, matcher, noise

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``workloads`` and ``spans`` modules."""
    # importing workloads pins these to one thread; restore them afterwards
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads"), importlib.import_module("spans")


def test_tracer_installs_and_uninstalls(bench):
    _, spans = bench
    # the tracer wraps experiments.simulate by name, so the lifetime path
    # must keep calling it from there
    originals = (
        experiments.decode, experiments.ideal_syndrome, graph.build_code_capacity_pair,
        experiments.simulate,
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert experiments.decode is not originals[0]
        assert experiments.simulate is not originals[3]
    finally:
        tracer.uninstall()
    assert (experiments.decode, experiments.ideal_syndrome,
            graph.build_code_capacity_pair, experiments.simulate) == originals
    assert experiments.decode is irmwpm.decode
    assert experiments.simulate is noise.simulate


@pytest.mark.parametrize("name", ["life-d5-p005-irmwpm", "mem-d7-p001-mwpm"])
def test_first_decode_call_passes_the_benchmark_keywords(bench, monkeypatch, name):
    workloads, spans = bench
    wl = workloads.WORKLOADS[name]
    cfg = wl.config(1, 0)
    seen = []
    real = experiments.decode

    def recording(*args, **kwargs):
        seen.append((len(args), kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "decode", recording)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span(spans.ESTIMATE):
            if wl.kind == "memory":
                experiments.estimate_rate(cfg)
            else:
                experiments.estimate_lifetime(cfg)
    finally:
        tracer.uninstall()
    assert seen and seen[0] == (5, workloads.decode_kwargs(cfg))
    counts = {}
    for span in tracer.spans:
        counts[span[spans.NAME]] = counts.get(span[spans.NAME], 0) + 1
    windows = counts["noise.sample_faults"]
    # one decode per window; a lifetime window (T = check period) ends in
    # one syndrome check, a memory window in none
    assert counts["irmwpm.decode"] == windows == len(seen)
    checks = windows if wl.kind == "lifetime" else 0
    assert counts.get("code.ideal_syndrome", 0) == checks
    # memory windows read the single-fault table; a lifetime window starts
    # from the last residual and is frame-simulated
    simulated = windows if wl.kind == "lifetime" else 0
    assert counts.get("noise.simulate", 0) == simulated


@pytest.mark.parametrize("name", ["life-d5-p005-irmwpm", "mem-d7-p001-mwpm"])
def test_latency_windows_are_the_table_windows(bench, name):
    # the benchmark hands ``sample_faults``' faults unchanged to
    # ``simulate``; its latency windows must be the windows that the
    # single-fault table gives for the same generators, whatever type the
    # sampler's faults have
    workloads, _ = bench
    run = importlib.import_module("run")
    wl = workloads.WORKLOADS[name]
    setup = workloads.cold_setup(wl)
    windows, _ = run.make_windows(wl, setup, 0)
    assert len(windows) == wl.latency_windows
    events = 0
    for i, w in enumerate(windows):
        rng = np.random.default_rng([run.LATENCY_CORPUS, 0, i])
        faults = noise.sample_faults(setup.circuit, noise.NoiseParams(wl.p), wl.T, rng)
        assert setup.gx.window_events(faults) == (w.ev_x, w.residual.x_mask)
        assert setup.gz.window_events(faults) == (w.ev_z, w.residual.z_mask)
        events += len(w.ev_x) + len(w.ev_z)
    assert events > 0


@pytest.mark.parametrize("k", [matcher.SUBSET_MAX_VERTICES + 1,
                               matcher.SUBSET_MAX_VERTICES + 2])
def test_large_dense_problems_reach_the_traced_blossom(bench, monkeypatch, k):
    # the tracer's blossom span wraps matcher.min_weight_perfect_matching, so
    # a dense problem above the subset program's cutoff (k events, plus the
    # boundary vertex when k is odd) must look blossom up there at call time
    _, spans = bench
    gx, _ = graph.build_decoder_graphs(5, 5, 0.01)
    events = list(range(0, 6 * k, 6))  # below the boundary node, 120
    sizes = []
    real = matcher.min_weight_perfect_matching

    def recording(n, edges):
        sizes.append(n)
        return real(n, edges)

    monkeypatch.setattr(matcher, "min_weight_perfect_matching", recording)
    tracer = spans.Tracer()
    tracer.install()
    try:
        irmwpm.mwpm(gx, events)
    finally:
        tracer.uninstall()
    assert sizes == [k + k % 2]
    names = [span[spans.NAME] for span in tracer.spans]
    assert names.count("blossom.min_weight_perfect_matching") == 1


@pytest.mark.parametrize("k", [4, 5])  # 4 and 6 dense vertices
def test_small_plain_matchings_stay_in_the_traced_mwpm_span(bench, monkeypatch, k):
    # the rows come through matcher.shortest_paths, so a traced run times
    # the memo lookup in its own span; the list form is scored inside mwpm,
    # and with a unique minimum blossom is not called
    _, spans = bench
    gx, _ = graph.build_decoder_graphs(5, 5, 0.01)
    events = list(range(0, 6 * k, 6))
    assert k + k % 2 <= matcher.INLINE_MAX_VERTICES
    forms = []
    real = matcher.lightest_unique_pairing

    def recording(weights):
        forms.append(type(weights))
        return real(weights)

    monkeypatch.setattr(matcher, "lightest_unique_pairing", recording)
    tracer = spans.Tracer()
    tracer.install()
    try:
        irmwpm.mwpm(gx, events)
    finally:
        tracer.uninstall()
    assert forms == [list]
    names = [span[spans.NAME] for span in tracer.spans]
    assert names == ["matcher.mwpm", "matcher.shortest_paths"]
    assert tracer.spans[1][spans.PARENT] == 0


def test_traced_setup_counts_one_round_of_fault_rows(bench):
    # the tracer records len() of enumerate_single_faults' result: one row
    # per single fault of one round, here 144 CNOTs x 15 payloads, 40
    # measurement flips and 41 idle qubits x 3 Paulis; a table whose len()
    # counted its columns would report 8
    _, spans = bench
    tracer = spans.Tracer()
    tracer.install()
    try:
        graph.build_decoder_graphs(5, 5, 0.001)
    finally:
        tracer.uninstall()
    enumerations = [
        span for span in tracer.spans
        if span[spans.NAME] == "noise.enumerate_single_faults"
    ]
    assert len(enumerations) == 1
    assert enumerations[0][spans.INFO] == {"records": 2323}
