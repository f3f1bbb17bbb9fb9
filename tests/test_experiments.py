import math
from collections import Counter

import numpy as np
import pytest

from conftest import fault_rows
from surfdec import experiments
from surfdec.code import ideal_syndrome
from surfdec.experiments import (
    FitError,
    FitParams,
    SimConfig,
    _build_context,
    estimate_lifetime,
    estimate_rate,
    fit_scaling,
    run_lifetime_trial,
    run_memory_trial,
    threshold_scan,
    wilson_interval,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(L=1, p=0.01, trials=10)
    with pytest.raises(ValueError, match="distance >= 3, got 2"):
        SimConfig(L=2, p=0.01, trials=10)
    with pytest.raises(ValueError):
        SimConfig(L=3, p=0.0, trials=10)
    with pytest.raises(ValueError):
        SimConfig(L=3, p=0.01, trials=0)
    with pytest.raises(ValueError):
        SimConfig(L=3, p=0.01, trials=10, decoder="magic")
    for bad in (
        dict(max_iterations=-1),
        dict(stopping="never"),
        dict(check_period=0),
        dict(lifetime_cap=0),
        dict(threads=0),
        dict(threads=-3),
        dict(prune_neighbors=0),
        dict(prune_neighbors=-1),
    ):
        with pytest.raises(ValueError):
            SimConfig(L=3, p=0.01, trials=10, **bad)
    cfg = SimConfig(L=3, p=0.01, trials=10)
    assert cfg.rounds == 3  # defaults to L
    assert cfg.n_threads >= 1 and cfg.prune_neighbors is None
    assert SimConfig(L=3, p=0.01, trials=10, threads=1, prune_neighbors=1).n_threads == 1


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0
    # the interval holds its own estimate at both ends: rounding left
    # lo = 5.6e-17 at (0, 3) and hi = 1 - 1.1e-16 at (10, 10)
    for n in (1, 3, 5, 10, 31, 1000):
        assert wilson_interval(0, n)[0] == 0.0 < wilson_interval(0, n)[1]
        assert wilson_interval(n, n)[0] < wilson_interval(n, n)[1] == 1.0


def test_reproducible_across_thread_counts():
    base = dict(L=3, p=0.01, trials=150, seed=31)
    rows = [
        estimate_rate(SimConfig(**base, threads=t)).to_row() for t in (1, 2, 3)
    ]
    assert rows[0] == rows[1] == rows[2]


@pytest.mark.parametrize("threads, trials, workers", [(4, 2, 2), (3, 2, 2), (2, 5, 2)])
def test_worker_pool_is_no_larger_than_its_chunks(monkeypatch, threads, trials, workers):
    # the pool is recorded, not started: its map runs the chunks in-process
    import multiprocessing

    sizes = []

    class InProcessPool:
        def __init__(self, n):
            sizes.append(n)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    class Context:
        Pool = InProcessPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    base = dict(L=3, p=0.03, trials=trials, seed=9)
    row = estimate_rate(SimConfig(**base, threads=threads)).to_row()
    assert sizes == [workers]
    assert row == estimate_rate(SimConfig(**base, threads=1)).to_row()


@pytest.mark.parametrize("threads", [1, 2])
def test_estimate_rate_aggregates_each_trial(threads):
    config = SimConfig(L=3, p=0.03, trials=60, seed=5, threads=threads)
    ctx = _build_context(config)
    trials = [
        run_memory_trial(ctx, np.random.default_rng([config.seed, trial]))
        for trial in range(config.trials)
    ]
    failed, extra, monotone, converged = (list(column) for column in zip(*trials))
    est = estimate_rate(config)
    assert est.failures == sum(failed) > 0
    assert est.iteration_histogram == Counter(extra)
    assert len(est.iteration_histogram) > 1
    assert est.mean_extra_iterations == sum(extra) / config.trials
    assert est.monotonicity_violations == monotone.count(False)
    assert est.nonconverged == converged.count(False)
    assert (est.ci_low, est.ci_high) == wilson_interval(sum(failed), config.trials)


@pytest.mark.parametrize("threads", [1, 2])
def test_estimate_lifetime_keeps_each_trials_rounds_in_order(threads):
    config = SimConfig(L=3, p=0.02, trials=12, seed=4, threads=threads, lifetime_cap=300)
    ctx = _build_context(config)
    trials = [
        run_lifetime_trial(ctx, np.random.default_rng([config.seed, trial]))
        for trial in range(config.trials)
    ]
    est = estimate_lifetime(config)
    assert est.rounds == [rounds for rounds, _ in trials]
    assert len(set(est.rounds)) > 1
    assert est.capped == sum(capped for _, capped in trials)
    assert est.mean_rounds == sum(est.rounds) / config.trials


def test_vanishing_noise_never_fails():
    est = estimate_rate(SimConfig(L=3, p=1e-5, trials=2000, seed=3, threads=2))
    assert est.failures == 0


def test_single_fault_within_radius_never_fails(layout3, circuit3, layout5, circuit5):
    # Theorem-2 regime: every single fault is corrected with a perfect final
    # round, by MWPM and by IRMWPM, on graphs weighted at both ends of the
    # threshold grid.  Windows read the single-fault table; at d=3 its
    # events and residual are first checked against the frame simulator.
    from surfdec.noise import enumerate_single_faults, simulate
    from surfdec.matcher import events_to_nodes
    from surfdec.irmwpm import decode
    from surfdec.graph import build_decoder_graphs
    from surfdec.experiments import _logical_failure
    from surfdec.pauli import PauliOperator, multiply

    for L, layout, circuit in ((3, layout3, circuit3), (5, layout5, circuit5)):
        pairs = [build_decoder_graphs(L, L, p) for p in (0.001, 0.016)]
        gx, gz = pairs[0]
        decoded = {}
        table = enumerate_single_faults(circuit, L).faults()
        for fault, row in zip(table, fault_rows(circuit, table)):
            ev_x, x_mask = gx.window_events([row])
            ev_z, z_mask = gz.window_events([row])
            residual = PauliOperator(layout.n_data, x_mask, z_mask)
            if L == 3:
                hist = simulate(layout, circuit, [row], L, True)
                assert ev_x == events_to_nodes(gx, hist.x_lattice_events)
                assert ev_z == events_to_nodes(gz, hist.z_lattice_events)
                assert residual == hist.residual
            for graphs in pairs:
                for max_iterations in (0, 10):
                    # decoding is deterministic: faults of one syndrome
                    # share one decode
                    key = (graphs[0].p, max_iterations, tuple(ev_x), tuple(ev_z))
                    if key not in decoded:
                        decoded[key] = decode(
                            *graphs,
                            ev_x,
                            ev_z,
                            layout,
                            max_iterations=max_iterations,
                            raise_on_violation=False,
                        )
                    e_x, e_z, _ = decoded[key]
                    corrected = multiply(multiply(residual, e_x), e_z)
                    assert not _logical_failure(layout, corrected), (
                        fault, graphs[0].p, max_iterations
                    )


def test_mwpm_rate_in_sane_band():
    est = estimate_rate(
        SimConfig(L=5, p=0.01, trials=600, seed=12, decoder="mwpm", threads=2)
    )
    assert 0.0 < est.rate < 0.5


def test_irmwpm_records_monotonicity_violations():
    est = estimate_rate(
        SimConfig(L=5, p=0.005, trials=400, seed=42, decoder="irmwpm", threads=2)
    )
    # surfaced, never hidden: the count is part of the estimate
    assert est.monotonicity_violations >= 0
    assert est.mean_extra_iterations > 0


def test_mwpm_never_iterates():
    est = estimate_rate(
        SimConfig(L=3, p=0.01, trials=100, seed=1, decoder="mwpm", threads=1)
    )
    assert est.mean_extra_iterations == 0.0
    assert est.monotonicity_violations == 0


@pytest.mark.parametrize("path", ["memory", "lifetime"])
def test_windows_build_no_fault_event(monkeypatch, path):
    # a window's faults stay (row, round) pairs from the sampler to the
    # single-fault table (memory windows) and to ``simulate`` (lifetime
    # windows); no window makes an object per fault
    from surfdec.noise import FaultEvent

    built, sampled = [], []
    init, sample = FaultEvent.__init__, experiments.sample_faults

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def recording(*args, **kwargs):
        faults = sample(*args, **kwargs)
        sampled.append(len(faults))
        return faults

    monkeypatch.setattr(FaultEvent, "__init__", counting)
    monkeypatch.setattr(experiments, "sample_faults", recording)
    FaultEvent(1, "idle", 0, 0)
    assert len(built) == 1  # the count sees a construction
    if path == "memory":
        estimate_rate(SimConfig(L=3, p=0.02, trials=40, seed=3, threads=1))
        assert len(sampled) == 40
    else:
        estimate_lifetime(
            SimConfig(L=3, p=0.02, trials=3, seed=3, threads=1, lifetime_cap=30)
        )
        assert len(sampled) >= 3
    assert sum(sampled) > 0 and len(built) == 1


def test_lifetime_zero_noise_hits_cap():
    est = estimate_lifetime(
        SimConfig(L=3, p=1e-9, trials=3, seed=0, threads=1, lifetime_cap=60)
    )
    assert est.capped == 3
    assert est.mean_rounds == 60


def test_lifetime_shrinks_above_threshold():
    # above threshold a larger code fails sooner per round.  Lifetimes are
    # checked every L rounds, so they are compared as per-round failure
    # rates: a check fails with q = L / mean_rounds, a round with
    # 1 - (1 - q) ** (1 / L).  At p=0.03 these are ~0.169 (L=3) and ~0.203
    # (L=5) over 7,000 trials each; at 1,000 trials the difference has a
    # standard error of ~0.008, so the gap is ~4.3 sigma
    caps = dict(trials=1000, seed=7, threads=2, lifetime_cap=2000, decoder="mwpm")
    per_round = {}
    for L in (3, 5):
        lifetime = estimate_lifetime(SimConfig(L=L, p=0.03, **caps))
        assert lifetime.capped == 0
        per_round[L] = 1 - (1 - L / lifetime.mean_rounds) ** (1 / L)
    assert per_round[5] > per_round[3]


def test_lifetime_grows_below_threshold():
    caps = dict(trials=40, seed=7, threads=2, lifetime_cap=30000, decoder="mwpm")
    lt3 = estimate_lifetime(SimConfig(L=3, p=0.005, **caps))
    lt5 = estimate_lifetime(SimConfig(L=5, p=0.005, **caps))
    assert lt5.mean_rounds > 1.5 * lt3.mean_rounds


def test_fit_scaling_recovers_exact_parameters():
    truth = FitParams(a=-0.01, b=-0.2, c=1.3, e=0.02, f=0.45, g=0.7)
    points = [
        (p, L, truth.predict(p, L))
        for p in (0.002, 0.004, 0.006, 0.01)
        for L in (5, 7, 9)
    ]
    fit = fit_scaling(points)
    for name in "abcefg":
        assert getattr(fit, name) == pytest.approx(getattr(truth, name), abs=1e-6)
    assert fit.residual_rms < 1e-10


@pytest.mark.parametrize(
    "p, L",
    [(0.001, 31.7), (0.001, -4), (0.001, 1), (2, 31), (0, 31), (1, 31),
     (math.nan, 31), (0.001, math.inf)],
)
def test_predict_rejects_points_outside_the_model(p, L):
    fit = FitParams(a=-0.01, b=-0.2, c=1.3, e=0.02, f=0.45, g=0.7)
    with pytest.raises(ValueError, match=f"^{p:g} {L:g}: need 0 < p < 1"):
        fit.predict(p, L)


def test_predict_takes_integral_distances_of_either_type():
    fit = FitParams(a=-0.01, b=-0.2, c=1.3, e=0.02, f=0.45, g=0.7)
    assert fit.predict(0.001, 31.0) == fit.predict(0.001, 31) > 0


def test_fit_scaling_rank_deficient():
    # a single distance cannot constrain the quadratic terms
    with pytest.raises(FitError):
        fit_scaling([(p, 5, 1e-3) for p in (0.002, 0.004, 0.006, 0.01, 0.02, 0.03)])


def test_fit_reports_residuals():
    rng = np.random.default_rng(0)
    truth = FitParams(a=-0.01, b=-0.2, c=1.3, e=0.02, f=0.45, g=0.7)
    points = [
        (p, L, truth.predict(p, L) * float(10 ** rng.normal(0, 0.05)))
        for p in (0.002, 0.004, 0.006, 0.01)
        for L in (5, 7, 9)
    ]
    fit = fit_scaling(points)
    assert 0 < fit.residual_rms < 0.2


def _synthetic_rates(crossing=0.01, slope=2.0):
    """Fabricate estimates whose curves cross exactly at `crossing`."""
    from surfdec.experiments import RateEstimate

    rates = {}
    for L in (5, 7, 9):
        for p in (0.006, 0.008, 0.01, 0.012, 0.014):
            rate = 0.1 * (p / crossing) ** (slope * (L - 3) / 2)
            trials = 10**6
            failures = int(round(rate * trials))
            rates[(L, p)] = RateEstimate(
                L=L,
                T=L,
                p=p,
                decoder="mwpm",
                trials=trials,
                failures=failures,
                mean_extra_iterations=0.0,
                monotonicity_violations=0,
                ci_low=rate,
                ci_high=rate,
            )
    return rates


def test_threshold_scan_recovers_synthetic_crossing():
    est = threshold_scan(_synthetic_rates(crossing=0.01), bootstrap=100)
    assert not est.no_crossing
    assert est.crossing == pytest.approx(0.01, rel=0.03)
    assert est.crossing_std is not None


def test_threshold_scan_reports_no_crossing():
    # strictly ordered curves that never intersect in range
    from surfdec.experiments import RateEstimate

    rates = {}
    for L in (5, 7):
        for p in (0.006, 0.008, 0.01, 0.012):
            rate = 0.01 * (1 + 0.1 * L) * (p / 0.01)
            rates[(L, p)] = RateEstimate(
                L=L, T=L, p=p, decoder="mwpm", trials=10**6,
                failures=int(rate * 10**6), mean_extra_iterations=0.0,
                monotonicity_violations=0, ci_low=rate, ci_high=rate,
            )
    est = threshold_scan(rates, bootstrap=10)
    assert est.no_crossing and est.crossing is None


def test_threshold_scan_input_validation():
    with pytest.raises(ValueError):
        threshold_scan(dict(list(_synthetic_rates().items())[:3]))


def test_memory_trial_direct(layout3):
    cfg = SimConfig(L=3, p=0.02, trials=1, seed=5)
    ctx = _build_context(cfg)
    rng = np.random.default_rng([cfg.seed, 0])
    failed, extra, monotone, converged = run_memory_trial(ctx, rng)
    assert isinstance(failed, bool)
    assert extra >= 0
    assert converged in (True, False)


def _simulated_window(ctx, rng):
    """The memory window as it was before it read the single-fault table:
    one frame simulation of the sampled faults, its events converted to
    node ids.  Returns (residual after correction, trace)."""
    from surfdec.irmwpm import decode
    from surfdec.matcher import events_to_nodes
    from surfdec.noise import NoiseParams, sample_faults, simulate
    from surfdec.pauli import multiply

    cfg = ctx.config
    faults = sample_faults(
        ctx.circuit, NoiseParams(cfg.p), cfg.rounds, rng, cfg.idle_noise
    )
    hist = simulate(ctx.layout, ctx.circuit, faults, cfg.rounds, True)
    e_x, e_z, trace = decode(
        ctx.gx,
        ctx.gz,
        events_to_nodes(ctx.gx, hist.x_lattice_events),
        events_to_nodes(ctx.gz, hist.z_lattice_events),
        ctx.layout,
        max_iterations=0 if cfg.decoder == "mwpm" else cfg.max_iterations,
        stopping=cfg.stopping,
        reweight_boundary=cfg.reweight_boundary,
        raise_on_violation=False,
        prune_neighbors=cfg.prune_neighbors,
    )
    return multiply(multiply(hist.residual, e_x), e_z), trace


@pytest.mark.parametrize(
    "cfg",
    [
        dict(L=3, p=0.02, trials=150),
        dict(L=5, p=0.01, trials=40, T=2),
        dict(L=3, p=0.02, trials=100, idle_noise=False),
        dict(L=3, p=0.02, trials=100, reweight_boundary=False),
        dict(L=7, p=0.001, trials=100, decoder="mwpm"),
    ],
    ids=["d3-p02", "d5-T2", "idle-off", "boundary-off", "d7-p001-mwpm"],
)
def test_memory_trial_equals_the_simulated_window(cfg):
    # the single-fault table gives every window the events, residual and
    # decode that frame simulation gives it
    config = SimConfig(seed=4, **cfg)
    ctx = _build_context(config)
    for trial in range(config.trials):
        residual, trace = experiments._run_window(
            ctx, np.random.default_rng([config.seed, trial])
        )
        want_residual, want_trace = _simulated_window(
            ctx, np.random.default_rng([config.seed, trial])
        )
        assert residual == want_residual, trial
        assert trace.to_dict() == want_trace.to_dict(), trial
        failed, extra, monotone, converged = run_memory_trial(
            ctx, np.random.default_rng([config.seed, trial])
        )
        assert failed == experiments._logical_failure(ctx.layout, want_residual)
        assert (extra, monotone) == (want_trace.extra_iterations, want_trace.monotonic)
        assert converged == (
            want_trace.stop_reason != "max_iters" or config.decoder == "mwpm"
        )


def test_estimate_rate_enumerates_once_and_never_simulates(monkeypatch):
    from surfdec import graph

    calls = {"simulate": 0, "enumerate": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        experiments, "simulate", counting("simulate", experiments.simulate)
    )
    monkeypatch.setattr(
        graph,
        "enumerate_single_faults",
        counting("enumerate", graph.enumerate_single_faults),
    )
    est = estimate_rate(SimConfig(L=3, p=0.02, trials=200, seed=1, threads=1))
    assert est.trials == 200 and est.failures > 0
    assert calls == {"simulate": 0, "enumerate": 1}


def test_lifetime_check_period_must_be_a_multiple_of_rounds(monkeypatch):
    def no_build(*args):
        raise AssertionError("graphs built before the check period was validated")

    monkeypatch.setattr(experiments, "build_decoder_graphs", no_build)
    with pytest.raises(ValueError, match="use 3 or 6"):
        estimate_lifetime(SimConfig(L=5, p=0.01, trials=1, T=3))
    with pytest.raises(ValueError, match="use 3$"):
        estimate_lifetime(SimConfig(L=5, p=0.01, trials=1, T=3, check_period=2))


def _parent_lifetime_trial(ctx, cc_pair, rng):
    """The lifetime loop before windows reused the memory-window path: a
    syndrome reference carried between windows and a code-capacity decode
    of the residual's syndrome at every check."""
    from surfdec.matcher import events_to_nodes
    from surfdec.noise import NoiseParams, sample_faults, simulate
    from surfdec.irmwpm import decode
    from surfdec.pauli import PauliOperator, commutation_parity, multiply

    cfg, layout = ctx.config, ctx.layout
    kwargs = dict(
        max_iterations=0 if cfg.decoder == "mwpm" else cfg.max_iterations,
        stopping=cfg.stopping,
        reweight_boundary=cfg.reweight_boundary,
        raise_on_violation=False,
        prune_neighbors=cfg.prune_neighbors,
    )

    def events(outcomes, reference):
        diffs = outcomes.copy()
        diffs[0] ^= reference
        diffs[1:] ^= outcomes[:-1]
        ts, ss = np.nonzero(diffs)
        return [(int(s), int(t) + 1) for t, s in zip(ts, ss)]

    T, period = cfg.rounds, cfg.check_period or cfg.L
    n_x, n_z = len(layout.x_stabilizers), len(layout.z_stabilizers)
    gx_cc, gz_cc = cc_pair
    residual = PauliOperator.identity(layout.n_data)
    ref_x = np.zeros(n_x, dtype=np.uint8)
    ref_z = np.zeros(n_z, dtype=np.uint8)
    rounds = 0
    while rounds < cfg.lifetime_cap:
        faults = sample_faults(ctx.circuit, NoiseParams(cfg.p), T, rng, cfg.idle_noise)
        hist = simulate(layout, ctx.circuit, faults, T, True, initial_error=residual)
        rounds += T
        e_x, e_z, _ = decode(
            ctx.gx, ctx.gz,
            events_to_nodes(ctx.gx, events(hist.z_anc_outcomes, ref_z)),
            events_to_nodes(ctx.gz, events(hist.x_anc_outcomes, ref_x)),
            layout, **kwargs,
        )
        residual = multiply(multiply(hist.residual, e_x), e_z)
        syn = ideal_syndrome(layout, multiply(e_x, e_z))
        ref_x = hist.x_anc_outcomes[-1] ^ np.array(syn[:n_x], dtype=np.uint8)
        ref_z = hist.z_anc_outcomes[-1] ^ np.array(syn[n_x:], dtype=np.uint8)
        if rounds % period == 0:
            syn_now = ideal_syndrome(layout, residual)
            ev_z = [gz_cc.node_id(i, 1) for i in range(n_x) if syn_now[i]]
            ev_x = [gx_cc.node_id(i, 1) for i in range(n_z) if syn_now[n_x + i]]
            v_x, v_z, _ = decode(gx_cc, gz_cc, ev_x, ev_z, layout, **kwargs)
            total = multiply(multiply(residual, v_x), v_z)
            if commutation_parity(total, layout.logical_x) or commutation_parity(
                total, layout.logical_z
            ):
                return rounds, False
    return rounds, True


@pytest.mark.parametrize(
    "cfg",
    [
        dict(L=3, p=0.02, trials=20),
        dict(L=5, p=0.01, trials=6),
        dict(L=5, p=0.01, trials=6, T=2, check_period=4),
        dict(L=5, p=0.008, trials=4, decoder="mwpm"),
    ],
    ids=["d3-p02", "d5-p01", "d5-p01-T2-period4", "d5-p008-mwpm"],
)
def test_lifetime_trial_equals_the_reference_loop(cfg, cc_pair3, cc_pair5):
    config = SimConfig(seed=3, **cfg)
    ctx = _build_context(config)
    cc_pair = cc_pair3 if config.L == 3 else cc_pair5
    for trial in range(config.trials):
        got = run_lifetime_trial(ctx, np.random.default_rng([config.seed, trial]))
        want = _parent_lifetime_trial(
            ctx, cc_pair, np.random.default_rng([config.seed, trial])
        )
        assert got == want, trial
        assert not got[1]


def test_lifetime_trial_raises_on_a_residual_syndrome(monkeypatch):
    from surfdec.pauli import PauliOperator

    def no_correction(graph_x, graph_z, events_x, events_z, layout, **kwargs):
        identity = PauliOperator.identity(layout.n_data)
        return identity, identity, None

    ctx = _build_context(SimConfig(L=3, p=0.02, trials=1, seed=1))
    monkeypatch.setattr(experiments, "decode", no_correction)
    with pytest.raises(RuntimeError, match="has a syndrome"):
        run_lifetime_trial(ctx, np.random.default_rng([1, 0]))
