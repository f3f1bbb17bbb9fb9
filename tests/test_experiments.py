import math

import numpy as np
import pytest

from surfdec.experiments import (
    FitError,
    FitParams,
    SimConfig,
    _build_context,
    estimate_lifetime,
    estimate_rate,
    fit_scaling,
    iteration_stats,
    run_memory_trial,
    threshold_scan,
    wilson_interval,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(L=1, p=0.01, trials=10)
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
    ):
        with pytest.raises(ValueError):
            SimConfig(L=3, p=0.01, trials=10, **bad)
    cfg = SimConfig(L=3, p=0.01, trials=10)
    assert cfg.rounds == 3  # defaults to L


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0


def test_reproducible_across_thread_counts():
    base = dict(L=3, p=0.01, trials=150, seed=31)
    rows = [
        estimate_rate(SimConfig(**base, threads=t)).to_row() for t in (1, 2, 3)
    ]
    assert rows[0] == rows[1] == rows[2]


def test_vanishing_noise_never_fails():
    est = estimate_rate(SimConfig(L=3, p=1e-5, trials=2000, seed=3, threads=2))
    assert est.failures == 0


def test_single_fault_within_radius_never_fails(layout3, circuit3):
    # Theorem-2 regime: any single fault is corrected with a perfect final round
    from surfdec.noise import enumerate_single_faults, simulate
    from surfdec.matcher import events_to_nodes
    from surfdec.irmwpm import decode
    from surfdec.graph import build_decoder_graphs
    from surfdec.experiments import _logical_failure

    gx, gz = build_decoder_graphs(3, 3, 0.001)
    records = enumerate_single_faults(layout3, circuit3, 3)
    for rec in records[:: max(1, len(records) // 500)]:
        hist = simulate(layout3, circuit3, [rec.fault], 3, True)
        e_x, e_z, _ = decode(
            gx,
            gz,
            events_to_nodes(gx, hist.x_lattice_events),
            events_to_nodes(gz, hist.z_lattice_events),
            layout3,
            raise_on_violation=False,
        )
        assert not _logical_failure(layout3, hist.residual, e_x, e_z)


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


def test_lifetime_zero_noise_hits_cap():
    est = estimate_lifetime(
        SimConfig(L=3, p=1e-9, trials=3, seed=0, threads=1, lifetime_cap=60)
    )
    assert est.capped == 3
    assert est.mean_rounds == 60


def test_lifetime_shrinks_above_threshold():
    caps = dict(trials=40, seed=7, threads=2, lifetime_cap=2000, decoder="mwpm")
    lt3 = estimate_lifetime(SimConfig(L=3, p=0.03, **caps))
    lt5 = estimate_lifetime(SimConfig(L=5, p=0.03, **caps))
    assert lt5.mean_rounds < lt3.mean_rounds


def test_lifetime_grows_below_threshold():
    caps = dict(trials=40, seed=7, threads=2, lifetime_cap=30000, decoder="mwpm")
    lt3 = estimate_lifetime(SimConfig(L=3, p=0.005, **caps))
    lt5 = estimate_lifetime(SimConfig(L=5, p=0.005, **caps))
    assert lt5.mean_rounds > 1.5 * lt3.mean_rounds


def test_iteration_stats():
    stats = iteration_stats({0: 10, 1: 5, 2: 5})
    assert stats["count"] == 20
    assert stats["mean"] == pytest.approx(0.75)
    assert stats["histogram"] == {0: 10, 1: 5, 2: 5}


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
