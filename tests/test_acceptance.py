"""Acceptance suite: one test per criterion, each printing a verdict line.

By default the statistical criteria run in CI smoke mode (reduced trial
counts, widened bands, fixed seeds so results are bit-reproducible).  Set
``SURFDEC_ACCEPTANCE=full`` for the desk-scale runs at the stated trial
counts and tolerances; the full threshold scan takes hours on a desktop.

Criterion 4 (joint-correction-weight monotonicity) asserts zero weight
increases where the nonincreasing-weight argument is a theorem: IRMWPM
under the normalized code-capacity weights (base edge 1, correlated edge
0), on random depolarizing errors at L=5 and L=9.  Under -ln circuit-level
reweighting the integer weight is not what the matchings minimize, and a
reweighted matching can legitimately add data flips outside the dual
correction's support; there the criterion reports the measured violation
count without asserting it.  See README.md for the analysis.
"""

import itertools
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from surfdec.code import build_layout, build_se_circuit, ideal_syndrome
from surfdec.experiments import (
    SimConfig,
    estimate_rate,
    threshold_scan,
)
from surfdec.graph import build_code_capacity_pair, build_decoder_graphs
from surfdec.irmwpm import correction_weight, decode
from surfdec.matcher import brute_force_matching, events_to_nodes, mwpm
from surfdec.noise import (
    NoiseParams,
    enumerate_single_faults,
    sample_faults,
    simulate,
)
from surfdec.pauli import PauliOperator, commutation_parity, multiply
from surfdec.verify import run_verification

FULL = os.environ.get("SURFDEC_ACCEPTANCE", "smoke").lower() == "full"
MODE = "full" if FULL else "smoke"


def report(criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"CRITERION {criterion} [{MODE}]: {verdict} - {detail}")


# ---------------------------------------------------------------------------
# shared heavy runs

@pytest.fixture(scope="module")
def verification_report():
    return run_verification(L=5, T=3, p=0.001, instances=200)


@pytest.fixture(scope="module")
def batch_p005():
    """IRMWPM memory trials at L=5, T=5, p=0.005 with the criterion cap."""
    trials = 10_000 if FULL else 2_000
    return estimate_rate(
        SimConfig(
            L=5, p=0.005, trials=trials, seed=42, decoder="irmwpm",
            T=5, max_iterations=25, threads=2,
        )
    )


@pytest.fixture(scope="module")
def batch_p001():
    trials = 10_000 if FULL else 2_000
    return estimate_rate(
        SimConfig(
            L=5, p=0.001, trials=trials, seed=43, decoder="irmwpm",
            T=5, max_iterations=25, threads=2,
        )
    )


@pytest.fixture(scope="module")
def batch_p003():
    trials = 10_000 if FULL else 1_500
    return estimate_rate(
        SimConfig(
            L=5, p=0.003, trials=trials, seed=44, decoder="irmwpm",
            T=5, max_iterations=25, threads=2,
        )
    )


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_conditional_probability_reproduction(verification_report):
    """All 32 interior conditionals match in exact rational arithmetic."""
    rep = verification_report
    ok = rep.ok and rep.matched_conditionals == 32
    report(1, ok, f"{rep.matched_conditionals}/32 conditionals matched exactly")
    assert rep.matched_conditionals == 32
    assert rep.ok, [c.name for c in rep.checks if not c.passed]


def test_criterion_02_edge_probability_derivation():
    """31p/15 temporal edges from 5 mechanisms; 42p/15 and 3p/15 anchors."""
    from surfdec.verify import interior_edges

    gx, gz = build_decoder_graphs(5, 3, 0.001)
    checks = []
    for g, dual in ((gx, gz), (gz, gx)):
        temporal = [e for e in interior_edges(g) if e.letter == "a"]
        checks.append(all(e.coeff == Fraction(31, 15) for e in temporal))
        checks.append(all(e.n_fault_locations == 5 for e in temporal))
        spatial = [e for e in interior_edges(g) if e.letter == "d"]
        checks.append(all(e.coeff == Fraction(42, 15) for e in spatial))
        for e in temporal:
            joints = sorted(
                cond * e.coeff
                for deid, cond in g.corr_to_dual[e.index]
                if dual.edges[deid].letter == "d"
            )
            checks.append(joints == [Fraction(3, 15), Fraction(3, 15)])
    ok = all(checks)
    report(2, ok, "P(a)=31p/15 from 5 faults, P(d1)=42p/15, joint=3p/15, exact")
    assert ok


def test_criterion_03_matcher_optimality():
    """mwpm equals exhaustive brute force on >=1000 random instances."""
    layout = build_layout(3)
    circuit = build_se_circuit(layout)
    gx, gz = build_decoder_graphs(3, 3, 0.02)
    rng = np.random.default_rng(2024)
    params = NoiseParams(0.02)
    instances = mismatches = 0
    while instances < 1000:
        faults = sample_faults(circuit, params, 3, rng)
        hist = simulate(layout, circuit, faults, 3)
        for g, events in (
            (gx, hist.x_lattice_events),
            (gz, hist.z_lattice_events),
        ):
            ev = events_to_nodes(g, events)
            if not ev or len(ev) > 8:
                continue
            instances += 1
            a = mwpm(g, ev).total_weight
            b = brute_force_matching(g, ev).total_weight
            if abs(a - b) > 1e-9:
                mismatches += 1
    report(3, mismatches == 0, f"{instances} instances, {mismatches} mismatches")
    assert mismatches == 0


def _cc_events(cc_pair, layout, err):
    """Code-capacity event nodes (X lattice, Z lattice) of a data error."""
    gx, gz = cc_pair
    syn = ideal_syndrome(layout, err)
    n_x = len(layout.x_stabilizers)
    ev_z = [gz.node_id(i, 1) for i in range(n_x) if syn[i]]
    ev_x = [
        gx.node_id(i, 1) for i in range(len(layout.z_stabilizers)) if syn[n_x + i]
    ]
    return ev_x, ev_z


def _normalized_weight_increases(L: int, trials: int, seed: int) -> tuple[int, int]:
    """IRMWPM on i.i.d. depolarizing data errors at p=0.08, code capacity.

    Returns the number of trials whose joint weight, recomputed at each step
    as the popcount of ``x_mask | z_mask``, ever increases, and the number
    that ran two or more full iterations.
    """
    layout = build_layout(L)
    gx, gz = cc_pair = build_code_capacity_pair(L)
    n = layout.n_data
    rng = np.random.default_rng(seed)
    increases = iterated = 0
    for _ in range(trials):
        hit = np.flatnonzero(rng.random(n) < 0.08)
        kinds = rng.integers(0, 3, n)
        err = PauliOperator.identity(n)
        for q in hit:
            err = multiply(err, PauliOperator.single(n, int(q), "XYZ"[kinds[q]]))
        ev_x, ev_z = _cc_events(cc_pair, layout, err)
        _, _, trace = decode(
            gx, gz, ev_x, ev_z, layout, max_iterations=25,
            raise_on_violation=False,
        )
        ws = [bin(s.ex_mask | s.ez_mask).count("1") for s in trace.steps]
        increases += any(b > a for a, b in zip(ws, ws[1:]))
        iterated += trace.extra_iterations >= 2
    return increases, iterated


def test_criterion_04_weight_monotonicity(batch_p005):
    """Joint Pauli weight never increases under normalized weights.

    Asserted on L=5 and L=9 code-capacity batches, where the
    nonincreasing-weight argument is exact.  Each batch must also exercise
    reweighting: at least 10% of its trials run two or more full
    iterations.  The circuit-level count from ``batch_p005`` is reported,
    not asserted: under -ln weights an increase is legitimate.
    """
    trials = 10_000 if FULL else 2_000
    normalized = {L: _normalized_weight_increases(L, trials, 4) for L in (5, 9)}
    increases = sum(v for v, _ in normalized.values())
    exercised = all(it >= 0.1 * trials for _, it in normalized.values())
    circuit = batch_p005.monotonicity_violations
    report(
        4,
        increases == 0 and exercised,
        "normalized weights, "
        + ", ".join(
            f"L={L}: {v} increases in {trials} trials ({it} ran >= 2 iterations)"
            for L, (v, it) in normalized.items()
        )
        + f"; -ln circuit level (reported only): {circuit}/{batch_p005.trials} "
        "trials increased",
    )
    assert exercised, normalized
    assert increases == 0, (
        "joint Pauli weight increased under normalized weights, where it "
        f"provably cannot: {normalized} (increases, iterated) by L"
    )


def test_criterion_05_termination(batch_p005, batch_p001, batch_p003):
    """Every decode halts within 25 iterations; few extra iterations."""
    ok_halt = batch_p005.nonconverged == 0 and batch_p001.nonconverged == 0
    ok_iters = batch_p003.mean_extra_iterations <= 4.0
    report(
        5,
        ok_halt and ok_iters,
        f"nonconverged: {batch_p005.nonconverged}+{batch_p001.nonconverged} "
        f"of {batch_p005.trials}+{batch_p001.trials}; mean extra iterations "
        f"at p=0.003: {batch_p003.mean_extra_iterations:.2f} (<= 4)",
    )
    assert ok_halt
    assert ok_iters


def _radius_case(cc_pair, layout, err):
    gx, gz = cc_pair
    ev_x, ev_z = _cc_events(cc_pair, layout, err)
    ex_i, ez_i, _ = decode(gx, gz, ev_x, ev_z, layout, max_iterations=15)
    ex_m, ez_m, _ = decode(gx, gz, ev_x, ev_z, layout, max_iterations=0)
    results = []
    for ex, ez in ((ex_i, ez_i), (ex_m, ez_m)):
        total = multiply(err, multiply(ex, ez))
        corrected = (
            all(b == 0 for b in ideal_syndrome(layout, total))
            and commutation_parity(total, layout.logical_x) == 0
            and commutation_parity(total, layout.logical_z) == 0
        )
        results.append(corrected)
    same_action = (
        all(
            b == 0
            for b in ideal_syndrome(layout, multiply(multiply(ex_i, ez_i),
                                                     multiply(ex_m, ez_m)))
        )
        and commutation_parity(
            multiply(multiply(ex_i, ez_i), multiply(ex_m, ez_m)),
            layout.logical_x,
        ) == 0
        and commutation_parity(
            multiply(multiply(ex_i, ez_i), multiply(ex_m, ez_m)),
            layout.logical_z,
        ) == 0
    )
    return results[0], results[1], same_action


def test_criterion_06_decoding_radius():
    """Code capacity: reweighting preserves correction inside the radius."""
    bad = 0
    total = 0

    lay3 = build_layout(3)
    cc3 = build_code_capacity_pair(3)
    weight1 = [
        PauliOperator.single(lay3.n_data, q, k)
        for q in range(lay3.n_data)
        for k in "XYZ"
    ]
    assert len(weight1) == 39
    for err in weight1:
        ir_ok, mw_ok, same = _radius_case(cc3, lay3, err)
        total += 1
        if not (ir_ok and mw_ok and same):
            bad += 1

    lay5 = build_layout(5)
    cc5 = build_code_capacity_pair(5)
    singles5 = [
        PauliOperator.single(lay5.n_data, q, k)
        for q in range(lay5.n_data)
        for k in "XYZ"
    ]
    pairs5 = [
        multiply(a, b) for a, b in itertools.combinations(singles5, 2)
        if (a.x_mask | a.z_mask) != (b.x_mask | b.z_mask)
    ]
    if not FULL:
        rng = np.random.default_rng(6)
        idx = rng.choice(len(pairs5), size=1200, replace=False)
        pairs5 = [pairs5[int(i)] for i in idx]
    for err in singles5 + pairs5:
        ir_ok, mw_ok, same = _radius_case(cc5, lay5, err)
        total += 1
        if not (ir_ok and mw_ok and same):
            bad += 1

    report(6, bad == 0, f"{total} errors within radius, {bad} mishandled")
    assert bad == 0


def test_criterion_07_threshold_reproduction():
    """Crossing estimates for both decoders, reweighted above plain."""
    if FULL:
        distances = (5, 7, 9)
        grid = (0.006, 0.008, 0.010, 0.012, 0.014, 0.016)
        trials = 20_000
        bands = {"mwpm": (0.0085, 0.0115), "irmwpm": (0.0100, 0.0135)}
    else:
        distances = (3, 5)
        grid = (0.006, 0.009, 0.012, 0.015)
        trials = 800
        # small distances pull both crossings down; widened smoke bands
        bands = {"mwpm": (0.004, 0.013), "irmwpm": (0.005, 0.015)}

    crossings = {}
    stds = {}
    for dec in ("mwpm", "irmwpm"):
        rates = {}
        for L in distances:
            for p in grid:
                rates[(L, p)] = estimate_rate(
                    SimConfig(
                        L=L, p=p, trials=trials, seed=300, decoder=dec, threads=2
                    )
                )
        th = threshold_scan(rates, bootstrap=200, seed=1)
        assert not th.no_crossing, f"no crossing found for {dec}"
        crossings[dec] = th.crossing
        stds[dec] = th.crossing_std

    in_band = all(
        bands[d][0] <= crossings[d] <= bands[d][1] for d in crossings
    )
    gap = crossings["irmwpm"] - crossings["mwpm"]
    if FULL:
        separated = gap > math.hypot(stds["mwpm"], stds["irmwpm"])
    else:
        separated = gap > 0
    ok = in_band and separated
    report(
        7,
        ok,
        f"mwpm {crossings['mwpm']:.4f}+-{stds['mwpm']:.4f}, "
        f"irmwpm {crossings['irmwpm']:.4f}+-{stds['irmwpm']:.4f}",
    )
    assert in_band, (crossings, bands)
    assert separated, (crossings, stds)


def test_criterion_08_error_rate_improvement():
    """Reweighting cuts the logical error rate with separated intervals."""
    if FULL:
        L, p, trials, reduction = 7, 0.004, 200_000, 0.20
    else:
        L, p, trials, reduction = 5, 0.006, 4_000, 0.20
    mw = estimate_rate(
        SimConfig(L=L, p=p, trials=trials, seed=101, decoder="mwpm", threads=2)
    )
    ir = estimate_rate(
        SimConfig(L=L, p=p, trials=trials, seed=101, decoder="irmwpm", threads=2)
    )
    improved = ir.rate <= (1 - reduction) * mw.rate
    separated = ir.ci_high < mw.ci_low
    ok = improved and separated
    report(
        8,
        ok,
        f"L={L} p={p}: mwpm {mw.rate:.4f} [{mw.ci_low:.4f},{mw.ci_high:.4f}] "
        f"vs irmwpm {ir.rate:.4f} [{ir.ci_low:.4f},{ir.ci_high:.4f}] "
        f"({(1 - ir.rate / mw.rate):.0%} reduction)",
    )
    assert improved
    assert separated


def test_criterion_09_linearity_and_monte_carlo_consistency():
    """Frame linearity is exact; sampled signatures match enumeration."""
    layout = build_layout(3)
    circuit = build_se_circuit(layout)
    rng = np.random.default_rng(55)
    params = NoiseParams(0.05)
    n_pairs = 10_000 if FULL else 10_000  # fast either way
    for _ in range(n_pairs):
        f1 = sample_faults(circuit, params, 3, rng)
        f2 = sample_faults(circuit, params, 3, rng)
        h1 = simulate(layout, circuit, f1, 3)
        h2 = simulate(layout, circuit, f2, 3)
        h12 = simulate(layout, circuit, f1 + f2, 3)
        assert set(h12.x_lattice_events) == set(h1.x_lattice_events) ^ set(
            h2.x_lattice_events
        )
        assert set(h12.z_lattice_events) == set(h1.z_lattice_events) ^ set(
            h2.z_lattice_events
        )
        assert h12.residual == multiply(h1.residual, h2.residual)

    # single-fault signature frequencies vs first-order enumeration
    p = 0.002
    table = enumerate_single_faults(circuit, 3)
    coeffs = [Fraction(units, 15) for units in table.units.tolist()]
    total = sum(coeffs)
    sig_coeff = {}
    for key, coeff in zip(zip(table.x_events, table.z_events), coeffs):
        sig_coeff[key] = sig_coeff.get(key, Fraction(0)) + coeff
    n_samples = 1_000_000 if FULL else 120_000
    top_n = 40 if FULL else 12
    rng = np.random.default_rng(56)
    params = NoiseParams(p)
    singles = 0
    from collections import Counter

    counts = Counter()
    for _ in range(n_samples):
        faults = sample_faults(circuit, params, 3, rng)
        if len(faults) != 1:
            continue
        singles += 1
        hist = simulate(layout, circuit, faults, 3)
        counts[
            (
                tuple(sorted(hist.x_lattice_events)),
                tuple(sorted(hist.z_lattice_events)),
            )
        ] += 1
    bad = []
    for sig, coeff in sorted(sig_coeff.items(), key=lambda kv: -kv[1])[:top_n]:
        q = float(coeff / total)
        expect = singles * q
        sigma = math.sqrt(singles * q * (1 - q))
        if abs(counts[sig] - expect) > 3 * sigma:
            bad.append((sig, counts[sig], expect))
    ok = not bad
    report(
        9,
        ok,
        f"{n_pairs} exact linearity pairs; {singles} single-fault samples, "
        f"{top_n} signatures within 3 sigma" if ok else f"outliers: {bad}",
    )
    assert ok, bad


def test_criterion_10_determinism(tmp_path):
    """Identical seeds give byte-identical CLI outputs, any thread count."""
    from surfdec.cli import main

    args = [
        "simulate", "--distance", "3", "--p", "0.01", "--trials", "300",
        "--seed", "77", "--decoder", "irmwpm",
    ]
    outs = []
    for tag, threads in (("a", "2"), ("b", "2"), ("c", "1"), ("d", "3")):
        path = tmp_path / f"{tag}.csv"
        jpath = tmp_path / f"{tag}.json"
        rc = main(
            args + ["--threads", threads, "--out", str(path), "--json", str(jpath)]
        )
        assert rc == 0
        outs.append(path.read_bytes() + jpath.read_bytes())
    ok = len(set(outs)) == 1
    report(10, ok, "4 runs (threads 1/2/2/3) byte-identical")
    assert ok
