import math
import tracemalloc
from collections import Counter
from fractions import Fraction

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfdec.code import build_layout, build_se_circuit, ideal_syndrome
from surfdec.noise import (
    FAULT_KINDS,
    FaultEvent,
    InvalidFaultError,
    InvalidNoiseError,
    NoiseParams,
    _faulty_locations,
    _frame_plan,
    _round_model,
    _round_signatures,
    enumerate_single_faults,
    fault_row,
    sample_faults,
    simulate,
)
from surfdec.pauli import PauliOperator, multiply


def test_noise_params_range():
    NoiseParams(0.0)
    NoiseParams(0.3)
    with pytest.raises(InvalidNoiseError):
        NoiseParams(1.0)
    with pytest.raises(InvalidNoiseError):
        NoiseParams(-0.1)


def test_zero_rate_samples_nothing(circuit3):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert sample_faults(circuit3, NoiseParams(0.0), 5, rng) == []
    assert rng.bit_generator.state == state  # no draws


def test_cnot_payload_frequencies(circuit3):
    # every one of the 15 two-qubit payloads occurs at rate p/15
    p = 0.15
    rng = np.random.default_rng(42)
    rounds = -(-10**6 // circuit3.n_cnots_per_round)  # >= 1e6 CNOT locations
    faults = sample_faults(circuit3, NoiseParams(p), rounds, rng)
    n_loc = rounds * circuit3.n_cnots_per_round
    counts = Counter(f.payload for f in faults if f.kind == "cnot")
    expect = n_loc * p / 15
    sigma = math.sqrt(n_loc * (p / 15) * (1 - p / 15))
    assert set(counts) == set(range(15))
    for payload in range(15):
        assert abs(counts[payload] - expect) < 3 * sigma


def test_idle_pauli_frequencies(circuit3):
    p = 0.3
    rng = np.random.default_rng(43)
    n_data = circuit3.layout.n_data
    rounds = -(-10**6 // n_data)
    faults = sample_faults(circuit3, NoiseParams(p), rounds, rng)
    n_loc = rounds * n_data
    counts = Counter(f.payload for f in faults if f.kind == "idle")
    expect = n_loc * p / 3
    sigma = math.sqrt(n_loc * (p / 3) * (1 - p / 3))
    for payload in range(3):
        assert abs(counts[payload] - expect) < 3 * sigma


def _per_fault_sampler(circuit, p, T, rng, include_idle):
    """Reference sampler: one uniform per location, one payload per fault."""
    faults = []
    for t in range(1, T + 1):
        for i in np.nonzero(rng.random(circuit.n_cnots_per_round) < p)[0]:
            faults.append(FaultEvent(t, "cnot", int(i), int(rng.integers(0, 15))))
        for i in np.nonzero(rng.random(circuit.n_x) < p)[0]:
            faults.append(FaultEvent(t, "meas_x", int(i)))
        for i in np.nonzero(rng.random(circuit.n_z) < p)[0]:
            faults.append(FaultEvent(t, "meas_z", int(i)))
        if include_idle:
            for i in np.nonzero(rng.random(circuit.layout.n_data) < p)[0]:
                faults.append(FaultEvent(t, "idle", int(i), int(rng.integers(0, 3))))
    return faults


_KIND_ORDER = {"cnot": 0, "meas_x": 1, "meas_z": 2, "idle": 3}


def _tallies(windows):
    """Hits per kind, per (round, kind, index) location, per (kind, payload)."""
    kinds, locations, payloads = Counter(), Counter(), Counter()
    for faults in windows:
        for f in faults:
            kinds[f.kind] += 1
            locations[f.round, f.kind, f.index] += 1
            payloads[f.kind, f.payload] += 1
    return kinds, locations, payloads


def _z(count, n, q):
    """Standard score of a Binomial(n, q) count."""
    return (count - n * q) / math.sqrt(n * q * (1 - q))


@pytest.mark.parametrize(
    "p, windows, include_idle",
    [(0.05, 4000, True), (0.05, 4000, False), (0.5, 800, True)],
)
def test_sampler_law_matches_per_location_draws(circuit3, p, windows, include_idle):
    # the skipping sampler and the reference, one uniform per location and
    # one payload per fault, must both follow the law: every location hit
    # with probability p, payloads uniform.  Each kind's, each location's and
    # each payload's count lies within 4.5 sigma of its mean, the locations'
    # squared scores sum to within 5 sigma of their chi-square mean, and the
    # two samplers' kind counts agree within 4.5 sigma of their difference
    T = 3
    kinds = [
        (kind, count, payloads)
        for kind, count, payloads in (
            ("cnot", circuit3.n_cnots_per_round, 15),
            ("meas_x", circuit3.n_x, 1),
            ("meas_z", circuit3.n_z, 1),
            ("idle", circuit3.layout.n_data, 3),
        )
        if include_idle or kind != "idle"
    ]
    rng = np.random.default_rng(1)
    params = NoiseParams(p)
    got = [sample_faults(circuit3, params, T, rng, include_idle) for _ in range(windows)]
    rng = np.random.default_rng(2)
    want = [_per_fault_sampler(circuit3, p, T, rng, include_idle) for _ in range(windows)]
    tallies = [_tallies(got), _tallies(want)]
    for kind_hits, location_hits, payload_hits in tallies:
        assert set(kind_hits) <= {kind for kind, _, _ in kinds}
        scores = []
        for kind, count, payloads in kinds:
            assert abs(_z(kind_hits[kind], windows * T * count, p)) < 4.5, kind
            scores += [
                _z(location_hits[t, kind, i], windows, p)
                for t in range(1, T + 1)
                for i in range(count)
            ]
            if payloads > 1:
                for k in range(payloads):
                    z = _z(payload_hits[kind, k], kind_hits[kind], 1 / payloads)
                    assert abs(z) < 4.5, (kind, k)
            assert all(0 <= k < payloads for name, k in payload_hits if name == kind)
        assert max(map(abs, scores)) < 4.5
        dof = len(scores)
        assert sum(z * z for z in scores) < dof + 5 * math.sqrt(2 * dof)
    for kind, count, _ in kinds:
        n = windows * T * count
        diff = tallies[0][0][kind] - tallies[1][0][kind]
        assert abs(diff) < 4.5 * math.sqrt(2 * n * p * (1 - p)), kind
    for faults in got:
        keys = [(f.round, _KIND_ORDER[f.kind], f.index) for f in faults]
        assert keys == sorted(set(keys))  # ascending, each location at most once


def test_equal_generators_give_equal_faults(circuit3):
    for seed in range(50):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        p = (0.001, 0.02, 0.3)[seed % 3]
        assert sample_faults(circuit3, NoiseParams(p), 4, a) == sample_faults(
            circuit3, NoiseParams(p), 4, b
        )
        assert a.bit_generator.state == b.bit_generator.state


class _CountingGenerator:
    """Passes every call on to a generator and counts them."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("p", [0.001, 0.02])
def test_generator_calls_do_not_grow_with_rounds(circuit3, p):
    # one call finds a window's faulty locations and one draws their
    # payloads, whether the window has 65 locations or 6,500
    for T in (1, 10, 100):
        calls = []
        for seed in range(100):
            rng = _CountingGenerator(np.random.default_rng([seed, T]))
            faults = sample_faults(circuit3, NoiseParams(p), T, rng)
            calls.append(rng.calls)
            assert rng.calls == 1 + bool(faults)
        assert max(calls) <= 2


class _UnitGaps:
    """A stand-in generator whose geometric gaps are all 1."""

    def geometric(self, p, size):
        return np.ones(size, dtype=np.int64)


def test_faulty_locations_extend_a_short_batch():
    # gaps of 1 hit every location, so the first batch of 6 positions falls
    # short of 50 and is extended until it passes the end
    assert _faulty_locations(50, 0.01, _UnitGaps()) == list(range(50))


@pytest.mark.parametrize("p", [1e-19, 1e-20])
def test_tiny_rates_sample_faults_inside_the_window(circuit3, p):
    # geometric gaps near 2**63 must not wrap their running sum in int64
    # into positions outside the window's T rounds
    for seed in range(200):
        faults = sample_faults(circuit3, NoiseParams(p), 3, np.random.default_rng(seed))
        assert all(1 <= f.round <= 3 for f in faults)


def test_no_faults_no_events(layout3, circuit3):
    hist = simulate(layout3, circuit3, [], 4, True)
    assert hist.x_lattice_events == ()
    assert hist.z_lattice_events == ()
    assert hist.residual.is_identity


def test_measurement_flip_makes_temporal_pair(layout3, circuit3):
    t = 2
    for kind, idx in (("meas_z", 3), ("meas_x", 2)):
        hist = simulate(layout3, circuit3, [FaultEvent(t, kind, idx)], 4, True)
        events = (
            hist.x_lattice_events if kind == "meas_z" else hist.z_lattice_events
        )
        other = (
            hist.z_lattice_events if kind == "meas_z" else hist.x_lattice_events
        )
        assert events == ((idx, t), (idx, t + 1))
        assert other == ()
        assert hist.residual.is_identity


def test_idle_y_fault_pairs_match_ideal_syndrome(layout3, circuit3):
    # Y on the central data qubit during round 2's measure step is seen by
    # both lattices from round 3 on, at the stabilizers of its syndrome
    q = layout3.data_index[(2, 2)]
    hist = simulate(
        layout3, circuit3, [FaultEvent(2, "idle", q, 1)], 4, True
    )
    syn = ideal_syndrome(layout3, PauliOperator.single(13, q, "Y"))
    n_x = len(layout3.x_stabilizers)
    expect_z_lattice = tuple(
        sorted((i, 3) for i in range(n_x) if syn[i])
    )
    expect_x_lattice = tuple(
        sorted((i, 3) for i in range(6) if syn[n_x + i])
    )
    assert hist.z_lattice_events == expect_z_lattice
    assert hist.x_lattice_events == expect_x_lattice
    assert hist.residual == PauliOperator.single(13, q, "Y")


@pytest.mark.parametrize("L", range(3, 10))
def test_frame_plan_reproduces_every_cnot(L):
    # each layer's one shift and two ancilla masks give back exactly the
    # layer's (control, target) pairs, as global qubit indices
    layout = build_layout(L)
    circuit = build_se_circuit(layout)
    plan = _frame_plan(L)
    n_data = layout.n_data
    qubit = {b: n_data + i for i, b in enumerate(plan.x_cols.tolist())}
    qubit.update({b: n_data + circuit.n_x + i for i, b in enumerate(plan.z_cols.tolist())})
    assert len(qubit) == circuit.n_x + circuit.n_z
    assert len(plan.layers) == len(circuit.cnot_layers)
    for (shift, x_ctl, z_tgt), (cs, ts) in zip(plan.layers, circuit.cnot_layers):
        pairs = [(qubit[b], b - shift) for b in qubit if x_ctl >> b & 1]
        pairs += [(b - shift, qubit[b]) for b in qubit if z_tgt >> b & 1]
        assert sorted(pairs) == sorted(zip(cs.tolist(), ts.tolist()))
        assert (x_ctl | z_tgt) & ~sum(1 << b for b in qubit) == 0


def test_invalid_fault_location(layout3, circuit3):
    with pytest.raises(InvalidFaultError):
        simulate(layout3, circuit3, [FaultEvent(1, "cnot", 10**6, 0)], 2, True)
    with pytest.raises(InvalidFaultError):
        simulate(layout3, circuit3, [FaultEvent(9, "idle", 0, 0)], 2, True)


@pytest.mark.parametrize("L", [3, 5, 7])
@pytest.mark.parametrize("include_idle", [True, False])
def test_fault_row_is_the_position_in_the_round_records(L, include_idle):
    # the sampler, ``fault_row``, ``simulate`` and the table share this
    # numbering
    _, circuit, _, faults = _enumeration(L, 1, include_idle)
    for row, f in enumerate(faults):
        for t in (1, 4):
            assert fault_row(circuit, FaultEvent(t, f.kind, f.index, f.payload)) == row


@pytest.mark.parametrize("L", [3, 5])
def test_round_model_flips_are_each_faults_stated_action(L):
    # every fault's action, written from ``FaultEvent``'s docstring and not
    # from the payload tables, as (row, phase, qubit, flips X, flips Z) per
    # qubit it acts on; Paulis 0-3 are I, X, Y, Z, and the phase is the
    # CNOT layer (0-3) after which it acts, or 4 for after the reset
    circuit = build_se_circuit(build_layout(L))
    want = []

    def act(fault, phase, qubit, pauli):
        if pauli:
            row = fault_row(circuit, fault)
            want.append((row, phase, qubit, pauli in (1, 2), pauli in (2, 3)))

    for i, (layer, c, t) in enumerate(circuit.cnot_flat):
        for payload in range(15):
            pc, pt = divmod(payload + 1, 4)
            act(FaultEvent(1, "cnot", i, payload), layer, c, pc)
            act(FaultEvent(1, "cnot", i, payload), layer, t, pt)
    for q in range(circuit.layout.n_data):
        for payload in range(3):
            act(FaultEvent(1, "idle", q, payload), 4, q, payload + 1)
    last = len(circuit.cnot_layers) - 1
    for s, a in enumerate(circuit.x_anc_global.tolist()):
        act(FaultEvent(1, "meas_x", s), last, a, 3)  # Z on the X-ancilla
    for s, a in enumerate(circuit.z_anc_global.tolist()):
        act(FaultEvent(1, "meas_z", s), last, a, 1)  # X on the Z-ancilla
    model = _round_model(circuit)
    got = list(zip(*(a.tolist() for a in model.flips)))
    assert sorted(got) == sorted(want)
    assert set(model.flips[0].tolist()) == set(range(len(model.kind)))


@pytest.mark.parametrize(
    "kind, index, payload, match",
    [
        ("reset", 0, 0, "unknown fault kind"),
        ("cnot", -1, 0, "index"),
        ("cnot", "n_cnot", 0, "index"),
        ("cnot", 0, 15, "payload"),
        ("cnot", 0, -1, "payload"),
        ("meas_x", "n_x", 0, "index"),
        ("meas_x", 0, 1, "payload"),
        ("meas_z", "n_z", 0, "index"),
        ("meas_z", -1, 0, "index"),
        ("idle", "n_data", 0, "index"),
        ("idle", 0, 3, "payload"),
    ],
)
def test_bad_faults_are_rejected(layout3, circuit3, kind, index, payload, match):
    # a bad fault must not read another fault's row of the table, nor be
    # simulated as another fault (a CNOT payload of -1 used to act as 14)
    limits = {
        "n_cnot": circuit3.n_cnots_per_round,
        "n_x": circuit3.n_x,
        "n_z": circuit3.n_z,
        "n_data": circuit3.layout.n_data,
    }
    fault = FaultEvent(1, kind, limits.get(index, index), payload)
    with pytest.raises(InvalidFaultError, match=match):
        fault_row(circuit3, fault)
    with pytest.raises(InvalidFaultError, match=match):
        simulate(layout3, circuit3, [fault], 1, True)


def _events_sets(hist):
    return set(hist.x_lattice_events), set(hist.z_lattice_events)


def test_linearity_over_fault_pairs(layout3, circuit3):
    # detection events are GF(2)-additive and residuals multiply
    rng = np.random.default_rng(7)
    params = NoiseParams(0.05)
    for _ in range(300):
        f1 = sample_faults(circuit3, params, 3, rng)
        f2 = sample_faults(circuit3, params, 3, rng)
        h1 = simulate(layout3, circuit3, f1, 3, True)
        h2 = simulate(layout3, circuit3, f2, 3, True)
        h12 = simulate(layout3, circuit3, f1 + f2, 3, True)
        x1, z1 = _events_sets(h1)
        x2, z2 = _events_sets(h2)
        x12, z12 = _events_sets(h12)
        assert x12 == x1 ^ x2
        assert z12 == z1 ^ z2
        assert h12.residual == multiply(h1.residual, h2.residual)


def test_enumeration_at_most_two_events_per_lattice(circuit3):
    table = enumerate_single_faults(circuit3, 3)
    assert max(map(len, table.x_events + table.z_events)) <= 2


def test_enumeration_coefficients(circuit3):
    table = enumerate_single_faults(circuit3, 3)
    expected = {
        "idle": Fraction(1, 3),
        "cnot": Fraction(1, 15),
        "meas_x": Fraction(1),
        "meas_z": Fraction(1),
    }
    for fault, units in zip(table.faults(), table.units.tolist()):
        assert Fraction(units, 15) == expected[fault.kind]


def test_table_columns_are_the_rounds_repeated(circuit3):
    # rounds ascending, each the round-1 rows with their events shifted
    first = enumerate_single_faults(circuit3, 1)
    table = enumerate_single_faults(circuit3, 3)
    n = len(first)
    assert len(table) == 3 * n == len(table.x_events) == len(table.z_residual)
    assert table.round.tolist() == [1] * n + [2] * n + [3] * n
    for name in ("kind", "index", "payload", "units"):
        assert getattr(table, name).tolist() == getattr(first, name).tolist() * 3
    assert table.x_residual == first.x_residual * 3
    assert table.z_events[2 * n :] == [
        tuple((s, r + 2) for s, r in sig) for sig in first.z_events
    ]
    # kinds in FAULT_KINDS order, one contiguous block each
    kinds = table.kind[:n].tolist()
    assert kinds == sorted(kinds) and set(kinds) == set(range(len(FAULT_KINDS)))


def test_enumeration_counts(layout3, circuit3):
    T = 3
    records = enumerate_single_faults(circuit3, T)
    per_round = (
        circuit3.n_cnots_per_round * 15
        + circuit3.n_x
        + circuit3.n_z
        + layout3.n_data * 3
    )
    assert len(records) == per_round * T
    no_idle = enumerate_single_faults(circuit3, T, include_idle=False)
    assert len(no_idle) == (per_round - layout3.n_data * 3) * T


def test_temporal_edge_has_five_fault_locations(circuit3):
    # an interior temporal pair is produced by 4 CNOT locations + 1 flip
    table = enumerate_single_faults(circuit3, 3)
    target = ((3, 2), (3, 3))
    locations = {
        (f.round, f.kind, f.index)
        for f, events in zip(table.faults(), table.x_events)
        if events == target
    }
    assert len(locations) == 5
    kinds = Counter(kind for _, kind, _ in locations)
    assert kinds == Counter({"cnot": 4, "meas_z": 1})


def test_idle_noise_off_runs_clean(layout3, circuit3):
    rng = np.random.default_rng(5)
    faults = sample_faults(circuit3, NoiseParams(0.1), 3, rng, include_idle=False)
    assert all(f.kind != "idle" for f in faults)
    simulate(layout3, circuit3, faults, 3, True)

    def locations(include_idle):
        faults = enumerate_single_faults(circuit3, 1, include_idle).faults()
        return {(f.kind, f.index) for f in faults}

    assert len(locations(False)) == len(locations(True)) - layout3.n_data


def test_monte_carlo_single_fault_signatures(layout3, circuit3):
    # among trials with exactly one fault, signature frequencies equal the
    # enumeration's relative rates (exact conditional law, 3-sigma band)
    T, p = 3, 0.002
    table = enumerate_single_faults(circuit3, T)
    coeffs = [Fraction(units, 15) for units in table.units.tolist()]
    total = sum(coeffs)
    sig_coeff = {}
    for key, coeff in zip(zip(table.x_events, table.z_events), coeffs):
        sig_coeff[key] = sig_coeff.get(key, Fraction(0)) + coeff

    rng = np.random.default_rng(11)
    params = NoiseParams(p)
    n_samples = 40_000
    singles = 0
    counts = Counter()
    for _ in range(n_samples):
        faults = sample_faults(circuit3, params, T, rng)
        if len(faults) != 1:
            continue
        singles += 1
        hist = simulate(layout3, circuit3, faults, T, True)
        counts[
            (tuple(sorted(hist.x_lattice_events)), tuple(sorted(hist.z_lattice_events)))
        ] += 1

    assert singles > 5000
    top = sorted(sig_coeff.items(), key=lambda kv: -kv[1])[:15]
    for sig, coeff in top:
        q = float(coeff / total)
        expect = singles * q
        sigma = math.sqrt(singles * q * (1 - q))
        assert abs(counts[sig] - expect) <= 3 * sigma, (sig, counts[sig], expect)


@pytest.mark.parametrize("include_idle", [True, False])
@pytest.mark.parametrize("L, T", [(3, 1), (3, 3), (5, 1), (5, 3), (7, 1)])
def test_enumeration_equals_per_fault_simulation(L, T, include_idle):
    # the one-round propagation shifted in time, row for row, against one
    # simulate call per fault; at L = 7 the round's 5,019 faults (4,764
    # without idles) fill one block of packed columns and part of a second,
    # whose last word is partial
    layout = build_layout(L)
    circuit = build_se_circuit(layout)
    table = enumerate_single_faults(circuit, T, include_idle)
    simulated = [simulate(layout, circuit, [f], T, True) for f in table.faults()]
    assert table.x_events == [tuple(sorted(h.x_lattice_events)) for h in simulated]
    assert table.z_events == [tuple(sorted(h.z_lattice_events)) for h in simulated]
    assert table.x_residual == [h.residual.x_mask for h in simulated]
    assert table.z_residual == [h.residual.z_mask for h in simulated]


def test_round_propagation_memory_does_not_grow_with_dense_frames():
    # at d=13 one-byte-per-fault frame columns peaked at 16.2 MB and
    # bit-packed ones at 8.0 MB, 3.3 MB of it the returned lists; frames or
    # injection tables that grow with the fault count break the bound
    circuit = build_se_circuit(build_layout(13))
    _round_signatures(circuit, True)  # numpy's first-call set-up stays out
    tracemalloc.start()
    try:
        _round_signatures(circuit, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


@lru_cache(maxsize=None)
def _enumeration(L, T, include_idle):
    layout = build_layout(L)
    circuit = build_se_circuit(layout)
    table = enumerate_single_faults(circuit, T, include_idle)
    return layout, circuit, table, table.faults()


@settings(max_examples=120, deadline=None)
@given(
    L=st.sampled_from([3, 5]),
    T=st.integers(1, 4),
    include_idle=st.booleans(),
    picks=st.lists(st.floats(0, 1, exclude_max=True), max_size=8),
)
def test_simulation_is_sum_of_enumerated_signatures(L, T, include_idle, picks):
    # frames are linear: any fault set's events are the symmetric difference
    # of its faults' enumerated signatures, its residual their product
    layout, circuit, table, faults = _enumeration(L, T, include_idle)
    chosen = sorted({int(u * len(table)) for u in picks})  # each row at most once
    hist = simulate(layout, circuit, [faults[i] for i in chosen], T, True)
    x, z = set(), set()
    residual = PauliOperator.identity(layout.n_data)
    for i in chosen:
        x ^= set(table.x_events[i])
        z ^= set(table.z_events[i])
        error = PauliOperator(layout.n_data, table.x_residual[i], table.z_residual[i])
        residual = multiply(residual, error)
    assert set(hist.x_lattice_events) == x
    assert set(hist.z_lattice_events) == z
    assert hist.residual == residual
