import hashlib
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

from functools import lru_cache

import numpy as np
import pytest

import tableau
from conftest import fault_rows
from surfdec.code import build_layout, build_se_circuit, ideal_syndrome
from surfdec.noise import (
    FAULT_KINDS,
    FaultEvent,
    InvalidFaultError,
    InvalidNoiseError,
    NoiseParams,
    _faulty_locations,
    _round_model,
    _round_signatures,
    enumerate_single_faults,
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


def _readable(circuit, faults):
    """Each (row, round) fault as a ``FaultEvent``, its kind, index and
    payload read from the round model's columns at its row."""
    model = _round_model(circuit)
    kind, index, pay = (a.tolist() for a in (model.kind, model.index, model.payload))
    return [FaultEvent(t, FAULT_KINDS[kind[r]], index[r], pay[r]) for r, t in faults]


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
    faults = _readable(circuit3, sample_faults(circuit3, NoiseParams(p), rounds, rng))
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
    faults = _readable(circuit3, sample_faults(circuit3, NoiseParams(p), rounds, rng))
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
    got = [
        _readable(circuit3, sample_faults(circuit3, params, T, rng, include_idle))
        for _ in range(windows)
    ]
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


#: sha256 of ``repr`` of each window's [(row, round), ...] for windows
#: i < 200 drawn from default_rng([29, L, i]), T = L; recorded from the
#: sampler that built a ``FaultEvent`` per fault, each mapped to its row
SAMPLER_STREAM_SHA256 = {
    (5, True): "348cb1ca2c60bc3bf8fbdf7e94bf9750b115832608b7de084f51aa5be6a591ef",
    (5, False): "27dc8de2cfb408215e169143b997126c66edcfb124a8e77b8d07b8cb97361b28",
    (7, True): "9fb2f669ce3242db26635960c77398af47de7bd2153261679bb8cc2827823955",
    (7, False): "d8a093b8e80da4c71969d465c3e774564fa3bfa83bd2b4a06eeccc597a7687e7",
}


@pytest.mark.parametrize("L, p", [(5, 0.005), (7, 0.001)])
@pytest.mark.parametrize("include_idle", [True, False])
def test_sampler_stream_is_pinned(L, p, include_idle):
    # the generator's calls and the faults they become must not change:
    # every seeded result of the package is drawn through this stream
    circuit = build_se_circuit(build_layout(L))
    digest = hashlib.sha256()
    for i in range(200):
        rng = np.random.default_rng([29, L, i])
        faults = sample_faults(circuit, NoiseParams(p), L, rng, include_idle)
        digest.update(repr([(int(row), int(t)) for row, t in faults]).encode())
    assert digest.hexdigest() == SAMPLER_STREAM_SHA256[L, include_idle]


#: sha256 of ``repr`` of each window's (X events, Z events, residual X mask,
#: residual Z mask) from ``simulate`` for windows i < 300 drawn from
#: default_rng([31, L, i]), T = L, every third without an initial error and
#: the others from a uniform random one drawn after the faults; recorded
#: from the packed-integer frame simulator
SIMULATE_SHA256 = {
    (3, 0.005, True): "4c4d62251b190d1dd3dd3b092986764eb194e951d43fb8cab6627987c09819a9",
    (3, 0.005, False): "123e5565ab7b332238fd0418bc3fc70d7b01ce1150ef73dc88c1af90ec561f34",
    (3, 0.02, True): "b9dbc8687eebdbb7a99961d493a81eae5ce6cad88d53f0471fa4670540e52715",
    (3, 0.02, False): "6a42c1e51b117688d039e1bb9e44000bdd5a00c2182a083ef470ce05edf8022f",
    (5, 0.005, True): "a901296d7876562574c0b53b7454780cd7ce198af81afbceb00608ffbaacec48",
    (5, 0.005, False): "c66a319c2a603444bba48a6535629fc0c2e17f2e0a73e3ed13073b4f54fc3ad3",
    (5, 0.02, True): "c8417b110bdfaf457a10f534358baf66489a2b4a437a41070e23c968bbb5cb0b",
    (5, 0.02, False): "ba03a45e4578819edc4e704eba15ff2af1ebdb8d7219b0d20c085046788e7ac4",
    (7, 0.005, True): "d0a8dee65bf50baf237d5351f2d88ecf3aea8f4beba24b7b8253fa87f7cc9435",
    (7, 0.005, False): "acec2056806091743a8bb596eadf80d18f9e9460ae30763c32ac6ebed8cd904b",
    (7, 0.02, True): "e31191cc304d15aa4a4a572db1c4e2c5a614557a530ea01c8471d0a6556770a1",
    (7, 0.02, False): "1cbd2d19d6841bb7d2c049fac434740f9b84373db05d1fcf6c3b268ec691c6ab",
}


@pytest.mark.parametrize("L", [3, 5, 7])
@pytest.mark.parametrize("p", [0.005, 0.02])
@pytest.mark.parametrize("include_idle", [True, False])
def test_simulate_is_pinned(L, p, include_idle):
    # lifetime windows, the benchmark's latency windows and ``verify`` read
    # ``simulate``: its events and residuals must not change
    layout = build_layout(L)
    circuit = build_se_circuit(layout)
    n = layout.n_data
    digest = hashlib.sha256()
    for i in range(300):
        rng = np.random.default_rng([31, L, i])
        faults = sample_faults(circuit, NoiseParams(p), L, rng, include_idle)
        error = None
        if i % 3:
            x, z = (
                int.from_bytes(rng.bytes(-(-n // 8)), "little") & ((1 << n) - 1)
                for _ in range(2)
            )
            error = PauliOperator(n, x, z)
        hist = simulate(layout, circuit, faults, L, initial_error=error)
        residual = hist.residual
        digest.update(
            repr(
                (hist.x_lattice_events, hist.z_lattice_events, residual.x_mask, residual.z_mask)
            ).encode()
        )
    assert digest.hexdigest() == SIMULATE_SHA256[L, p, include_idle]


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
        assert all(1 <= t <= 3 for _, t in faults)


def test_no_faults_no_events(layout3, circuit3):
    hist = simulate(layout3, circuit3, [], 4)
    assert hist.x_lattice_events == ()
    assert hist.z_lattice_events == ()
    assert hist.residual.is_identity


def test_measurement_flip_makes_temporal_pair(layout3, circuit3):
    t = 2
    for kind, idx in (("meas_z", 3), ("meas_x", 2)):
        fault = fault_rows(circuit3, [FaultEvent(t, kind, idx)])
        hist = simulate(layout3, circuit3, fault, 4)
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
    fault = fault_rows(circuit3, [FaultEvent(2, "idle", q, 1)])
    hist = simulate(layout3, circuit3, fault, 4)
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


def test_a_fault_listed_twice_cancels(layout3, circuit3, graphs3):
    # frames are linear over GF(2): a (row, round) pair that a window lists
    # twice leaves no trace, in ``simulate`` and in the table alike
    last = len(_round_model(circuit3).kind) - 1
    once = [(5, 1), (last, 3)]
    twice = [(5, 1), (100, 2), (last, 3), (100, 2)]
    h1, h2, h3 = (
        simulate(layout3, circuit3, f, 3) for f in (once, twice, [(100, 2)])
    )
    assert h3.x_lattice_events + h3.z_lattice_events  # the repeated fault is seen
    assert (h2.x_lattice_events, h2.z_lattice_events, h2.residual) == (
        h1.x_lattice_events, h1.z_lattice_events, h1.residual
    )
    for graph in graphs3:
        assert graph.window_events(twice) == graph.window_events(once)


def test_invalid_fault_location(layout3, circuit3):
    # a fault is a row of one round and a round of the window; a row past
    # either end must not wrap round to another fault's row (row -1 would
    # read the last idle Pauli's masks)
    rows = len(_round_model(circuit3).kind)
    simulate(layout3, circuit3, [(0, 1), (rows - 1, 2)], 2)  # both ends are in
    for fault, match in (
        ((-1, 1), "row -1"),
        ((rows, 1), f"row {rows}"),
        ((0, 0), "round 0"),
        ((0, 3), "round 3"),
    ):
        with pytest.raises(InvalidFaultError, match=match):
            simulate(layout3, circuit3, [fault], 2)


@pytest.mark.parametrize("L", [3, 5, 7])
@pytest.mark.parametrize("include_idle", [True, False])
def test_fault_row_is_the_position_in_the_round_records(L, include_idle):
    # the sampler, ``simulate`` and the table share this numbering: each
    # table row's (kind, index, payload) names that row of the round model,
    # and the sampler's locations, a first row and a payload count each,
    # cover the model's rows in order, one location's payloads 0, 1, ...
    _, circuit, table, faults = _enumeration(L, 1, include_idle)
    assert faults == [(row, 1) for row in range(len(table))]
    model = _round_model(circuit)
    rows = [first + k for first, payloads in model.locations for k in range(payloads)]
    assert rows == list(range(len(model.kind)))
    for first, payloads in model.locations:
        span = slice(first, first + payloads)
        assert len(set(zip(model.kind[span].tolist(), model.index[span].tolist()))) == 1
        assert model.payload[span].tolist() == list(range(payloads))


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
            ((row, _),) = fault_rows(circuit, [fault])
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


def _events_sets(hist):
    return set(hist.x_lattice_events), set(hist.z_lattice_events)


def test_linearity_over_fault_pairs(layout3, circuit3):
    # detection events are GF(2)-additive and residuals multiply
    rng = np.random.default_rng(7)
    params = NoiseParams(0.05)
    for _ in range(300):
        f1 = sample_faults(circuit3, params, 3, rng)
        f2 = sample_faults(circuit3, params, 3, rng)
        h1 = simulate(layout3, circuit3, f1, 3)
        h2 = simulate(layout3, circuit3, f2, 3)
        h12 = simulate(layout3, circuit3, f1 + f2, 3)
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
    assert all(f.kind != "idle" for f in _readable(circuit3, faults))
    simulate(layout3, circuit3, faults, 3)

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
        hist = simulate(layout3, circuit3, faults, T)
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


def _logical_action(layout, x_mask, z_mask):
    """Whether a residual error anticommutes with X_L and with Z_L."""
    return (
        (z_mask & layout.logical_x.x_mask).bit_count() % 2 == 1,
        (x_mask & layout.logical_z.z_mask).bit_count() % 2 == 1,
    )


@pytest.mark.parametrize("include_idle", [True, False])
@pytest.mark.parametrize("L, T", [(3, 1), (3, 3), (5, 1), (5, 3), (7, 1)])
def test_enumeration_equals_per_fault_simulation(L, T, include_idle):
    # every single fault of the window, row for row, against the stabilizer
    # tableau run with that fault alone (``tableau``, which shares no code
    # with the library's propagation): its events on both lattices and the
    # logical action of its residual.  At L = 7 the round's 5,019 faults
    # (4,764 without idles) fill one block of packed columns and part of a
    # second, whose last word is partial
    layout = build_layout(L)
    circuit = build_se_circuit(layout)
    table = enumerate_single_faults(circuit, T, include_idle)
    faults = table.faults()
    got = tableau.run(circuit, [[f] for f in faults], T)
    columns = (table.x_events, table.z_events, table.x_residual, table.z_residual)
    want = [(x, z, *_logical_action(layout, xr, zr)) for x, z, xr, zr in zip(*columns)]
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, (len(bad), faults[bad[0]], got[bad[0]], want[bad[0]])


def test_round_propagation_memory_does_not_grow_with_dense_frames():
    # at d=13 one-byte-per-fault frame columns peaked at 16.2 MB and
    # bit-packed ones at 8.0 MB, 3.3 MB of it the returned lists; frames or
    # injection tables that grow with the fault count break the bound
    circuit = build_se_circuit(build_layout(13))
    # the propagation itself, not the per-distance table that keeps its result
    _round_signatures(circuit)  # numpy's first-call set-up stays out
    tracemalloc.start()
    try:
        _round_signatures(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


@lru_cache(maxsize=None)
def _enumeration(L, T, include_idle):
    layout = build_layout(L)
    circuit = build_se_circuit(layout)
    table = enumerate_single_faults(circuit, T, include_idle)
    return layout, circuit, table, fault_rows(circuit, table.faults())


def test_simulation_is_sum_of_enumerated_signatures():
    # random windows of up to 8 distinct faults at L = 3 and 5, T = 1..4,
    # every other one from a random data error, as shots of the stabilizer
    # tableau: their events and logical action equal ``simulate``'s and,
    # without an initial error, the symmetric difference of the faults'
    # enumerated signatures and the product of their residuals
    for L in (3, 5):
        for T in range(1, 5):
            layout, circuit, table, rows = _enumeration(L, T, True)
            faults = table.faults()
            n = layout.n_data
            rng = np.random.default_rng([L, T])
            windows, errors = [], []
            for i in range(60):
                picks = rng.integers(0, len(table), int(rng.integers(0, 9)))
                windows.append(sorted(set(picks.tolist())))
                masks = (int.from_bytes(rng.bytes(n // 8 + 1), "little") % (1 << n) for _ in "xz")
                errors.append(tuple(masks) if i % 2 else (0, 0))
            got = tableau.run(circuit, [[faults[i] for i in w] for w in windows], T, errors)
            for chosen, error, shot in zip(windows, errors, got):
                hist = simulate(
                    layout, circuit, [rows[i] for i in chosen], T,
                    initial_error=PauliOperator(n, *error),
                )
                residual = hist.residual
                assert shot == (
                    tuple(sorted(hist.x_lattice_events)),
                    tuple(sorted(hist.z_lattice_events)),
                    *_logical_action(layout, residual.x_mask, residual.z_mask),
                )
                if error != (0, 0):
                    continue
                x, z, xr, zr = set(), set(), 0, 0
                for i in chosen:
                    x ^= set(table.x_events[i])
                    z ^= set(table.z_events[i])
                    xr ^= table.x_residual[i]
                    zr ^= table.z_residual[i]
                assert shot == (tuple(sorted(x)), tuple(sorted(z)), *_logical_action(layout, xr, zr))
