import itertools
import math

import numpy as np
import pytest

from conftest import fault_rows
from surfdec.code import ideal_syndrome
from surfdec.irmwpm import (
    MonotonicityError,
    correction_weight,
    decode,
    reweight,
    stopping_criterion,
)
from surfdec.matcher import MatchingResult, events_to_nodes, mwpm
from surfdec.noise import FaultEvent, NoiseParams, sample_faults, simulate
from surfdec.pauli import PauliOperator, commutation_parity, multiply, weight


def _cc_events(cc_pair, layout, err):
    gx, gz = cc_pair
    syn = ideal_syndrome(layout, err)
    n_x = len(layout.x_stabilizers)
    ev_z = [gz.node_id(i, 1) for i in range(n_x) if syn[i]]
    ev_x = [gx.node_id(i, 1) for i in range(len(layout.z_stabilizers)) if syn[n_x + i]]
    return ev_x, ev_z


def test_correction_weight_trivial():
    i5 = PauliOperator.identity(5)
    assert correction_weight(i5, i5) == 0
    x1 = PauliOperator(5, 0b00010, 0)
    z1 = PauliOperator(5, 0, 0b00010)
    assert correction_weight(x1, z1) == 1  # X and Z on one qubit make a Y
    x12 = PauliOperator(5, 0b00110, 0)
    z23 = PauliOperator(5, 0, 0b01100)
    assert correction_weight(x12, z23) == 3


def test_reweight_empty_matching(graphs3):
    gx, gz = graphs3
    overlay = reweight(gx, mwpm(gx, []))
    assert len(overlay) == 0


def test_reweight_temporal_edge_value(graphs5, layout5):
    # matching across one interior temporal edge discounts the correlated
    # spatial dual edges to -ln(3/31)
    gx, gz = graphs5
    from surfdec.verify import interior_edges

    a_edge = next(e for e in interior_edges(gx) if e.letter == "a")
    m = mwpm(gx, [a_edge.u, a_edge.v])
    assert m.path_edges[(a_edge.u, a_edge.v)] == (a_edge.index,)
    overlay = reweight(gx, m)
    expected = -math.log(3 / 31)
    d_targets = [
        deid
        for deid, cond in gx.corr_to_dual[a_edge.index]
        if gz.edges[deid].letter == "d"
    ]
    assert len(d_targets) == 2
    for deid in d_targets:
        assert overlay[deid] == pytest.approx(expected, abs=1e-9)
        assert overlay[deid] == pytest.approx(2.3354, abs=5e-4)


def test_reweight_code_capacity_zeroes(cc_pair3, layout3):
    gx, gz = cc_pair3
    err = PauliOperator.single(13, layout3.data_index[(2, 2)], "X")
    ev_x, _ = _cc_events(cc_pair3, layout3, err)
    m = mwpm(gx, ev_x)
    overlay = reweight(gx, m)
    assert overlay
    assert all(w == 0.0 for w in overlay.values())


def test_reweight_never_negative(graphs5, cc_pair5):
    # each conditional weighs exactly -ln(conditional) on circuit lattices,
    # 0 on code-capacity ones
    for g in graphs5:
        for row in g.corr_to_dual:
            for _deid, cond in row:
                assert 0 < cond < 1
                assert cond.weight == -math.log(float(cond))
                assert cond.weight > 0
    for g in cc_pair5:
        ws = [cond.weight for row in g.corr_to_dual for _, cond in row]
        assert ws and all(w == 0.0 for w in ws)


def test_decode_no_events(graphs3, layout3):
    gx, gz = graphs3
    e_x, e_z, trace = decode(gx, gz, [], [], layout3)
    assert e_x.is_identity and e_z.is_identity
    assert trace.stop_reason == "no_events"
    assert len(trace.steps) == 1


def test_single_x_error_irmwpm_equals_mwpm(layout3, circuit3, graphs3):
    # one X error makes no Z-lattice events, so reweighting is vacuous
    gx, gz = graphs3
    for q in range(layout3.n_data):
        fault = fault_rows(circuit3, [FaultEvent(2, "idle", q, 0)])
        hist = simulate(layout3, circuit3, fault, 3, True)
        assert hist.z_lattice_events == ()
        ev_x = events_to_nodes(gx, hist.x_lattice_events)
        ex_i, ez_i, _ = decode(gx, gz, ev_x, [], layout3)
        ex_m, ez_m, _ = decode(gx, gz, ev_x, [], layout3, max_iterations=0)
        assert ex_i == ex_m and ez_i == ez_m


def test_planted_y_pattern_differs_and_improves(cc_pair3, layout3):
    # exhaustive search over 1- and 2-qubit Y patterns at d=3 (code
    # capacity): the decoders must disagree somewhere, and whenever they
    # do, the reweighted result is never heavier
    gx, gz = cc_pair3
    n = layout3.n_data
    patterns = [PauliOperator.single(n, q, "Y") for q in range(n)] + [
        multiply(PauliOperator.single(n, a, "Y"), PauliOperator.single(n, b, "Y"))
        for a, b in itertools.combinations(range(n), 2)
    ]
    differing = 0
    for err in patterns:
        ev_x, ev_z = _cc_events(cc_pair3, layout3, err)
        ex_i, ez_i, _ = decode(gx, gz, ev_x, ev_z, layout3)
        ex_m, ez_m, _ = decode(gx, gz, ev_x, ev_z, layout3, max_iterations=0)
        if (ex_i, ez_i) != (ex_m, ez_m):
            differing += 1
            assert correction_weight(ex_i, ez_i) <= correction_weight(ex_m, ez_m)
    assert differing > 0


def test_stopping_consecutive():
    assert stopping_criterion("consecutive", 3, 5, [3], [5], 2, 2)
    assert not stopping_criterion("consecutive", 3, 5, [3], [6], 2, 2)
    # pairs cycling A, B, A: the second A repeats an earlier pair
    assert stopping_criterion("consecutive", 1, 7, [1, 2], [7, 6], 2, 2)


def test_stopping_literal_catches_cycles():
    # X estimates cycling A, B, A: the literal rule halts at the second A
    ex_history = [0b01, 0b10]  # A, B
    assert stopping_criterion(
        "algorithm1-literal", 0b01, 0b101, ex_history, [7, 6], 2, 2
    )
    # the pair (A, 0b101) is new, so the pair rule does not
    assert not stopping_criterion(
        "consecutive", 0b01, 0b101, ex_history, [7, 6], 2, 2
    )


def test_stopping_weight_stable():
    assert not stopping_criterion("weight-stable", 1, 1, [], [], 3, 5)
    assert stopping_criterion("weight-stable", 1, 1, [], [], 4, 4)
    with pytest.raises(ValueError):
        stopping_criterion("nonsense", 0, 0, [], [], 0, 0)


def test_consecutive_stops_a_period_two_cycle(layout5, circuit5):
    # this window's full-iteration pairs alternate between joint weights 6
    # and 5; the pair rule stops at the first repeat and keeps the lighter
    from surfdec.graph import build_decoder_graphs

    gx, gz = build_decoder_graphs(5, 5, 0.005)
    # one d=5, T=5, p=0.005 window, listed so the test does not depend on the
    # sampler's generator stream
    faults = fault_rows(circuit5, [
        FaultEvent(1, "idle", 39, 1),
        FaultEvent(3, "cnot", 62, 7),
        FaultEvent(3, "cnot", 141, 10),
        FaultEvent(4, "cnot", 120, 11),
        FaultEvent(4, "cnot", 137, 4),
        FaultEvent(5, "cnot", 129, 7),
    ])
    hist = simulate(layout5, circuit5, faults, 5, True)
    ev_x = events_to_nodes(gx, hist.x_lattice_events)
    ev_z = events_to_nodes(gz, hist.z_lattice_events)
    e_x, e_z, trace = decode(gx, gz, ev_x, ev_z, layout5, raise_on_violation=False)
    full = [s for s in trace.steps if s.index == int(s.index)]
    assert [s.pauli_weight for s in full] == [6, 5, 6]
    assert (full[2].ex_mask, full[2].ez_mask) == (full[0].ex_mask, full[0].ez_mask)
    assert trace.stop_reason == "cycle"
    assert trace.extra_iterations == 2
    assert correction_weight(e_x, e_z) == 5
    assert (e_x.x_mask, e_z.z_mask) == (full[1].ex_mask, full[1].ez_mask)
    assert e_x.z_mask == 0 and e_z.x_mask == 0


def test_decode_rejects_bad_mode(graphs3, layout3):
    gx, gz = graphs3
    with pytest.raises(ValueError):
        decode(gx, gz, [], [], layout3, stopping="bogus")
    with pytest.raises(ValueError):
        decode(gx, gz, [], [], layout3, max_iterations=-1)


def test_trace_indices_and_cap(layout5, cc_pair5):
    gx, gz = cc_pair5
    rng = np.random.default_rng(8)
    n = layout5.n_data
    err = PauliOperator(n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)))
    ev_x, ev_z = _cc_events(cc_pair5, layout5, err)
    _, _, trace = decode(gx, gz, ev_x, ev_z, layout5, max_iterations=4)
    indices = [s.index for s in trace.steps]
    assert indices[0] == 0.0
    assert indices == sorted(indices)
    assert trace.extra_iterations <= 4
    assert trace.stop_reason in ("converged", "cycle", "max_iters", "no_events")


def test_code_capacity_monotone_exhaustive(cc_pair3, layout3):
    # normalized weights: the nonincreasing-weight argument is exact, so
    # any violation here is an implementation bug
    gx, gz = cc_pair3
    n = layout3.n_data
    singles = [
        PauliOperator.single(n, q, k) for q in range(n) for k in "XYZ"
    ]
    pairs = [
        multiply(a, b)
        for a, b in itertools.combinations(singles, 2)
        if weight(multiply(a, b)) == 2
    ]
    for err in singles + pairs:
        ev_x, ev_z = _cc_events(cc_pair3, layout3, err)
        _, _, trace = decode(
            gx, gz, ev_x, ev_z, layout3, max_iterations=15
        )  # raises MonotonicityError on any increase
        ws = [s.pauli_weight for s in trace.steps]
        assert all(b <= a for a, b in zip(ws, ws[1:]))


def test_reweight_skips_edges_that_cancel(cc_pair5):
    # an edge crossed by two matched paths is not in the dual correction,
    # so it must not discount its correlates (X edge 13 joins nodes 5 and 9;
    # reweight reads only the multiset of path edges)
    gx, gz = cc_pair5
    once = MatchingResult(path_edges={(5, 9): (13,)})
    twice = MatchingResult(path_edges={(5, 9): (13,), (9, 5): (13,)})
    assert reweight(gx, once) == {16: 0.0}
    assert len(reweight(gx, twice)) == 0


def test_shared_dual_edge_keeps_code_capacity_monotone(cc_pair5, layout5):
    # at step 1 two matched X paths cross X edge 13 (qubit 15); discounting
    # its Z correlate anyway let the Z matching at step 1.5 add qubit 15 for
    # free, and the joint weight went 7, 7, 6, 7
    gx, gz = cc_pair5
    ev_x = [4, 5, 8, 9, 13, 14, 18, 19]
    ev_z = [1, 6, 7, 12, 13, 14]
    _, _, trace = decode(gx, gz, ev_x, ev_z, layout5)  # raises on any increase
    ws = [s.pauli_weight for s in trace.steps]
    assert ws[:3] == [7, 7, 6]
    assert all(b <= a for a, b in zip(ws, ws[1:]))


def test_circuit_level_violations_are_recorded_not_raised(
    layout5, circuit5
):
    # under -ln circuit-level weights the integer Pauli weight is NOT
    # provably monotone; decode must either raise (default) or record
    from surfdec.graph import build_decoder_graphs

    gx, gz = build_decoder_graphs(5, 5, 0.005)
    rng = np.random.default_rng(42)
    params = NoiseParams(0.005)
    seen_violation = False
    for _ in range(60):
        faults = sample_faults(circuit5, params, 5, rng)
        hist = simulate(layout5, circuit5, faults, 5, True)
        ev_x = events_to_nodes(gx, hist.x_lattice_events)
        ev_z = events_to_nodes(gz, hist.z_lattice_events)
        try:
            _, _, trace = decode(gx, gz, ev_x, ev_z, layout5, max_iterations=10)
        except MonotonicityError:
            seen_violation = True
            _, _, trace = decode(
                gx,
                gz,
                ev_x,
                ev_z,
                layout5,
                max_iterations=10,
                raise_on_violation=False,
            )
            assert not trace.monotonic
    assert seen_violation  # seed 42 hits one inside 60 trials


def test_decoding_radius_weight_one_d3(cc_pair3, layout3):
    # every weight-1 error is corrected, and reweighting never changes the
    # logical action relative to plain matching
    gx, gz = cc_pair3
    n = layout3.n_data
    for q in range(n):
        for k in "XYZ":
            err = PauliOperator.single(n, q, k)
            ev_x, ev_z = _cc_events(cc_pair3, layout3, err)
            ex_i, ez_i, _ = decode(gx, gz, ev_x, ev_z, layout3)
            ex_m, ez_m, _ = decode(gx, gz, ev_x, ev_z, layout3, max_iterations=0)
            for ex, ez in ((ex_i, ez_i), (ex_m, ez_m)):
                total = multiply(err, multiply(ex, ez))
                assert all(b == 0 for b in ideal_syndrome(layout3, total))
                assert commutation_parity(total, layout3.logical_x) == 0
                assert commutation_parity(total, layout3.logical_z) == 0


def test_decode_never_repeats_a_matching(monkeypatch, layout5, circuit5):
    # a lattice is matched again only when its overlay changed, and matching
    # is deterministic, so no call within one decode repeats an earlier one
    from surfdec import irmwpm
    from surfdec.graph import build_decoder_graphs

    gx, gz = build_decoder_graphs(5, 5, 0.005)
    real_mwpm = irmwpm.mwpm
    calls = []

    def counting_mwpm(graph, events, overlay=None, prune_neighbors=None):
        key = (id(graph), tuple(sorted(events)), tuple(sorted((overlay or {}).items())))
        calls.append(key)
        return real_mwpm(graph, events, overlay, prune_neighbors)

    monkeypatch.setattr(irmwpm, "mwpm", counting_mwpm)
    params = NoiseParams(0.005)
    iterated = 0
    for i in range(200):
        rng = np.random.default_rng([9, 5, i])
        faults = sample_faults(circuit5, params, 5, rng)
        hist = simulate(layout5, circuit5, faults, 5, True)
        calls.clear()
        _, _, trace = decode(
            gx,
            gz,
            events_to_nodes(gx, hist.x_lattice_events),
            events_to_nodes(gz, hist.z_lattice_events),
            layout5,
            raise_on_violation=False,
        )
        iterated += trace.extra_iterations >= 2
        assert len(set(calls)) == len(calls), f"window {i} repeats a matching"
    assert iterated >= 20  # 35 of these 200 windows
