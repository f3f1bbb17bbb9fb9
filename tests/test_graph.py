import gc
import hashlib
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fault_rows
from surfdec.code import build_layout, build_se_circuit, ideal_syndrome
from surfdec.graph import (
    DecodingGraph,
    DegenerateWeightError,
    Edge,
    EdgeClassificationError,
    GEOMETRY_LETTERS,
    GraphBuildError,
    INTERIOR_COEFFS,
    InvalidRateError,
    build_code_capacity_pair,
    build_decoder_graphs,
    build_graph,
    derive_correlations,
    graph_to_dict,
)
from surfdec.matcher import events_to_nodes
from surfdec.noise import (
    FaultEvent,
    FaultTable,
    InvalidFaultError,
    NoiseParams,
    enumerate_single_faults,
    sample_faults,
    simulate,
)
from surfdec.pauli import PauliOperator, commutation_parity
from surfdec.verify import (
    INTERIOR_CONDITIONAL_ROWS,
    N_INTERIOR_CONDITIONALS,
    VerifyReport,
    check_conditional_rows,
    check_edge_anchors,
    interior_edges,
    typed_row,
)


def test_temporal_edge_probability(graphs3):
    gx, _ = graphs3
    interior_a = [e for e in interior_edges(gx) if e.letter == "a"]
    assert interior_a
    for e in interior_a:
        assert e.coeff == Fraction(31, 15)
        assert e.n_fault_locations == 5


def test_temporal_edge_weight_value():
    gx, _ = build_decoder_graphs(3, 3, 0.001)
    e = next(e for e in interior_edges(gx) if e.letter == "a")
    expected = -math.log(31 * 0.001 / 15)
    assert e.weight == pytest.approx(expected, abs=1e-12)
    assert round(expected, 3) == 6.182


def test_spatial_d_probability(graphs5):
    gx, gz = graphs5
    for g in (gx, gz):
        ds = [e for e in interior_edges(g) if e.letter == "d"]
        assert ds
        for e in ds:
            assert e.coeff == Fraction(42, 15)


def test_joint_temporal_d_rate(graphs5):
    gx, gz = graphs5
    for g, dual in ((gx, gz), (gz, gx)):
        for e in interior_edges(g):
            if e.letter != "a":
                continue
            joints = sorted(
                cond * e.coeff
                for deid, cond in g.corr_to_dual[e.index]
                if dual.edges[deid].letter == "d"
            )
            assert joints == [Fraction(3, 15), Fraction(3, 15)]


def test_all_interior_conditional_rows(graphs5):
    # the complete conditional table, exact rational arithmetic, both lattices
    gx, gz = graphs5
    total = 0
    for g, dual in ((gx, gz), (gz, gx)):
        per_letter = {}
        for e in interior_edges(g):
            per_letter.setdefault(e.letter, set()).add(typed_row(g, dual, e))
        assert set(per_letter) == set("abcdef")
        for letter, rows in per_letter.items():
            assert rows == {INTERIOR_CONDITIONAL_ROWS[letter]}, letter
        total += sum(len(INTERIOR_CONDITIONAL_ROWS[k]) for k in per_letter)
    assert total == 2 * N_INTERIOR_CONDITIONALS == 64


def test_named_conditional_anchors(graphs5):
    gx, gz = graphs5

    def row_by_dual_letter(edge):
        out = {}
        for deid, cond in gx.corr_to_dual[edge.index]:
            out.setdefault(gz.edges[deid].letter, []).append(cond)
        return out

    a = next(e for e in interior_edges(gx) if e.letter == "a")
    b = next(e for e in interior_edges(gx) if e.letter == "b")
    d = next(e for e in interior_edges(gx) if e.letter == "d")
    assert sorted(row_by_dual_letter(a)["d"]) == [Fraction(3, 31), Fraction(3, 31)]
    assert row_by_dual_letter(b)["d"] == [Fraction(1, 2)]
    assert row_by_dual_letter(d)["b"] == [Fraction(3, 14)]


def test_classification_covers_all_interior_edges(graphs3):
    for g in graphs3:
        for e in g.edges:
            if e.v == g.boundary_node:
                assert e.boundary
            else:
                assert e.letter in "abcdef"


@pytest.mark.parametrize("L", [3, 5, 7])
def test_boundary_flag_follows_the_rational_rates(L):
    # the flag is set from integer rate units; it must agree with the
    # exact rates: a boundary-node edge, or a lettered edge whose rate is
    # not its letter's interior rate
    for g in build_decoder_graphs(L, L, 0.001):
        for e in g.edges:
            cut = e.letter is not None and e.coeff != INTERIOR_COEFFS[e.letter]
            assert e.boundary == (e.v == g.boundary_node or cut)


def test_temporal_means_same_stabilizer(graphs3):
    gx, _ = graphs3
    for e in gx.edges:
        if e.letter == "a":
            s1, t1 = gx.node_pos(e.u)
            s2, t2 = gx.node_pos(e.v)
            assert s1 == s2 and abs(t1 - t2) == 1


def test_spatial_same_round_never_temporal(graphs3):
    gx, _ = graphs3
    for e in gx.edges:
        if e.v == gx.boundary_node:
            continue
        _, t1 = gx.node_pos(e.u)
        _, t2 = gx.node_pos(e.v)
        if t1 == t2:
            assert e.letter in ("b", "d")


def test_every_fault_signature_is_an_edge(circuit3, graphs3):
    gx, gz = graphs3
    table = enumerate_single_faults(circuit3, 3)
    for g, signatures in ((gx, table.x_events), (gz, table.z_events)):
        for sig in signatures:
            if not sig:
                continue
            nodes = sorted(g.node_id(s, t) for s, t in sig)
            key = (
                (nodes[0], nodes[1])
                if len(nodes) == 2
                else (nodes[0], g.boundary_node)
            )
            assert key in g.edge_lookup


def test_interior_probability_multisets_match(graphs5):
    gx, gz = graphs5
    mx = sorted(e.coeff for e in interior_edges(gx))
    mz = sorted(e.coeff for e in interior_edges(gz))
    assert set(mx) == set(mz)
    assert {e.letter for e in interior_edges(gx)} == set("abcdef")


def test_conditionals_exceed_standalone(graphs5):
    gx, gz = graphs5
    p = 0.001
    for g, dual in ((gx, gz), (gz, gx)):
        for e in g.edges:
            for deid, cond in g.corr_to_dual[e.index]:
                assert float(cond) > float(dual.edges[deid].coeff) * p


def test_weights_are_neg_log_probability(graphs3):
    gx, _ = graphs3
    for e in gx.edges:
        assert e.weight == pytest.approx(-math.log(float(e.coeff) * 0.01))


def test_rate_validation(layout3, circuit3):
    table = enumerate_single_faults(circuit3, 1)
    with pytest.raises(DegenerateWeightError):
        build_graph(layout3, NoiseParams(0.0), 2, "X", table)
    with pytest.raises(InvalidRateError):
        # max coefficient 42/15 puts p_max at 15/42
        build_graph(layout3, NoiseParams(0.4), 2, "X", table)


@pytest.mark.parametrize("kind", ["X", "Z"])
@pytest.mark.parametrize("p", [0.36, 0.45, 0.5, 0.9])
def test_rate_error_names_the_largest_edge_rate(layout3, circuit3, kind, p):
    # the largest coefficient on both d=3 lattices is 42/15, so p_max is
    # 15/42 whatever edge first reaches probability 1; p = 0.5 and 0.9 used
    # to report 0.4839 and 0.5556, bounds that 0.36 and 0.45 break too
    table = enumerate_single_faults(circuit3, 1)
    with pytest.raises(InvalidRateError, match=r"p_max = 0\.3571 "):
        build_graph(layout3, NoiseParams(p), 3, kind, table)
    g = build_graph(layout3, NoiseParams(0.35), 3, kind, table)
    assert max(e.coeff for e in g.edges) == Fraction(42, 15)


def test_pooling_takes_one_round(layout3, circuit3):
    with pytest.raises(ValueError, match="round-1 faults, got round 2"):
        build_graph(
            layout3, NoiseParams(0.001), 2, "X", enumerate_single_faults(circuit3, 2)
        )


def test_correlations_need_one_window_of_both_kinds(layout3, circuit3):
    table = enumerate_single_faults(circuit3, 1)
    params = NoiseParams(0.001)
    gx, gz = (build_graph(layout3, params, 3, kind, table) for kind in "XZ")
    with pytest.raises(ValueError, match="one X and one Z lattice"):
        derive_correlations(gx, gx, table)
    # a window of 2 rounds places each class twice, against 3 times in gx
    gz_short = build_graph(layout3, params, 2, "Z", table)
    with pytest.raises(ValueError, match="two lattices assembled for one window"):
        derive_correlations(gx, gz_short, table)
    # the faults of a window without idle noise are not the graphs' faults
    other = enumerate_single_faults(circuit3, 1, include_idle=False)
    with pytest.raises(ValueError, match="two lattices assembled for one window"):
        derive_correlations(gx, gz, other)
    assert gx.corr_to_dual is None and gz.corr_to_dual is None


def test_each_distinct_conditional_is_one_shared_object(graphs5, cc_pair5):
    for g in (*graphs5, *cc_pair5):
        conds = [cond for row in g.corr_to_dual for _, cond in row]
        assert len({id(cond) for cond in conds}) == len(set(conds))


def test_geometry_letter_table_is_total():
    assert set(GEOMETRY_LETTERS.values()) == set("abcdef")
    assert set(INTERIOR_COEFFS) == set("abcdef")


def _cnot_faults(x_events, x_residuals):
    """Synthetic round-1 faults on CNOTs 0, 1, ... (payload 0), seen only
    on the X lattice."""
    n = len(x_events)
    zeros = np.zeros(n, dtype=np.int64)
    return FaultTable(
        zeros + 1, zeros, np.arange(n), zeros, x_events, [()] * n, x_residuals, [0] * n
    )


def test_signature_of_no_geometry_class_is_rejected(layout3):
    # X-lattice stabilizers 0 and 5 sit at (0, 1) and (4, 3): geometry
    # (0, 4, 2) in one round is none of a-f
    table = _cnot_faults([((0, 1), (5, 1))], [0])
    with pytest.raises(EdgeClassificationError, match=r"\(0, 4, 2\)"):
        build_graph(layout3, NoiseParams(0.001), 2, "X", table)


def test_edge_with_conflicting_logical_action_is_rejected(layout3):
    # two faults on one boundary edge, one of them flipping the logical
    logical = layout3.logical_z.z_mask
    table = _cnot_faults([((0, 1),), ((0, 1),)], [0, logical & -logical])
    with pytest.raises(GraphBuildError, match="conflicting logical action"):
        build_graph(layout3, NoiseParams(0.001), 2, "X", table)


def test_graph_set_up_builds_no_fault_event(monkeypatch):
    # one round's single faults stay one column table from propagation to
    # graph; no set-up path makes an object per fault
    built = []
    init = FaultEvent.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FaultEvent, "__init__", counting)
    FaultEvent(1, "idle", 0, 0)
    assert len(built) == 1  # the count sees a construction
    build_decoder_graphs(5, 5, 0.001)
    build_code_capacity_pair(5)
    assert len(built) == 1


def test_code_capacity_graphs(cc_pair3):
    gx, gz = cc_pair3
    # one edge per data qubit, unit weights, same-qubit conditional 1/2
    assert len(gx.edges) == 13 and len(gz.edges) == 13
    for g, dual in ((gx, gz), (gz, gx)):
        for e in g.edges:
            assert e.weight == 1.0
            corr = g.corr_to_dual[e.index]
            assert len(corr) == 1
            deid, cond = corr[0]
            assert cond == Fraction(1, 2)
            assert dual.edges[deid].correction == e.correction


#: sha256 of ``json.dumps(graph_to_dict(g), sort_keys=True)`` for lattices
#: that no dump-graph pin covers, recorded before the signature classes were
#: grouped inside each lattice's assembly
GRAPH_DICT_SHA256 = {
    ("code_capacity", 3, "X"):
        "3adb22bf4ee111997366ba3ca6ccc16e081af6cce2b496ab31d254cfa88498c0",
    ("code_capacity", 3, "Z"):
        "91074f83b276586b1e3f1d7bfdc5b739cd7f6e2f026c3f8aa5889d3cdb399cf6",
    ("code_capacity", 5, "X"):
        "e555c2b341a2ad5e0ec66b95966e54fda3ea22f96ee8bce0e91e28a7e6e256f6",
    ("code_capacity", 5, "Z"):
        "4334bec70b5dbc4d68a9b472a70ed21ffb541e2e95d8194c106c1d93069ae165",
    ("circuit_no_idle", 5, "X"):
        "316a39a088fb8793877c9b20d6e2dc817790bd4f84cedc819da829f26f767aca",
    ("circuit_no_idle", 5, "Z"):
        "fb20ec456a12ccc999207869f2247358c3d407007bf5a89b98881a1151a23164",
}


def _graph_dict_digest(graph):
    blob = json.dumps(graph_to_dict(graph), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("L", [3, 5])
def test_code_capacity_lattices_are_pinned(L, cc_pair3, cc_pair5):
    for g in cc_pair3 if L == 3 else cc_pair5:
        assert _graph_dict_digest(g) == GRAPH_DICT_SHA256[("code_capacity", L, g.kind)]
        # reweighting a correlated code-capacity edge sets it to 0
        assert all(cond.weight == 0.0 for row in g.corr_to_dual for _, cond in row)


def test_circuit_lattices_without_idle_noise_are_pinned():
    for g in build_decoder_graphs(5, 5, 0.001, include_idle=False):
        assert _graph_dict_digest(g) == GRAPH_DICT_SHA256[("circuit_no_idle", 5, g.kind)]


def test_graph_dump_round_trips(tmp_path, graphs3):
    gx, _ = graphs3
    d = graph_to_dict(gx)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(d))
    loaded = json.loads(path.read_text())
    assert loaded["n_stabilizers"] == gx.n_stabs
    assert len(loaded["edges"]) == len(gx.edges)
    a_edges = [e for e in loaded["edges"] if e["type"] == "a"]
    assert a_edges and all(
        e["probability_coefficient"] == "31/15" for e in a_edges if not e["boundary"]
    )


# -- reference: Fraction pooling over every fault of the full window ----------


def _reference_graph(layout, table, kind, T, p):
    n_layers = T + 1
    coords = layout.z_anc_coords if kind == "X" else layout.x_anc_coords
    n_stabs = len(coords)
    boundary = n_stabs * n_layers
    logical = layout.logical_z if kind == "X" else layout.logical_x

    def pauli(mask):
        return PauliOperator(layout.n_data, *((mask, 0) if kind == "X" else (0, mask)))

    pooled = {}
    if kind == "X":
        signatures, residuals = table.x_events, table.x_residual
    else:
        signatures, residuals = table.z_events, table.z_residual
    rows = zip(table.faults(), table.units.tolist(), signatures, residuals)
    for fault, units, sig, residual in rows:
        if not sig:
            continue
        assert len(sig) <= 2
        nodes = sorted((t - 1) * n_stabs + s for s, t in sig)
        key = (nodes[0], nodes[1]) if len(nodes) == 2 else (nodes[0], boundary)
        coeff = Fraction(units, 15)
        entry = pooled.setdefault(
            key,
            {
                "coeff": Fraction(0),
                "residual": residual,
                "rep": coeff,
                "locs": set(),
            },
        )
        assert commutation_parity(pauli(residual), logical) == commutation_parity(
            pauli(entry["residual"]), logical
        )
        if coeff > entry["rep"]:
            entry["residual"], entry["rep"] = residual, coeff
        entry["coeff"] += coeff
        entry["locs"].add((fault.round, fault.kind, fault.index))
    edges = []
    for eid, key in enumerate(sorted(pooled)):
        entry = pooled[key]
        letter, is_boundary = None, True
        if key[1] != boundary:
            # this edge's geometry: later endpoint minus earlier, by position
            # for equal rounds
            (t1, (r1, c1)), (t2, (r2, c2)) = sorted(
                (node // n_stabs + 1, coords[node % n_stabs]) for node in key
            )
            letter = GEOMETRY_LETTERS[(t2 - t1, r2 - r1, c2 - c1)]
            is_boundary = entry["coeff"] != INTERIOR_COEFFS[letter]
        edges.append(
            Edge(
                index=eid,
                u=key[0],
                v=key[1],
                coeff=entry["coeff"],
                weight=-math.log(float(entry["coeff"]) * p),
                correction=entry["residual"],
                letter=letter,
                boundary=is_boundary,
                n_fault_locations=len(entry["locs"]),
            )
        )
    return DecodingGraph(
        kind=kind, L=layout.L, T=T, p=p, mode="circuit", n_layers=n_layers,
        stab_coords=coords, edges=edges,
    )


def _reference_correlations(primal, dual, table):
    def edge_of(graph, sig):
        if not sig:
            return None
        nodes = sorted(graph.node_id(s, t) for s, t in sig)
        if len(nodes) == 1:
            nodes.append(graph.boundary_node)
        key = (nodes[0], nodes[1])
        return graph.edge_lookup[key]

    joint = {}
    for units, x_events, z_events in zip(
        table.units.tolist(), table.x_events, table.z_events
    ):
        pe = edge_of(primal, x_events if primal.kind == "X" else z_events)
        de = edge_of(dual, x_events if dual.kind == "X" else z_events)
        if pe is not None and de is not None:
            joint[(pe, de)] = joint.get((pe, de), Fraction(0)) + Fraction(units, 15)
    rows = [[] for _ in primal.edges]
    for (pe, de), j in sorted(joint.items()):
        rows[pe].append((de, j / primal.edges[pe].coeff))
    primal.corr_to_dual = [tuple(row) for row in rows]


@pytest.mark.parametrize(
    "L, include_idle", [(3, False), (3, True), (5, False), (5, True), (7, True)]
)
def test_one_round_build_equals_full_window_reference(L, include_idle):
    T, p = L, 0.001
    layout = build_layout(L)
    circuit = build_se_circuit(layout)
    table = enumerate_single_faults(circuit, T, include_idle)
    ref_x = _reference_graph(layout, table, "X", T, p)
    ref_z = _reference_graph(layout, table, "Z", T, p)
    _reference_correlations(ref_x, ref_z, table)
    _reference_correlations(ref_z, ref_x, table)
    gx, gz = build_decoder_graphs(L, T, p, include_idle)
    assert graph_to_dict(gx) == graph_to_dict(ref_x)
    assert graph_to_dict(gz) == graph_to_dict(ref_z)
    n_round_1 = int((table.round == 1).sum())
    for g in (gx, gz):
        # each conditional discounts its edge to -ln(conditional)
        for row in g.corr_to_dual:
            for _, cond in row:
                assert cond.weight == -math.log(float(cond))
        # the single-fault table holds each round-1 fault's own events
        # and residual on this lattice (round 1 comes first)
        if g.kind == "X":
            events, residuals = table.x_events, table.x_residual
        else:
            events, residuals = table.z_events, table.z_residual
        assert len(g.fault_nodes) == len(g.fault_residuals) == n_round_1
        for sig, nodes in zip(events, g.fault_nodes):
            assert nodes == tuple(sorted(g.node_id(s, t) for s, t in sig))
        assert g.fault_residuals == residuals[:n_round_1]


def test_deep_window_interior_classes():
    # the six interior classes, their anchors and all 32 conditionals hold
    # across a long window, not only at T=3
    gx, gz = build_decoder_graphs(9, 9, 0.001)
    report = VerifyReport()
    check_edge_anchors(report, gx, gz, 0.001)
    check_conditional_rows(report, gx, gz)
    assert report.ok, [c for c in report.checks if not c.passed]
    assert report.matched_conditionals == N_INTERIOR_CONDITIONALS == 32


def _loop_csr(graph):
    """The per-slot loop that once mapped edges to CSR slots (reference)."""
    import scipy.sparse as sp

    n = graph.n_nodes
    rows, cols, data = [], [], []
    for e in graph.edges:
        rows.extend((e.u, e.v))
        cols.extend((e.v, e.u))
        data.extend((e.weight, e.weight))
    coo = sp.coo_matrix(
        (np.array(data), (np.array(rows), np.array(cols))), shape=(n, n)
    )
    csr = coo.tocsr()
    slot = {}
    for r in range(n):
        for k in range(csr.indptr[r], csr.indptr[r + 1]):
            slot[(r, csr.indices[k])] = k
    edge_pos = np.empty((len(graph.edges), 2), dtype=np.intp)
    for i, e in enumerate(graph.edges):
        edge_pos[i, 0] = slot[(e.u, e.v)]
        edge_pos[i, 1] = slot[(e.v, e.u)]
    return csr, edge_pos


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_decoder_graphs(3, 3, 0.001),
        lambda: build_decoder_graphs(5, 5, 0.001),
        lambda: build_code_capacity_pair(5),
    ],
    ids=["d3-closed", "d5-closed", "code-capacity"],
)
def test_csr_matches_slot_loop(build):
    for graph in build():
        csr, edge_pos = _loop_csr(graph)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(graph._csr, name), getattr(csr, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name
        assert np.array_equal(graph._edge_data_pos, edge_pos)


def test_setup_computes_no_shortest_paths():
    for graph in (*build_decoder_graphs(3, 3, 0.001), *build_code_capacity_pair(3)):
        assert graph._memo_slot is None and graph._memo_rows == 0
        assert graph._work is None


@pytest.mark.parametrize("L, T", [(3, 3), (3, 2), (5, 5), (5, 2)])
def test_edge_correction_has_the_syndrome_of_its_endpoints(L, T):
    # so any perfect matching leaves a residual with no syndrome, which is
    # what lets a lifetime window start from the last window's residual
    layout = build_layout(L)
    for g in build_decoder_graphs(L, T, 0.005):
        stabs = layout.z_stabilizers if g.kind == "X" else layout.x_stabilizers
        for e in g.edges:
            syndrome = [sum((e.correction >> q) & 1 for q in s) % 2 for s in stabs]
            expected = [0] * len(stabs)
            for node in (e.u, e.v):
                if node != g.boundary_node:
                    expected[g.node_pos(node)[0]] ^= 1
            assert syndrome == expected, (g.kind, e)


@lru_cache(maxsize=None)
def _table_graphs(L, T, include_idle):
    layout = build_layout(L)
    circuit = build_se_circuit(layout)
    return (layout, circuit, *build_decoder_graphs(L, T, 0.001, include_idle))


@settings(max_examples=150, deadline=None)
@given(
    L=st.sampled_from([3, 5, 7]),
    rounds=st.sampled_from(["1", "2", "d"]),
    include_idle=st.booleans(),
    p=st.sampled_from([0.0, 0.002, 0.01, 0.04]),
    seed=st.integers(0, 2**32 - 1),
    last_round=st.lists(st.floats(0, 1, exclude_max=True), max_size=4),
)
def test_window_events_equal_simulation(L, rounds, include_idle, p, seed, last_round):
    # a window's events and residual read from the single-fault table equal
    # frame simulation's, order included; faults of round T put their later
    # events on the perfect layer T + 1, and p = 0 gives an empty window
    T = L if rounds == "d" else int(rounds)
    layout, circuit, gx, gz = _table_graphs(L, T, include_idle)
    faults = sample_faults(
        circuit, NoiseParams(p), T, np.random.default_rng(seed), include_idle
    )
    n = len(gx.fault_nodes)  # one round's faults, idles only with idle noise
    faults += [(int(u * n), T) for u in last_round]
    hist = simulate(layout, circuit, faults, T, True)
    assert gx.window_events(faults) == (
        events_to_nodes(gx, hist.x_lattice_events), hist.residual.x_mask
    )
    assert gz.window_events(faults) == (
        events_to_nodes(gz, hist.z_lattice_events), hist.residual.z_mask
    )


@pytest.mark.parametrize("include_idle", [True, False])
@pytest.mark.parametrize("L", [3, 5, 9])
def test_window_from_an_initial_error_is_the_table_window_plus_the_error(L, include_idle):
    # frames are linear: simulating a window from a data error gives the
    # table's events with the error's ideal syndrome added to round 1, and
    # the table's residual times the error.  The frames span grids of 25,
    # 81 and 289 bits, so the larger two need several machine words
    T = 3
    layout, circuit, gx, gz = _table_graphs(L, T, include_idle)
    n, n_x = layout.n_data, len(layout.x_stabilizers)
    x_stabs, z_stabs = layout.stabilizer_masks
    rng = np.random.default_rng([L, include_idle])
    with_syndrome = 0
    for trial in range(30):
        if trial % 2:  # no syndrome: stabilizers, and the logicals at times
            x = layout.logical_x.x_mask if trial % 3 else 0
            z = layout.logical_z.z_mask if trial % 5 else 0
            for m in x_stabs:
                x ^= m if rng.random() < 0.5 else 0
            for m in z_stabs:
                z ^= m if rng.random() < 0.5 else 0
        else:
            x, z = (int.from_bytes(rng.bytes(n // 8 + 1), "little") % (1 << n) for _ in "xz")
        error = PauliOperator(n, x, z)
        syndrome = ideal_syndrome(layout, error)
        if trial % 2:
            assert not any(syndrome)
        else:
            with_syndrome += any(syndrome)
        faults = sample_faults(circuit, NoiseParams(0.02), T, rng, include_idle)
        hist = simulate(layout, circuit, faults, T, True, initial_error=error)
        for graph, events, mask, bits, error_mask in (
            (gx, hist.x_lattice_events, hist.residual.x_mask, syndrome[n_x:], x),
            (gz, hist.z_lattice_events, hist.residual.z_mask, syndrome[:n_x], z),
        ):
            nodes, table_mask = graph.window_events(faults)
            round_one = {graph.node_id(s, 1) for s, bit in enumerate(bits) if bit}
            assert events_to_nodes(graph, events) == sorted(set(nodes) ^ round_one)
            assert mask == table_mask ^ error_mask
    assert with_syndrome == 15


def test_work_adjacency_is_the_base_with_the_overlay_written_in(graphs5):
    rng = np.random.default_rng(3)
    for graph in graphs5:
        ids = rng.choice(len(graph.edges), 40, replace=False).tolist()
        overlay = {eid: float(rng.random()) for eid in ids}
        expected = graph.csr_with_weights().copy()
        assert expected.data.tobytes() == graph._csr.data.tobytes()
        for eid, w in overlay.items():
            e = graph.edges[eid]
            expected[e.u, e.v] = expected[e.v, e.u] = w
        work = graph.csr_with_weights(overlay)
        for name in ("indptr", "indices", "data"):
            assert getattr(work, name).tobytes() == getattr(expected, name).tobytes()
        # the next call starts again from the base weights
        assert graph.csr_with_weights({}).data.tobytes() == graph._csr.data.tobytes()


def test_window_events_reject_faults_outside_the_table():
    layout, circuit, gx, _ = _table_graphs(3, 2, False)
    ((idle, _),) = fault_rows(circuit, [FaultEvent(1, "idle", 0, 0)])
    assert gx.window_events([]) == ([], 0)
    with pytest.raises(InvalidFaultError, match="row"):
        gx.window_events([(idle, 1)])  # idle noise is off
    with pytest.raises(InvalidFaultError, match="row"):
        gx.window_events([(-1, 1)])
    for t in (0, 3):
        with pytest.raises(InvalidFaultError, match="round"):
            gx.window_events([(0, t)])


def test_single_fault_table_only_on_circuit_graphs(graphs3, cc_pair3):
    layout = build_layout(3)
    n_faults = len(enumerate_single_faults(build_se_circuit(layout), 1))
    for g in graphs3:
        assert len(g.fault_nodes) == len(g.fault_residuals) == n_faults
        assert "fault_nodes" not in graph_to_dict(g)
        assert "fault_residuals" not in graph_to_dict(g)
    for g in cc_pair3:
        assert g.fault_nodes is None and g.fault_residuals is None
        with pytest.raises(ValueError, match="no single-fault table"):
            g.window_events([])


def test_decoding_graphs_need_distance_3():
    # at distance 2 faults with one signature act differently on the logical
    # qubit; this was a GraphBuildError, an internal error to the CLI
    for build in (
        lambda: build_decoder_graphs(2, 2, 0.001),
        lambda: build_decoder_graphs(2, 1, 0.001, include_idle=False),
        lambda: build_code_capacity_pair(2),
    ):
        with pytest.raises(ValueError, match="distance >= 3, got 2"):
            build()
    assert build_layout(2).L == 2


def test_node_counts_are_fields_outside_repr(graphs3, cc_pair3):
    for g in (*graphs3, *cc_pair3):
        assert g.boundary_node == g.n_stabs * g.n_layers
        assert g.n_nodes == g.boundary_node + 1
        assert "boundary_node" not in repr(g) and "n_nodes" not in repr(g)


#: the set-up calls that run with the cyclic garbage collector paused
PAUSED_SETUP = {
    "enumerate_single_faults": lambda circuit: enumerate_single_faults(circuit, 3),
    "build_decoder_graphs": lambda _: build_decoder_graphs(3, 3, 0.01),
    "build_code_capacity_pair": lambda _: build_code_capacity_pair(3),
}


@pytest.fixture
def collector_restored():
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*thresholds)
    (gc.enable if enabled else gc.disable)()


def _collections() -> list[int]:
    return [generation["collections"] for generation in gc.get_stats()]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name", sorted(PAUSED_SETUP))
def test_setup_pauses_the_collector_only_inside_the_call(
    name, enabled, circuit3, collector_restored
):
    # at these thresholds a running collector makes an older-generation pass
    # every 300 allocations; gc.collect() starts every generation's count at
    # 0, so the one young pass that the first allocation after the call owes
    # cannot reach an older generation
    gc.set_threshold(100, 2, 2)
    (gc.enable if enabled else gc.disable)()
    gc.collect()
    before = _collections()
    PAUSED_SETUP[name](circuit3)
    assert _collections()[1:] == before[1:]
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_a_failed_build_restores_the_collector(enabled, collector_restored):
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(InvalidRateError):
        build_decoder_graphs(5, 5, 0.4)
    assert gc.isenabled() == enabled


def test_setup_leaves_no_cyclic_garbage(circuit3, collector_restored):
    # what keeps memory flat while set-up runs with the collector paused
    gc.collect()
    gc.disable()
    build_decoder_graphs(3, 3, 0.01)
    build_decoder_graphs(5, 5, 0.001)
    build_code_capacity_pair(5)
    enumerate_single_faults(circuit3, 3)
    assert gc.collect() == 0
