import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fault_rows
from surfdec import matcher
from surfdec.blossom import max_weight_matching, min_weight_perfect_matching
from surfdec.graph import DecodingGraph, Edge
from surfdec.matcher import (
    ENUMERATION_MAX_VERTICES,
    INLINE_MAX_VERTICES,
    SUBSET_MAX_VERTICES,
    UNIQUE_MARGIN,
    WEIGHT_DECIMALS,
    TooManyEventsError,
    UnreachableNodeError,
    brute_force_matching,
    events_to_nodes,
    lightest_unique_pairing,
    matching_to_correction,
    mwpm,
    shortest_paths,
)
from surfdec.noise import NoiseParams, sample_faults, simulate
from surfdec.pauli import PauliOperator, commutation_parity, multiply
from surfdec.code import ideal_syndrome


# ---------------------------------------------------------------------------
# blossom core

def _brute_max(edges, n):
    """(cardinality, weight) of a maximum-cardinality maximum-weight matching."""
    adj = {}
    for i, j, w in edges:
        adj[(i, j)] = adj[(j, i)] = w

    def rec(verts):
        if not verts:
            return (0, 0.0)
        v, rest = verts[0], verts[1:]
        best = rec(rest)
        for k, u in enumerate(rest):
            if (v, u) in adj:
                c, w = rec(rest[:k] + rest[k + 1 :])
                best = max(best, (c + 1, w + adj[(v, u)]))
        return best

    return rec(tuple(range(n)))


def test_blossom_against_brute_force():
    rng = np.random.default_rng(20_24)
    for _ in range(250):
        n = int(rng.integers(2, 9))
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        m = int(rng.integers(1, len(pairs) + 1))
        edges = [(i, j, int(rng.integers(-20, 61))) for i, j in pairs[:m]]
        mate = max_weight_matching(edges)
        tot = cnt = 0
        for i, j, w in edges:
            if i < len(mate) and mate[i] == j:
                tot += w
                cnt += 1
        assert (cnt, tot) == _brute_max(edges, n)


def test_min_weight_perfect_matching_floats():
    rng = np.random.default_rng(7)
    for _ in range(150):
        n = int(rng.choice([2, 4, 6, 8]))
        edges = [
            (i, j, round(float(rng.uniform(0.1, 10.0)), 6))
            for i, j in itertools.combinations(range(n), 2)
        ]
        pairs = min_weight_perfect_matching(n, edges)
        assert len(pairs) == n // 2
        wt = {frozenset(e[:2]): e[2] for e in edges}
        total = sum(wt[frozenset(p)] for p in pairs)

        def pairings(items):
            if not items:
                yield []
                return
            a = items[0]
            for k in range(1, len(items)):
                rest = items[1:k] + items[k + 1 :]
                for pr in pairings(rest):
                    yield [(a, items[k])] + pr

        best = min(
            sum(wt[frozenset(p)] for p in pr) for pr in pairings(list(range(n)))
        )
        assert total == pytest.approx(best, abs=1e-9)


def test_perfect_matching_odd_rejected():
    with pytest.raises(ValueError):
        min_weight_perfect_matching(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


@pytest.mark.parametrize(
    "n, edges",
    [
        (2, []),
        (4, [(0, 1, 1.0)]),  # vertices 2 and 3 lie past every edge
        (4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]),
    ],
)
def test_perfect_matching_absent_raises(n, edges):
    with pytest.raises(RuntimeError, match="no perfect matching"):
        min_weight_perfect_matching(n, edges)


@pytest.mark.parametrize(
    "n, edges",
    [
        (4, [(0, 1, 1.0), (2, 3, 0.5), (1, 5, 0.1), (0, 4, 0.1)]),
        (2, [(0, 1, 1.0), (2, 3, 0.5)]),
        (2, [(-1, 1, 1.0), (0, 1, 1.0)]),
        (0, [(0, 1, 1.0)]),
    ],
)
def test_perfect_matching_rejects_endpoints_outside_the_vertices(n, edges):
    with pytest.raises(ValueError, match="outside"):
        min_weight_perfect_matching(n, edges)


# ---------------------------------------------------------------------------
# enumeration of small dense problems, against blossom


def _all_pairings(items):
    """Every perfect matching of ``items``, independent of the library's table."""
    if not items:
        yield []
        return
    a, rest = items[0], items[1:]
    for i, b in enumerate(rest):
        for tail in _all_pairings(rest[:i] + rest[i + 1 :]):
            yield [(a, b)] + tail


@pytest.mark.parametrize("n", range(0, ENUMERATION_MAX_VERTICES + 1, 2))
def test_pairing_tables_list_every_perfect_matching_once(n):
    flat, rows = matcher._pairing_table(n)
    assert len(rows) == math.prod(range(n - 1, 0, -2))  # (n-1)!!
    assert len(rows) == len(set(rows)) == flat.shape[1]
    for row, idx in zip(rows, flat.T):
        assert sorted(v for pair in row for v in pair) == list(range(n))
        assert all(a < b for a, b in row)
        assert [a for a, _ in row] == sorted(a for a, _ in row)
        assert list(idx) == [a * n + b for a, b in row]
    assert not flat.flags.writeable
    assert sorted(map(tuple, rows)) == sorted(
        tuple(p) for p in _all_pairings(list(range(n)))
    )


def test_enumeration_declines_problems_above_the_cutoff():
    rng = np.random.default_rng(6)
    n = SUBSET_MAX_VERTICES + 2
    weights = rng.random((n, n))
    # the minimum is unique, so only the cutoff declines it
    assert _blossom_gap(weights)[2] > 1e-6
    assert lightest_unique_pairing(weights) is None
    assert lightest_unique_pairing(weights[:-2, :-2].copy()) is not None
    # the list form stops at INLINE_MAX_VERTICES, and its length must be
    # n(n-1)/2 for an even n
    for size in (0, 3, (INLINE_MAX_VERTICES + 2) * (INLINE_MAX_VERTICES + 1) // 2):
        with pytest.raises(ValueError):
            lightest_unique_pairing([1.0] * size)


_INT_WEIGHTS = st.integers(0, 6).map(float)
_FLOAT_WEIGHTS = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)


def _draw_weights(data, k, integral):
    """A dense problem shaped as mwpm builds it: k event rows, plus a
    boundary column when k is odd; small integers make exact ties common."""
    nverts = k + (k % 2)
    values = data.draw(
        st.lists(
            _INT_WEIGHTS if integral else _FLOAT_WEIGHTS,
            min_size=k * nverts,
            max_size=k * nverts,
        )
    )
    return np.array(values).reshape(k, nverts)


def _assert_unique_rule(pairs, gap, integral):
    """None exactly when the runner-up pairing is within UNIQUE_MARGIN.

    The references sum exactly or nearly so; numpy's sums of up to nine
    weights <= 100 may differ from them by a few ulp, so only a float gap
    this close to the margin could be judged either way.
    """
    slack = 1e-12
    if integral:
        assert (pairs is None) == (gap == 0)
    elif pairs is None:
        assert gap <= UNIQUE_MARGIN + slack
    else:
        assert gap > UNIQUE_MARGIN - slack


def _blossom_gap(weights):
    """(pairs, total, gap to the runner-up) of a dense problem by blossom.

    Any other pairing lacks one of the lightest pairing's pairs, so the
    runner-up is the lightest of the pairings that each lack one of them.
    """
    n = weights.shape[1]
    cost = {(a, b): float(weights[a, b]) for a in range(n) for b in range(a + 1, n)}

    def solve(drop):
        edges = [
            (a, b, round(w, WEIGHT_DECIMALS))
            for (a, b), w in cost.items()
            if (a, b) != drop
        ]
        pairs = min_weight_perfect_matching(n, edges)
        return pairs, math.fsum(cost[pair] for pair in pairs)

    pairs, total = solve(None)
    runner_up = min(solve(pair)[1] for pair in pairs)
    return pairs, total, runner_up - total


def _list_form(weights):
    """The list form of a dense problem: its upper triangle, row by row."""
    n = weights.shape[1]
    return [weights.item(a, b) for a in range(n) for b in range(a + 1, n)]


# a third of the examples are spoiled, so 600 keep ~400 finite ones
@settings(max_examples=600, deadline=None)
@given(
    data=st.data(),
    k=st.integers(1, ENUMERATION_MAX_VERTICES),
    integral=st.booleans(),
    spoiler=st.sampled_from([None, math.nan, math.inf]),
)
def test_enumeration_agrees_with_blossom_on_dense_instances(data, k, integral, spoiler):
    weights = _draw_weights(data, k, integral)
    nverts = weights.shape[1]
    inline = nverts <= INLINE_MAX_VERTICES
    if spoiler is not None:
        # a NaN weight makes some totals NaN; an infinite weight on every
        # pair of one vertex makes every total infinite: both are declined
        if math.isnan(spoiler):
            a = data.draw(st.integers(0, nverts - 2))
            weights[a, data.draw(st.integers(a + 1, nverts - 1))] = math.nan
        else:
            v = data.draw(st.integers(0, nverts - 1))
            weights[:v, v] = math.inf
            weights[v : v + 1, v + 1 :] = math.inf
        with np.errstate(invalid="ignore"):  # inf - inf in the numpy table
            assert lightest_unique_pairing(weights) is None
        if inline:
            assert lightest_unique_pairing(_list_form(weights)) is None
        return
    pairs = lightest_unique_pairing(weights)
    flat, rows = matcher._pairing_table(nverts)
    table = np.take(weights, flat).sum(axis=0)
    if inline:
        # the list form returns the table's answer, and mwpm's total, added
        # left to right in pair order, is the table's total
        assert lightest_unique_pairing(_list_form(weights)) == pairs
        if pairs is not None:
            total = 0.0
            for a, b in pairs:
                total += weights.item(a, b)
            assert total == table[rows.index(tuple(pairs))]

    totals = sorted(
        math.fsum(weights[a, b] for a, b in pr)
        for pr in _all_pairings(list(range(nverts)))
    )
    gap = totals[1] - totals[0] if len(totals) > 1 else math.inf
    _assert_unique_rule(pairs, gap, integral)
    if pairs is None:
        return
    edges = [
        (a, b, round(float(weights[a, b]), WEIGHT_DECIMALS))
        for a in range(nverts)
        for b in range(a + 1, nverts)
    ]
    assert pairs == min_weight_perfect_matching(nverts, edges)
    assert math.fsum(weights[a, b] for a, b in pairs) == totals[0]


def _fibonacci(i):
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


@pytest.mark.parametrize(
    "n", range(ENUMERATION_MAX_VERTICES + 2, SUBSET_MAX_VERTICES + 1, 2)
)
def test_subset_plans_list_the_reachable_sets_by_level(n):
    plan = matcher._subset_plan(n)
    # with the empty set, the lowest-first sets number F(n + 1): 233 at 12
    assert 1 + sum(pair.shape[1] for pair, _rest in plan) == _fibonacci(n + 1)
    below = [frozenset()]
    for size, (pair, rest) in zip(range(2, n + 1, 2), plan):
        assert pair.shape == rest.shape == (size - 1, pair.shape[1])
        assert not pair.flags.writeable and not rest.flags.writeable
        # every set of the level below is some set's rest
        assert sorted(set(rest.ravel().tolist())) == list(range(len(below)))
        sets = []
        for codes, rests in zip(pair.T.tolist(), rest.T.tolist()):
            low = {c // n for c in codes}
            partners = [c % n for c in codes]
            assert len(low) == 1 and min(low) < partners[0]
            assert partners == sorted(set(partners))
            members = low | set(partners)
            for j, r in zip(partners, rests):
                assert below[r] == members - low - {j}
            sets.append(frozenset(members))
        assert len(set(sets)) == len(sets)
        below = sets
    assert below == [frozenset(range(n))]


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    k=st.integers(ENUMERATION_MAX_VERTICES + 1, 14),
    integral=st.booleans(),
)
def test_subset_program_agrees_with_enumeration(data, k, integral):
    weights = _draw_weights(data, k, integral)
    flat, rows = matcher._pairing_table(weights.shape[1])
    totals = np.take(weights, flat).sum(axis=0)
    order = np.argsort(totals, kind="stable")
    pairs = lightest_unique_pairing(weights)
    _assert_unique_rule(pairs, totals[order[1]] - totals[order[0]], integral)
    if pairs is not None:
        assert pairs == list(rows[order[0]])


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    k=st.integers(15, SUBSET_MAX_VERTICES),
    integral=st.booleans(),
)
def test_subset_program_agrees_with_blossom(data, k, integral):
    weights = _draw_weights(data, k, integral)
    want, total, gap = _blossom_gap(weights)
    pairs = lightest_unique_pairing(weights)
    _assert_unique_rule(pairs, gap, integral)
    if pairs is not None:
        assert pairs == want
        assert math.fsum(weights[a, b] for a, b in pairs) == total


def _recorded_matchings(config, windows, seed):
    """(graph, events, overlay) of every mwpm call in ``windows`` decoded windows."""
    from surfdec import experiments, irmwpm

    ctx = experiments._build_context(config)
    calls = []
    real = irmwpm.mwpm

    def recording(graph, events, overlay=None, prune_neighbors=None):
        calls.append((graph, list(events), dict(overlay or {})))
        return real(graph, events, overlay, prune_neighbors)

    irmwpm.mwpm = recording
    try:
        for i in range(windows):
            experiments._run_window(ctx, np.random.default_rng([seed, i]))
    finally:
        irmwpm.mwpm = real
    return calls


def _reference_blossom_edges(weights, prune_neighbors=None):
    """Blossom's edge list by the plain double loop and keep-set of old."""
    k = len(weights)
    keep = None
    if prune_neighbors is not None:
        keep = set()
        order = np.argsort(weights[:, :k], axis=1, kind="stable")
        for a in range(k):
            kept = 0
            for b in order[a]:
                b = int(b)
                if b == a:
                    continue
                keep.add((a, b) if a < b else (b, a))
                kept += 1
                if kept >= prune_neighbors:
                    break
    out = []
    for a in range(k):
        for b in range(a + 1, k):
            if keep is None or (a, b) in keep:
                out.append((a, b, round(float(weights[a, b]), WEIGHT_DECIMALS)))
    if weights.shape[1] > k:
        for a in range(k):
            out.append((a, k, round(float(weights[a, k]), WEIGHT_DECIMALS)))
    return out


@pytest.mark.parametrize("integral", [False, True], ids=["floats", "ties"])
def test_blossom_edges_match_the_double_loop(integral):
    # shaped as mwpm builds it: k event rows, plus a boundary column when k
    # is odd; small integers make ties (the row's own entry included) common
    rng = np.random.default_rng(88)
    for k in range(1, 91):
        shape = (k, k + k % 2)
        if integral:
            weights = rng.integers(0, 4, shape).astype(float)
        else:
            weights = rng.random(shape) * 30
        edges = matcher._blossom_edges(weights)
        assert edges == _reference_blossom_edges(weights)
        assert all(type(w) is float for _, _, w in edges)
        for m in {1, 2, 5, 12, k}:
            assert matcher._blossom_edges(weights, m) == _reference_blossom_edges(
                weights, m
            ), (k, m)


@pytest.mark.parametrize(
    "L, p, decoder, windows",
    [(5, 0.01, "irmwpm", 300), (7, 0.001, "mwpm", 300)],
)
def test_enumeration_leaves_matchings_of_real_windows_unchanged(
    monkeypatch, L, p, decoder, windows
):
    from surfdec.experiments import SimConfig

    config = SimConfig(L=L, p=p, trials=1, decoder=decoder)
    calls = [c for c in _recorded_matchings(config, windows, seed=L) if c[1]]
    # per call: (enumerated, solved by the subset program, enumerated in
    # the list form)
    solved = []
    real_helper = matcher.lightest_unique_pairing

    def counted(weights):
        pairs = real_helper(weights)
        inline = isinstance(weights, list)
        small = inline or weights.shape[1] <= ENUMERATION_MAX_VERTICES
        answered = pairs is not None
        solved.append((answered and small, answered and not small, answered and inline))
        return pairs

    monkeypatch.setattr(matcher, "lightest_unique_pairing", counted)
    fast = [mwpm(g, ev, overlay) for g, ev, overlay in calls]
    monkeypatch.setattr(matcher, "lightest_unique_pairing", lambda weights: None)
    slow = [mwpm(g, ev, overlay) for g, ev, overlay in calls]

    for a, b in zip(fast, slow):
        assert a.pairs == b.pairs
        assert a.boundary_pairs == b.boundary_pairs
        assert a.path_edges == b.path_edges
        assert a.total_weight == b.total_weight
    # the comparison covers matchings of every way, reweighted ones among
    # them: per way, floors on all and on reweighted calls, and a floor on
    # plain calls answered in the list form
    assert len(solved) == len(calls) >= 300
    reweighted = [bool(overlay) for _g, _ev, overlay in calls]
    floors = {
        "irmwpm": [(300, 100), (400, 200), (90, 40)],
        "mwpm": [(300, 0), (10, 0), (400, 0)],
    }
    ways = list(zip(*solved))
    for way, (floor, reweighted_floor) in zip(ways, floors[decoder]):
        assert sum(way) >= floor
        assert sum(w and r for w, r in zip(way, reweighted)) >= reweighted_floor
    plain_floor = {"irmwpm": 40, "mwpm": 400}[decoder]
    assert sum(w and not r for w, r in zip(ways[2], reweighted)) >= plain_floor


def _reference_matching(graph, events, overlay, pairs, total):
    """The matching of ``pairs`` (as ``mwpm`` numbers them), each path walked
    back along a fresh scipy predecessor row with ``overlay`` and cut after
    its first edge that touches the boundary node."""
    _dist, pred = _oracle_paths(graph, events, overlay)
    k, bnd = len(events), graph.boundary_node
    result = matcher.MatchingResult(total_weight=total)
    for a, b in pairs:
        u = events[a]
        target = bnd if b == k else events[b]
        eids = []
        node = target
        while node != u:
            prv = int(pred[a, node])
            assert prv >= 0
            eids.append(graph.edge_lookup[(min(prv, node), max(prv, node))])
            node = prv
        eids.reverse()
        if b == k:
            legs = [(u, eids)]
        else:
            at_bnd = [bnd in (graph.edges[e].u, graph.edges[e].v) for e in eids]
            if not any(at_bnd):
                result.pairs.append((u, target))
                result.path_edges[(u, target)] = tuple(eids)
                continue
            cut = at_bnd.index(True) + 1
            legs = [(u, eids[:cut]), (target, eids[cut:])]
        for event, path in legs:
            result.boundary_pairs.append(event)
            result.path_edges[(event, -1)] = tuple(path)
    return result


@pytest.mark.parametrize(
    "L, p, decoder, windows, crossing_floor, reweighted_crossing_floor",
    [(7, 0.001, "mwpm", 300, 10, 0), (5, 0.01, "irmwpm", 150, 50, 50)],
)
def test_walk_equals_the_reference_walk(
    monkeypatch, L, p, decoder, windows, crossing_floor, reweighted_crossing_floor
):
    # every matching of real windows, plain and reweighted, against the
    # reference walk over a fresh scipy predecessor row
    from surfdec.experiments import SimConfig

    config = SimConfig(L=L, p=p, trials=1, decoder=decoder)
    calls = [
        (g, sorted(ev), overlay)
        for g, ev, overlay in _recorded_matchings(config, windows, seed=L)
        if ev
    ]
    real = matcher._matching_result
    checked = crossing = reweighted_crossing = 0

    def compared(graph, events, pred, rows, pairs, total):
        nonlocal checked, crossing, reweighted_crossing
        got = real(graph, events, pred, rows, pairs, total)
        want = _reference_matching(graph, events, overlay, pairs, total)
        assert got.pairs == want.pairs
        assert got.boundary_pairs == want.boundary_pairs
        assert list(got.path_edges.items()) == list(want.path_edges.items())
        assert got.total_weight == want.total_weight
        k = len(events)
        crossed = sum(b < k for _a, b in pairs) - len(got.pairs)
        crossing += crossed
        reweighted_crossing += crossed if overlay else 0
        checked += 1
        return got

    monkeypatch.setattr(matcher, "_matching_result", compared)
    for g, ev, overlay in calls:
        mwpm(g, ev, overlay)
    assert checked == len(calls) >= 150
    assert crossing >= crossing_floor
    assert reweighted_crossing >= reweighted_crossing_floor


# ---------------------------------------------------------------------------
# matcher on decoding graphs

def _tiny_graph(pair_w=1.0, bound_w=10.0):
    """Two stabilizers, one layer: nodes 0, 1 and boundary 2."""
    from fractions import Fraction

    edges = [
        Edge(0, 0, 1, Fraction(1), pair_w, 0b1),
        Edge(1, 0, 2, Fraction(1), bound_w, 0b10),
        Edge(2, 1, 2, Fraction(1), bound_w, 0b100),
    ]
    g = DecodingGraph(
        kind="X",
        L=2,
        T=1,
        p=0.1,
        mode="circuit",
        n_layers=1,
        stab_coords=((0, 1), (2, 1)),
        edges=edges,
    )
    assert g.edge_lookup == {(0, 1): 0, (0, 2): 1, (1, 2): 2}
    return g


def test_mwpm_empty_events(graphs3):
    gx, _ = graphs3
    m = mwpm(gx, [])
    assert m.pairs == [] and m.boundary_pairs == [] and m.total_weight == 0.0


def test_mwpm_prefers_cheap_pair():
    g = _tiny_graph(pair_w=1.0, bound_w=10.0)
    m = mwpm(g, [0, 1])
    assert m.pairs == [(0, 1)]
    assert m.total_weight == pytest.approx(1.0)


def test_mwpm_prefers_boundary_when_cheaper():
    g = _tiny_graph(pair_w=25.0, bound_w=10.0)
    m = mwpm(g, [0, 1])
    # the pair routes through the boundary and splits into two pairings
    assert sorted(m.boundary_pairs) == [0, 1]
    assert m.total_weight == pytest.approx(20.0)


def test_single_event_matches_boundary():
    g = _tiny_graph()
    m = mwpm(g, [1])
    assert m.boundary_pairs == [1]
    assert m.total_weight == pytest.approx(10.0)
    assert m.path_edges[(1, -1)] == (2,)


def test_shortest_paths_against_bellman_ford(graphs3):
    gx, _ = graphs3
    rng = np.random.default_rng(3)
    nodes = sorted(rng.choice(gx.n_nodes - 1, size=6, replace=False).tolist())
    dist, _pred, rows = shortest_paths(gx, nodes)

    # independent O(VE) relaxation oracle
    inf = math.inf
    for row, src in enumerate(nodes):
        d = [inf] * gx.n_nodes
        d[src] = 0.0
        for _ in range(gx.n_nodes):
            changed = False
            for e in gx.edges:
                for a, b in ((e.u, e.v), (e.v, e.u)):
                    if d[a] + e.weight < d[b] - 1e-15:
                        d[b] = d[a] + e.weight
                        changed = True
            if not changed:
                break
        for node in range(gx.n_nodes):
            assert dist[rows[row], node] == pytest.approx(d[node], abs=1e-9)


def _random_instances(layout, circuit, graph, p, T, n, seed, max_events=8):
    rng = np.random.default_rng(seed)
    params = NoiseParams(p)
    made = 0
    while made < n:
        faults = sample_faults(circuit, params, T, rng)
        hist = simulate(layout, circuit, faults, T)
        ev = events_to_nodes(graph, hist.x_lattice_events)
        if not ev or len(ev) > max_events:
            continue
        made += 1
        yield ev, hist


def test_mwpm_equals_brute_force(layout3, circuit3, graphs3):
    gx, _ = graphs3
    for ev, _ in _random_instances(layout3, circuit3, gx, 0.02, 3, 400, seed=5):
        m1 = mwpm(gx, ev)
        m2 = brute_force_matching(gx, ev)
        assert m1.total_weight == pytest.approx(m2.total_weight, abs=1e-9)


def test_reweighted_mwpm_equals_brute_force():
    # the reweighted dense problems of real IRMWPM windows, held to the
    # independent pairing search; totals only, since brute force breaks
    # ties by pair order
    from surfdec.experiments import SimConfig

    config = SimConfig(L=5, p=0.01, trials=1, decoder="irmwpm")
    calls = [
        (g, ev, overlay)
        for g, ev, overlay in _recorded_matchings(config, 200, seed=5)
        if overlay and 1 <= len(ev) <= matcher.BRUTE_FORCE_MAX_EVENTS
    ]
    assert len(calls) >= 100
    for g, ev, overlay in calls:
        m1 = mwpm(g, ev, overlay)
        m2 = brute_force_matching(g, ev, overlay)
        assert m1.total_weight == pytest.approx(m2.total_weight, abs=1e-9)


def test_mwpm_beats_random_valid_matchings(layout3, circuit3, graphs3):
    gx, _ = graphs3
    rng = np.random.default_rng(17)
    for ev, _ in _random_instances(layout3, circuit3, gx, 0.03, 3, 25, seed=29):
        opt = mwpm(gx, ev).total_weight
        dist, _, rows = shortest_paths(gx, ev)
        bnd = gx.boundary_node
        for _ in range(100):
            order = list(rng.permutation(len(ev)))
            total = 0.0
            while order:
                a = order.pop()
                if order and rng.random() < 0.7:
                    b = order.pop(int(rng.integers(0, len(order))))
                    total += dist[rows[a], ev[b]]
                else:
                    total += dist[rows[a], bnd]
            assert opt <= total + 1e-9


def test_brute_force_size_cap(graphs3):
    gx, _ = graphs3
    with pytest.raises(TooManyEventsError):
        brute_force_matching(gx, list(range(11)))


def test_pruned_matching_agrees_at_low_density(layout3, circuit3, graphs3):
    # with generous neighbor counts the pruned matcher reproduces the
    # exact optimum on sparse-event instances
    gx, _ = graphs3
    for ev, _ in _random_instances(layout3, circuit3, gx, 0.02, 3, 60, seed=41):
        exact = mwpm(gx, ev).total_weight
        pruned = mwpm(gx, ev, prune_neighbors=8).total_weight
        assert pruned == pytest.approx(exact, abs=1e-9)


def test_matching_to_correction_empty(graphs3, layout3):
    gx, _ = graphs3
    corr = matching_to_correction(gx, mwpm(gx, []), layout3)
    assert corr.is_identity


def test_correction_explains_syndrome(layout3, circuit3, graphs3):
    gx, _ = graphs3
    n_x = len(layout3.x_stabilizers)
    for ev, hist in _random_instances(
        layout3, circuit3, gx, 0.02, 3, 200, seed=23
    ):
        corr = matching_to_correction(gx, mwpm(gx, ev), layout3)
        residual_x = PauliOperator(layout3.n_data, hist.residual.x_mask, 0)
        prod = multiply(corr, residual_x)
        syn = ideal_syndrome(layout3, prod)
        assert all(b == 0 for b in syn[n_x:])


def test_known_single_error_corrected(layout3, circuit3, graphs3):
    # inject one X error via an idle fault; the correction must cancel it
    # up to a stabilizer (trivial syndrome, trivial logical action)
    from surfdec.noise import FaultEvent

    gx, _ = graphs3
    n_x = len(layout3.x_stabilizers)
    for q in range(layout3.n_data):
        fault = fault_rows(circuit3, [FaultEvent(2, "idle", q, 0)])
        hist = simulate(layout3, circuit3, fault, 3)
        ev = events_to_nodes(gx, hist.x_lattice_events)
        corr = matching_to_correction(gx, mwpm(gx, ev), layout3)
        prod = multiply(corr, PauliOperator(13, hist.residual.x_mask, 0))
        syn = ideal_syndrome(layout3, prod)
        assert all(b == 0 for b in syn[n_x:])
        assert commutation_parity(prod, layout3.logical_z) == 0


# ---------------------------------------------------------------------------
# memoized base-weight rows and the reused work adjacency, against an
# undirected scipy Dijkstra on an adjacency rebuilt from the edge list


def _oracle_paths(graph, sources, overlay=None):
    import scipy.sparse as sp
    from scipy.sparse.csgraph import dijkstra

    n = graph.n_nodes
    overlay = overlay or {}
    rows, cols, data = [], [], []
    for e in graph.edges:
        w = overlay.get(e.index, e.weight)
        rows.extend((e.u, e.v))
        cols.extend((e.v, e.u))
        data.extend((w, w))
    csr = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return dijkstra(csr, directed=False, indices=sources, return_predecessors=True)


def _assert_oracle(graph, sources, overlay=None):
    dist, pred, rows = shortest_paths(graph, sources, overlay)
    want_dist, want_pred = _oracle_paths(graph, sources, overlay)
    assert np.array_equal(dist[rows], want_dist)
    assert np.array_equal(pred[rows], want_pred)


def _memo_state(graph):
    rows = graph._memo_rows
    return (
        graph._memo_slot.copy(),
        graph._memo_dist[:rows].copy(),
        graph._memo_pred[:rows].copy(),
    )


def _count_dijkstra(monkeypatch):
    from surfdec import graph as graph_mod

    calls = []
    real = graph_mod.dijkstra

    def counted(*args, **kwargs):
        calls.append(kwargs["indices"])
        return real(*args, **kwargs)

    monkeypatch.setattr(graph_mod, "dijkstra", counted)
    return calls


def test_base_paths_cold_and_warm_memo(monkeypatch):
    from surfdec.graph import build_decoder_graphs

    gx, gz = build_decoder_graphs(5, 5, 0.005)
    calls = _count_dijkstra(monkeypatch)
    for g in (gx, gz):
        calls.clear()
        _assert_oracle(g, [3, 17, 40])  # cold
        assert g._memo_rows == 3 and len(calls) == 1
        _assert_oracle(g, [3, 17, 40])  # warm: no Dijkstra
        assert len(calls) == 1
        _assert_oracle(g, [0, 17, 40, 41])  # two rows new
        assert g._memo_rows == 5 and list(calls[-1]) == [0, 41]
        every = list(range(g.n_nodes))
        _assert_oracle(g, every)
        assert g._memo_rows == g.n_nodes
        calls.clear()
        _assert_oracle(g, every[::-1])
        assert not calls


def test_overlay_leaves_base_and_memo_untouched(cc_pair5):
    from surfdec.graph import build_decoder_graphs

    gx, _ = build_decoder_graphs(5, 5, 0.005)
    cx, _ = cc_pair5
    for g, w in ((gx, 0.5), (cx, 0.0)):
        sources = [1, 7, 12]
        _assert_oracle(g, sources)
        base = g._csr.data.copy()
        memo = _memo_state(g)
        overlay = {eid: w for eid in range(0, len(g.edges), 3)}
        _assert_oracle(g, sources, overlay)
        _assert_oracle(g, [2, 7], {5: w})
        assert np.array_equal(g._csr.data, base)
        for before, after in zip(memo, _memo_state(g)):
            assert np.array_equal(before, after)
        _assert_oracle(g, sources)
        _assert_oracle(g, [2, 7])


def test_reweighted_paths_match_undirected_rebuild(layout5, circuit5):
    from surfdec.graph import build_decoder_graphs
    from surfdec.irmwpm import reweight

    gx, gz = build_decoder_graphs(5, 5, 0.005)
    rng = np.random.default_rng(8)
    params = NoiseParams(0.005)
    checked = 0
    while checked < 40:
        hist = simulate(layout5, circuit5, sample_faults(circuit5, params, 5, rng), 5)
        ev_x = events_to_nodes(gx, hist.x_lattice_events)
        ev_z = events_to_nodes(gz, hist.z_lattice_events)
        if not ev_x or not ev_z:
            continue
        overlay_z = reweight(gx, mwpm(gx, ev_x))
        overlay_x = reweight(gz, mwpm(gz, ev_z))
        if not overlay_z or not overlay_x:
            continue
        _assert_oracle(gz, sorted(ev_z), overlay_z)
        _assert_oracle(gx, sorted(ev_x), overlay_x)
        checked += 1


def test_capped_memo_stops_growing(monkeypatch, layout5, circuit5):
    from surfdec import graph as graph_mod

    uncapped = graph_mod.build_decoder_graphs(5, 5, 0.005)
    capped = graph_mod.build_decoder_graphs(5, 5, 0.005)
    for g in uncapped:
        g.base_rows([0])  # allocates this memo before the cap is patched
    monkeypatch.setattr(graph_mod, "MEMO_ENTRIES", 4 * capped[0].n_nodes + 5)
    rng = np.random.default_rng(12)
    params = NoiseParams(0.005)
    for _ in range(60):
        hist = simulate(layout5, circuit5, sample_faults(circuit5, params, 5, rng), 5)
        for lattice, events in ((0, hist.x_lattice_events), (1, hist.z_lattice_events)):
            ev = events_to_nodes(capped[lattice], events)
            a = mwpm(uncapped[lattice], ev)
            b = mwpm(capped[lattice], ev)
            assert a.pairs == b.pairs
            assert a.boundary_pairs == b.boundary_pairs
            assert a.path_edges == b.path_edges
            assert a.total_weight == b.total_weight
    for g in capped:
        assert g._memo_rows == len(g._memo_dist) == len(g._memo_pred) == 4
        assert np.count_nonzero(g._memo_slot >= 0) == 4
        assert g._memo_dist.size <= graph_mod.MEMO_ENTRIES
        assert g._memo_dist.nbytes + g._memo_pred.nbytes <= 12 * graph_mod.MEMO_ENTRIES
    assert uncapped[0]._memo_rows > 4
    _assert_oracle(capped[0], list(range(capped[0].n_nodes)))
    assert capped[0]._memo_rows == 4


def test_memo_respects_cap_at_distance_13():
    from surfdec.graph import MEMO_ENTRIES, build_decoder_graphs

    gx, _ = build_decoder_graphs(13, 13, 0.001)
    _assert_oracle(gx, [0, gx.n_nodes // 2, gx.boundary_node])
    assert len(gx._memo_dist) == MEMO_ENTRIES // gx.n_nodes < gx.n_nodes
    assert gx._memo_dist.size + gx._memo_pred.size <= 2 * MEMO_ENTRIES
    assert gx._memo_dist.nbytes + gx._memo_pred.nbytes <= 12 * MEMO_ENTRIES


def test_memo_rows_equal_fresh_scipy_predecessors(monkeypatch, graphs5):
    from surfdec import graph as graph_mod

    for g in graphs5:
        every = list(range(g.n_nodes))
        dist, pred, row = g.base_rows(every)
        assert pred is g._memo_pred and pred.dtype == np.int32
        want_dist, want_pred = _oracle_paths(g, every)
        assert np.array_equal(dist[row], want_dist)
        assert np.array_equal(pred[row], want_pred)
        _assert_oracle(g, every)
    # a capped memo: four rows stored, the others computed per call
    capped = graph_mod.build_decoder_graphs(5, 5, 0.005)
    monkeypatch.setattr(graph_mod, "MEMO_ENTRIES", 4 * capped[0].n_nodes + 5)
    for g in capped:
        every = list(range(g.n_nodes))
        g.base_rows(every[:4])
        dist, pred, row = g.base_rows(every)
        assert g._memo_rows == 4 and pred is not g._memo_pred
        assert pred.dtype == np.int32
        want_dist, want_pred = _oracle_paths(g, every)
        assert np.array_equal(dist[row], want_dist)
        assert np.array_equal(pred[row], want_pred)
        _assert_oracle(g, every[::-1])
        assert g._memo_rows == 4


def _cut_graph():
    """_tiny_graph with a third, edgeless stabilizer: nodes 0-2, boundary 3."""
    from fractions import Fraction

    edges = [
        Edge(0, 0, 1, Fraction(1), 1.0, 0b1),
        Edge(1, 0, 3, Fraction(1), 10.0, 0b10),
        Edge(2, 1, 3, Fraction(1), 10.0, 0b100),
    ]
    g = DecodingGraph(
        kind="X",
        L=2,
        T=1,
        p=0.1,
        mode="circuit",
        n_layers=1,
        stab_coords=((0, 1), (2, 1), (4, 1)),
        edges=edges,
    )
    return g


@pytest.mark.parametrize("memo_rows", [4, 1], ids=["memoized", "capped"])
def test_unreachable_event_raises_when_its_row_is_filled(monkeypatch, memo_rows):
    from surfdec import graph as graph_mod

    g = _cut_graph()
    monkeypatch.setattr(graph_mod, "MEMO_ENTRIES", memo_rows * g.n_nodes)
    assert mwpm(g, [0]).boundary_pairs == [0]  # stores row 0
    for overlay in (None, {0: 2.0}):
        for events in ([2], [1, 2], [0, 2]):
            # twice: a row that failed the check is never stored
            for _ in range(2):
                with pytest.raises(UnreachableNodeError):
                    mwpm(g, events, overlay)
    with pytest.raises(UnreachableNodeError):
        g.base_rows([1, 2])
    assert g._memo_rows == 1 and g._memo_slot.tolist() == [0, -1, -1, -1]
    assert mwpm(g, [0, 1]).pairs == [(0, 1)]
    assert g._memo_rows == min(2, memo_rows)


def _networkx_weight(graph, events):
    nx = pytest.importorskip("networkx")
    dist, _ = _oracle_paths(graph, events)
    bnd = graph.boundary_node
    g = nx.Graph()
    for i in range(len(events)):
        g.add_edge(("event", i), ("twin", i), weight=float(dist[i, bnd]))
        for j in range(i + 1, len(events)):
            g.add_edge(("event", i), ("event", j), weight=float(dist[i, events[j]]))
            g.add_edge(("twin", i), ("twin", j), weight=0.0)
    matching = nx.min_weight_matching(g)
    assert 2 * len(matching) == g.number_of_nodes()
    return sum(g[a][b]["weight"] for a, b in matching)


def test_mwpm_equals_networkx_beyond_brute_force(monkeypatch, layout5, circuit5):
    # windows with more than 10 events, where brute_force_matching refuses:
    # the subset program solves some, blossom the rest
    pytest.importorskip("networkx")
    from surfdec.graph import build_decoder_graphs

    ways = []  # per matching: the way that solved it
    real_helper = matcher.lightest_unique_pairing
    real_blossom = matcher.min_weight_perfect_matching

    def by_subsets(weights):
        pairs = real_helper(weights)
        ways.append("subsets" if pairs is not None else None)
        return pairs

    def by_blossom(n, edges):
        ways[-1] = "blossom"
        return real_blossom(n, edges)

    monkeypatch.setattr(matcher, "lightest_unique_pairing", by_subsets)
    monkeypatch.setattr(matcher, "min_weight_perfect_matching", by_blossom)
    gx, gz = build_decoder_graphs(5, 5, 0.01)
    rng = np.random.default_rng(31)
    params = NoiseParams(0.01)
    checked = 0
    while checked < 30:
        hist = simulate(layout5, circuit5, sample_faults(circuit5, params, 5, rng), 5)
        for g, events in ((gx, hist.x_lattice_events), (gz, hist.z_lattice_events)):
            ev = sorted(events_to_nodes(g, events))
            if len(ev) <= 10:
                continue
            want = _networkx_weight(g, ev)
            assert mwpm(g, ev).total_weight == pytest.approx(want, abs=1e-9)
            checked += 1
    assert len(ways) == checked
    assert ways.count("subsets") >= 10 and ways.count("blossom") >= 5
