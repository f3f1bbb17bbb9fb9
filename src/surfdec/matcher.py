"""Minimum-weight perfect matching of detection events on a decoding graph.

Events pair up either with each other or with the lattice boundary.  The
standard reduction runs all-sources Dijkstra from the event nodes over the
sparse space-time graph, then solves a dense matching over the events:
because path distances may route through the boundary node, pairing two
events "via the boundary" costs exactly as much as matching both to the
boundary, so a complete even-order matching (with one extra virtual vertex
when the event count is odd) captures every boundary split.  Matched pairs
whose minimum path passes through the boundary are reported as two separate
boundary pairings.

A base-weight row depends only on its source node, so plain matchings read
the rows from the graph's memo (``DecodingGraph.base_rows``) and run
Dijkstra only for sources not seen before or past the memo's cap.
Reweighted matchings run Dijkstra on the graph's one work adjacency, which
``DecodingGraph.csr_with_weights`` resets to the base weights and then
writes the overlay into.  Either way ``shortest_paths`` returns scipy's
distance and predecessor rows; a matching reads only the k x (k + 1) block
of distances among its k events and the boundary, and walks each matched
path back along its source's predecessor row (``_walk_path``).

The dense problem is the block of distances among the events and the
boundary (see ``mwpm``), solved exactly in one of four ways, by its vertex
count n.  Up to ``INLINE_MAX_VERTICES`` its upper triangle is read as
Python floats and every pairing is scored on them; up to
``ENUMERATION_MAX_VERTICES`` numpy scores every pairing at once from a fixed
table; up to ``SUBSET_MAX_VERTICES`` a dynamic program over vertex subsets
runs.  All three are ``lightest_unique_pairing``, and each returns the
lightest pairing only when no other comes within ``UNIQUE_MARGIN`` of it;
the two enumerations give the same answer for the same block.  Ties,
larger problems and pruned problems go to blossom
(``min_weight_perfect_matching``) on the edges ``_blossom_edges`` lists
from the block as an array.  A unique minimum is what any exact matcher
returns, so every way gives the same pairs; on a tie, blossom's own
tie-break decides.

``brute_force_matching`` enumerates every partition of the events into
pairs and boundary singletons, with its own weights and total; it is the
independent oracle for the blossom, enumeration and subset paths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .blossom import min_weight_perfect_matching
from .graph import DecodingGraph, UnreachableNodeError
from .pauli import PauliOperator

#: weights are rounded to this many decimals before matching, so that
#: dual-variable arithmetic inside blossom cannot drift across near-ties
WEIGHT_DECIMALS = 12

#: dense problems up to this many vertices are scored on Python floats,
#: read one by one from the distance rows, instead of by the numpy table
#: (``_lightest_inline`` adds at most three weights per pairing).  On 400
#: plain problems of each size from 3,000 d=7, p=0.001 MWPM windows
#: (Python 3.11.7, a shared 2-core machine, lowest median of three passes),
#: reading and scoring the list took 1.3, 2.4 and 4.8 us at n = 2, 4 and
#: 6, against 7.4, 8.1 and 8.4 us for gathering the numpy block and
#: scoring the table; at n = 8 (105 pairings) the list took 15.8 us and
#: numpy 9.5 us
INLINE_MAX_VERTICES = 6

#: dense problems up to this many vertices are solved by scoring all
#: (n-1)!! pairings (945 at 10); the subset program is faster from 12 on
ENUMERATION_MAX_VERTICES = 10

#: dense problems up to this many vertices are solved by a dynamic program
#: over F(n+1) vertex subsets (4,181 at 18, with a 0.49 MB plan); at 20 the
#: plan would take 1.4 MB, and blossom takes the few problems that large
SUBSET_MAX_VERTICES = 18

#: a lightest pairing is returned without blossom only when every other
#: pairing is heavier by more than this, so that blossom would return it
#: too.  The margin covers the rounding to WEIGHT_DECIMALS that blossom's
#: edges get and the other two ways skip (at most 9 pairs x 5e-13 per
#: pairing) and blossom's own float error on weights below ~100, both far
#: below 1e-9.
UNIQUE_MARGIN = 1e-9

#: ``brute_force_matching`` refuses more events than this: 10 events already
#: have 9,496 partitions into pairs and boundary singletons
BRUTE_FORCE_MAX_EVENTS = 10


class TooManyEventsError(ValueError):
    """brute_force_matching refuses instances it cannot enumerate."""


@dataclass
class MatchingResult:
    """A perfect matching of detection events, with path bookkeeping.

    ``pairs`` holds event-node index pairs matched through the bulk;
    ``boundary_pairs`` holds events matched to the boundary.  ``path_edges``
    maps each pair (and each boundary pairing, keyed by (event, -1)) to the
    graph edge indices along its minimum-weight path.
    """

    pairs: list[tuple[int, int]] = field(default_factory=list)
    boundary_pairs: list[int] = field(default_factory=list)
    total_weight: float = 0.0
    path_edges: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)

    def all_edge_ids(self) -> list[int]:
        out = []
        for eids in self.path_edges.values():
            out.extend(eids)
        return out


def shortest_paths(
    graph: DecodingGraph,
    events: list[int],
    overlay: dict[int, float] | None = None,
):
    """All minimum path weights from each event to every node (and boundary).

    Returns ``(dist, pred, rows)``, rows of scipy's Dijkstra result: event
    i's distances are ``dist[rows[i]]`` and its predecessors
    ``pred[rows[i]]``.  Without an ``overlay`` (edge index -> new weight)
    the rows come from the graph's memo of base-weight rows
    (``DecodingGraph.base_rows``); with one, Dijkstra runs on the graph's
    work adjacency and ``rows`` is 0..k-1.  The adjacency is symmetric, so
    a directed search gives the same rows as an undirected one without
    transposing the matrix.  Raises UnreachableNodeError when an event
    cannot reach the boundary node.
    """
    if not overlay:
        return graph.base_rows(events)
    dist, pred = _sp_dijkstra(
        graph.csr_with_weights(overlay),
        directed=True,
        indices=events,
        return_predecessors=True,
    )
    if np.isinf(dist[:, graph.boundary_node]).any():
        raise UnreachableNodeError("an event cannot reach the boundary node")
    return dist, pred, list(range(len(events)))


def _walk_path(
    graph: DecodingGraph, pred: np.ndarray, row: int, source: int, target: int
) -> tuple[list[int], int]:
    """Edge ids of the shortest path source -> target, walked back from the
    target along the predecessor row ``pred[row]`` of a ``shortest_paths``
    result for ``source``, and how many of them follow the boundary node on
    the path (0 when it does not visit it)."""
    bnd, lookup = graph.boundary_node, graph.edge_lookup
    eids = []
    cut = 0
    node = target
    while node != source:
        prv = pred.item(row, node)
        if prv < 0:
            raise UnreachableNodeError(f"no path from {source} to {target}")
        eids.append(lookup[(prv, node) if prv < node else (node, prv)])
        node = prv
        if node == bnd:
            cut = len(eids)
    eids.reverse()
    return eids, cut


@functools.cache
def _pairing_table(n: int) -> tuple[np.ndarray, tuple]:
    """Every perfect matching of vertices 0..n-1 (n even), (n-1)!! of them.

    Returns ``(flat, rows)``: ``rows[r]`` lists pairing r's pairs ``(a, b)``
    with ``a < b``, ascending by ``a``, and column r of the read-only
    ``flat`` holds their indices ``a * n + b`` into a flattened n-column
    weight array (one row per pair slot, so totals sum over a short axis
    of long contiguous rows).
    """

    def pairings(items):
        if not items:
            yield ()
            return
        a = items[0]
        for i in range(1, len(items)):
            for rest in pairings(items[1:i] + items[i + 1 :]):
                yield ((a, items[i]),) + rest

    rows = tuple(pairings(tuple(range(n))))
    flat = np.array([[a * n + b for a, b in row] for row in rows], dtype=np.intp)
    flat = np.ascontiguousarray(flat.T)
    flat.flags.writeable = False
    return flat, rows


@functools.cache
def _subset_plan(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The vertex sets that pairing the lowest vertex first reaches from
    0..n-1 (n even), by size: F(n+1) of them, the empty set included.

    Level i holds the sets of 2i + 2 vertices as ``(pair, rest)``, two
    read-only (2i + 1, m) arrays whose column s is set s's candidates, one
    per partner j of its lowest vertex a, in ascending j: ``pair`` holds
    ``a * n + j``, the index of their weight in a flattened n-column array,
    and ``rest`` the index of the set without a and j in level i - 1 (in
    level 0, 0 for the empty set).
    """
    levels = []
    sets = np.array([(1 << n) - 1], dtype=np.int64)
    for size in range(n, 0, -2):
        bits = (sets[:, None] >> np.arange(n)) & 1
        members = np.nonzero(bits)[1].reshape(len(sets), size)
        low, partner = members[:, :1], members[:, 1:]
        rest = sets[:, None] ^ (1 << low) ^ (1 << partner)
        below = np.unique(rest)
        level = []
        for idx in (low * n + partner, np.searchsorted(below, rest)):
            idx = np.ascontiguousarray(idx.T, dtype=np.intp)
            idx.flags.writeable = False
            level.append(idx)
        levels.append(tuple(level))
        sets = below
    return tuple(reversed(levels))


def _lightest_by_subsets(weights: np.ndarray) -> list[tuple[int, int]] | None:
    """``lightest_unique_pairing`` by the subset program: the lightest
    pairing of a set S pairs its lowest vertex a with the partner j that
    minimizes ``weights[a, j]`` plus the lightest pairing of S without a and
    j.  One vectorized step per level of ``_subset_plan`` scores every
    choice of every set of that size.

    Walking the lightest choices down from the full set gives the lightest
    pairing.  Any other pairing leaves that walk at some set and costs at
    least that set's runner-up choice, so the minimum is unique by more
    than ``UNIQUE_MARGIN`` exactly when every set on the walk has its
    runner-up that much heavier.
    """
    n = weights.shape[1]
    plan = _subset_plan(n)
    best = np.zeros(1)
    costs = []
    for pair, rest in plan:
        cost = np.take(weights, pair)
        cost += best[rest]
        costs.append(cost)
        best = cost.min(axis=0)
    # numpy's min carries a NaN weight up to the full set
    if np.isnan(best[0]):
        return None
    pairs = []
    s = 0
    for (pair, rest), cost in zip(reversed(plan), reversed(costs)):
        row = cost[:, s].tolist()
        lightest = min(row)
        j = row.index(lightest)
        row[j] = math.inf
        if not min(row) - lightest > UNIQUE_MARGIN:
            return None
        pairs.append(divmod(int(pair[j, s]), n))
        s = rest[j, s]
    return pairs


@functools.cache
def _upper_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs ``(a, b)``, ``a < b``, of vertices 0..n-1, row by row: the
    order of the list form of a dense problem."""
    return tuple((a, b) for a in range(n) for b in range(a + 1, n))


@functools.cache
def _inline_table(size: int) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    """``_pairing_table`` for the list form of a dense problem of ``size``
    weights: ``(slots, rows)``, ``slots[r]`` holding the positions in that
    list of the weights of ``rows[r]``'s pairs, in the same order."""
    n = (1 + math.isqrt(1 + 8 * size)) // 2
    if n % 2 or n * (n - 1) // 2 != size or n > INLINE_MAX_VERTICES:
        raise ValueError(
            f"{size} weights are no list form of an even vertex count up to "
            f"{INLINE_MAX_VERTICES}"
        )
    position = {pair: i for i, pair in enumerate(_upper_pairs(n))}
    rows = _pairing_table(n)[1]
    return tuple(tuple(position[pair] for pair in row) for row in rows), rows


def _lightest_inline(w: list[float]) -> list[tuple[int, int]] | None:
    """``lightest_unique_pairing`` on the list form ``w``, with Python
    floats: each total adds its weights left to right in the table's pair
    order, as numpy's sum over the table's short axis does, and the first
    minimum wins, as numpy's argmin picks it."""
    slots, rows = _inline_table(len(w))
    width = len(slots[0])  # pairs per pairing: n / 2
    if width == 3:
        totals = [w[a] + w[b] + w[c] for a, b, c in slots]
    elif width == 2:
        totals = [w[a] + w[b] for a, b in slots]
    else:  # one pairing of one pair
        totals = list(w)
    # numpy's argmin picks a NaN total, which then fails the margin test;
    # the sum is NaN only when some total is, or holds both infinities
    check = sum(totals)
    if check != check and any(t != t for t in totals):
        return None
    lightest = min(totals)
    best = totals.index(lightest)
    totals[best] = math.inf
    # written so that an infinite lightest total also falls through
    if min(totals) - lightest > UNIQUE_MARGIN:
        return list(rows[best])
    return None


def lightest_unique_pairing(
    weights: np.ndarray | list[float],
) -> list[tuple[int, int]] | None:
    """The minimum-weight perfect matching of a dense problem of at most
    ``SUBSET_MAX_VERTICES`` vertices, or None when another pairing is within
    ``UNIQUE_MARGIN`` of it.

    As an array, ``weights`` has one column per vertex (an even count n) and
    at least n - 1 rows; ``weights[a, b]`` for ``a < b`` is the cost of
    pairing a with b, and nothing else is read.  As a list (n at most
    ``INLINE_MAX_VERTICES``) it holds those costs row by row: (0, 1),
    (0, 2), ..., (n - 2, n - 1).  The problem is solved in one of three ways:

    - a list: every pairing of ``_pairing_table`` is scored on Python
      floats (``_lightest_inline``);
    - an array up to ``ENUMERATION_MAX_VERTICES``: numpy scores every
      pairing of the table at once;
    - an array up to ``SUBSET_MAX_VERTICES``: the subset program
      (``_lightest_by_subsets``).

    Both enumerations add each pairing's weights left to right in the
    table's pair order, take the first minimum and decline a NaN total or
    an infinite minimum, so they give the same answer for the same problem.
    Returns None as well when n exceeds ``SUBSET_MAX_VERTICES``; blossom,
    the fourth way, solves what this declines.  Pairs come as
    ``min_weight_perfect_matching`` gives them: ``(a, b)`` with ``a < b``,
    ascending by ``a``.
    """
    if isinstance(weights, list):
        return _lightest_inline(weights)
    n = weights.shape[1]
    if n > SUBSET_MAX_VERTICES:
        return None
    if n > ENUMERATION_MAX_VERTICES:
        return _lightest_by_subsets(weights)
    flat, rows = _pairing_table(n)
    totals = np.take(weights, flat).sum(axis=0)
    best = int(totals.argmin())
    lightest = totals[best]
    totals[best] = np.inf
    # written so that a NaN or infinite lightest total also falls through
    # to blossom
    if totals.min() - lightest > UNIQUE_MARGIN:
        return list(rows[best])
    return None


def _blossom_edges(
    weights: np.ndarray, prune_neighbors: int | None = None
) -> list[tuple[int, int, float]]:
    """Blossom's edges: pairs ``(a, b)``, ``a < b``, row by row, then each
    event with the boundary column if there is one.  Weights are rounded by
    Python's ``round``: blossom's tie-break reads them exactly, and
    ``np.round`` differs from it in the last bit on some values.  With
    ``prune_neighbors`` m, a pair stays only if one event is among the
    other's m nearest (stable order); boundary edges always stay.
    """
    k = len(weights)
    rows = np.arange(k)[:, None]
    upper = rows < np.arange(k)
    if prune_neighbors is not None:
        order = np.argsort(weights[:, :k], axis=1, kind="stable")
        # each row holds its own event once; drop it and keep the m nearest
        nearest = order[order != rows].reshape(k, k - 1)
        near = np.zeros((k, k), dtype=bool)
        near[rows, nearest[:, :prune_neighbors]] = True
        upper &= near | near.T
    a, b = np.nonzero(upper)
    if weights.shape[1] > k:  # the boundary column
        a, b = np.append(a, np.arange(k)), np.append(b, np.full(k, k))
    w = [round(x, WEIGHT_DECIMALS) for x in weights[a, b].tolist()]
    return list(zip(a.tolist(), b.tolist(), w))


def _matching_result(
    graph: DecodingGraph, events: list[int], pred, rows: list[int], pairs, total: float
) -> MatchingResult:
    """The matching of ``pairs`` of positions in ``events``, position
    len(events) standing for the boundary: each leg is walked along its
    source's predecessor row (``_walk_path``), and a pair whose path visits
    the boundary node is cut there into two boundary pairings."""
    k, bnd = len(events), graph.boundary_node
    result = MatchingResult(total_weight=total)
    for a, b in pairs:
        u = events[a]
        target = bnd if b == k else events[b]
        eids, cut = _walk_path(graph, pred, rows[a], u, target)
        if b == k:
            legs = [(u, eids)]
        elif cut:
            legs = [(u, eids[:-cut]), (target, eids[-cut:])]
        else:
            result.pairs.append((u, target))
            result.path_edges[(u, target)] = tuple(eids)
            continue
        for event, path in legs:
            result.boundary_pairs.append(event)
            result.path_edges[(event, -1)] = tuple(path)
    return result


def mwpm(
    graph: DecodingGraph,
    events: list[int],
    overlay: dict[int, float] | None = None,
    prune_neighbors: int | None = None,
) -> MatchingResult:
    """Minimum-weight perfect matching of events against each other/boundary.

    ``events`` are node indices; an empty list returns an empty matching.
    With at most ``SUBSET_MAX_VERTICES`` dense vertices (events, plus the
    virtual boundary vertex when their count is odd) and no pruning, the
    pairing is found by ``lightest_unique_pairing`` if its minimum is
    unique: on the block's upper triangle as a list of Python floats up to
    ``INLINE_MAX_VERTICES``, on the block as an array above.  Ties and
    larger problems go to blossom on the array.  ``total_weight`` adds the
    pairs' weights left to right in pair order, as the enumeration does.
    Deterministic for a fixed set of events: they are sorted, a unique
    minimum does not depend on the solver, and on ties blossom runs on
    distances pre-rounded to 12 decimals and visits vertices and edges in a
    fixed order.

    ``prune_neighbors`` keeps only each event's m nearest partners in the
    dense matching problem (boundary routes always kept), which speeds up
    large instances considerably.  Off by default: with pruning the result
    is no longer guaranteed minimum over all pairings, although in practice
    generous values (>= 12) reproduce the exact matching.  Falls back to
    the exact dense problem if the pruned graph has no perfect matching.
    """
    events = sorted(events)
    k = len(events)
    if k == 0:
        return MatchingResult()
    # row a: a's distance to every event, then to the boundary if k is odd,
    # so column k is the virtual boundary vertex; event a's distances are
    # row rows[a] of dist
    cols = events + [graph.boundary_node] if k % 2 else events
    dist, pred, rows = shortest_paths(graph, events, overlay)
    nverts = k + (k % 2)
    pruned = prune_neighbors is not None and k > prune_neighbors + 2
    pairs = None
    if nverts <= INLINE_MAX_VERTICES and not pruned:
        item = dist.item
        pairs = lightest_unique_pairing(
            [item(rows[a], cols[b]) for a, b in _upper_pairs(nverts)]
        )
    if pairs is None:
        # only this block of the rows is read
        weights = dist[np.array(rows)[:, None], cols]
        if pruned:
            try:
                pairs = min_weight_perfect_matching(
                    nverts, _blossom_edges(weights, prune_neighbors)
                )
            except RuntimeError:
                pass  # the pruned problem has no perfect matching: solve the exact one
        elif nverts > INLINE_MAX_VERTICES:
            pairs = lightest_unique_pairing(weights)
        if pairs is None:
            pairs = min_weight_perfect_matching(nverts, _blossom_edges(weights))
    # left to right in pair order, as the enumeration adds its totals
    total = 0.0
    for a, b in pairs:
        total += dist.item(rows[a], cols[b])
    return _matching_result(graph, events, pred, rows, pairs, total)


def brute_force_matching(
    graph: DecodingGraph,
    events: list[int],
    overlay: dict[int, float] | None = None,
) -> MatchingResult:
    """Exhaustive minimum over all pair/boundary partitions of the events.

    Independent oracle for ``mwpm``; ties are broken by lexicographic pair
    ordering.  Refuses more than ``BRUTE_FORCE_MAX_EVENTS`` events.
    """
    events = sorted(events)
    k = len(events)
    if k > BRUTE_FORCE_MAX_EVENTS:
        raise TooManyEventsError(
            f"{k} events exceed the brute-force cap {BRUTE_FORCE_MAX_EVENTS}"
        )
    if k == 0:
        return MatchingResult()
    dist, pred, rows = shortest_paths(graph, events, overlay)
    bnd = graph.boundary_node
    pair_w = {
        (a, b): round(float(dist[rows[a], events[b]]), WEIGHT_DECIMALS)
        for a in range(k)
        for b in range(a + 1, k)
    }
    bound_w = [round(float(dist[rows[a], bnd]), WEIGHT_DECIMALS) for a in range(k)]

    best: tuple[float, tuple] | None = None

    def rec(remaining: tuple[int, ...], acc_w: float, acc_pairs: tuple):
        nonlocal best
        if not remaining:
            cand = (acc_w, acc_pairs)
            if best is None or cand < best:
                best = cand
            return
        a = remaining[0]
        rest = remaining[1:]
        rec(rest, acc_w + bound_w[a], acc_pairs + ((a, -1),))
        for i, b in enumerate(rest):
            rec(
                rest[:i] + rest[i + 1 :],
                acc_w + pair_w[(a, b)],
                acc_pairs + ((a, b),),
            )

    rec(tuple(range(k)), 0.0, ())
    total, pairing = best
    pairs = [(a, k if b == -1 else b) for a, b in pairing]
    return _matching_result(graph, events, pred, rows, pairs, float(total))


def matching_to_correction(
    graph: DecodingGraph, matching: MatchingResult, layout
) -> PauliOperator:
    """Project matched space-time paths onto a data-qubit Pauli correction.

    Each traversed edge contributes its representative residual flips;
    temporal edges contribute nothing.  The result is an X-type Pauli for
    the X lattice and Z-type for the Z lattice.
    """
    corrections = graph.corrections
    mask = 0
    for eids in matching.path_edges.values():
        for eid in eids:
            mask ^= corrections[eid]
    if graph.kind == "X":
        return PauliOperator(layout.n_data, mask, 0)
    return PauliOperator(layout.n_data, 0, mask)


def events_to_nodes(graph: DecodingGraph, events) -> list[int]:
    """Convert (stabilizer, round) detection events to graph node indices."""
    return [graph.node_id(s, t) for s, t in events]
