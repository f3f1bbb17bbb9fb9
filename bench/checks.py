"""Correctness checks that share no code with the decoder they check.

* ``syndrome_weight``: stabilizer violations of a data-qubit error, from the
  layout's stabilizer supports (not ``ideal_syndrome``).
* ``MatchingOracle``: the minimum matching weight of a set of events, from
  the graph's (u, v, weight) edge list, scipy Dijkstra and
  ``networkx.min_weight_matching`` over the events plus one boundary twin
  per event, the twins joined to each other at zero weight.
* ``graph_faults``: the a-f class table, -ln(coeff p) weights and
  conditionals in (0, 1], recomputed from each edge's endpoints.
"""

from __future__ import annotations

import math
from fractions import Fraction

import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

#: matching weights must agree with the oracle to this absolute tolerance
WEIGHT_TOLERANCE = 1e-9

#: geometry (dt, drow, dcol) of the later endpoint -> class letter
GEOMETRY_CLASSES = {
    (1, 0, 0): "a",
    (0, 2, 0): "b",
    (1, 2, 0): "c",
    (0, 0, 2): "d",
    (1, 0, 2): "e",
    (1, 2, -2): "f",
}

#: interior edge probability per class, in units of p
CLASS_COEFFS = {
    "a": Fraction(31, 15),
    "b": Fraction(18, 15),
    "c": Fraction(16, 15),
    "d": Fraction(42, 15),
    "e": Fraction(8, 15),
    "f": Fraction(8, 15),
}


def syndrome_weight(layout, x_mask: int, z_mask: int) -> int:
    """Number of stabilizers that anticommute with the error (x_mask, z_mask)."""
    violated = 0
    for support in layout.x_stabilizers:  # X checks see Z components
        violated += sum((z_mask >> q) & 1 for q in support) & 1
    for support in layout.z_stabilizers:  # Z checks see X components
        violated += sum((x_mask >> q) & 1 for q in support) & 1
    return violated


def residual_is_clean(layout, residual, e_x, e_z, flip_qubit: int | None = None) -> bool:
    """True when residual * e_x * e_z has a zero syndrome.

    ``flip_qubit`` adds one X flip to the correction; the self-test uses it
    to show that a wrong correction is rejected.
    """
    x = residual.x_mask ^ e_x.x_mask ^ e_z.x_mask
    z = residual.z_mask ^ e_x.z_mask ^ e_z.z_mask
    if flip_qubit is not None:
        x ^= 1 << flip_qubit
    return syndrome_weight(layout, x, z) == 0


class MatchingOracle:
    """Minimum matching weights through networkx, one adjacency per graph."""

    def __init__(self):
        self._adjacency = {}

    def _csr(self, graph):
        entry = self._adjacency.get(id(graph))
        if entry is None:
            us = [e.u for e in graph.edges]
            vs = [e.v for e in graph.edges]
            ws = [e.weight for e in graph.edges]
            n = graph.n_nodes
            csr = sp.coo_matrix((ws + ws, (us + vs, vs + us)), shape=(n, n)).tocsr()
            entry = (csr, graph)  # holding the graph keeps its id unique
            self._adjacency[id(graph)] = entry
        return entry[0]

    def weight(self, graph, events) -> float:
        # imported here, so that the peak memory reading taken before any
        # check runs does not include networkx
        import networkx as nx

        events = sorted(events)
        if not events:
            return 0.0
        dist = dijkstra(self._csr(graph), directed=False, indices=events)
        boundary = graph.boundary_node
        g = nx.Graph()
        for i in range(len(events)):
            g.add_edge(("event", i), ("twin", i), weight=float(dist[i, boundary]))
            for j in range(i + 1, len(events)):
                g.add_edge(("event", i), ("event", j), weight=float(dist[i, events[j]]))
                g.add_edge(("twin", i), ("twin", j), weight=0.0)
        matching = nx.min_weight_matching(g)
        if 2 * len(matching) != g.number_of_nodes():
            return math.inf
        return sum(g[a][b]["weight"] for a, b in matching)


def weights_agree(expected: float, reported: float) -> bool:
    return abs(expected - reported) <= WEIGHT_TOLERANCE


def graph_faults(graph, p: float | None) -> list[str]:
    """Table, weight and conditional violations of one decoding graph.

    ``p`` is the circuit-level fault rate, or None for a code-capacity
    graph, whose only checked property is its conditionals.
    """
    faults = []
    for row in graph.corr_to_dual or ():
        for dual, cond in row:
            if not 0 < cond <= 1:
                faults.append(f"conditional {cond} toward dual edge {dual}")
    if graph.corr_to_dual is None:
        faults.append("no correlation table")
    if p is None:
        return faults

    n_stabs = graph.n_stabs
    coords = graph.stab_coords
    rows = [r for r, _ in coords]
    cols = [c for _, c in coords]
    noisy_rounds = graph.T

    def position(node):
        stab, t = node % n_stabs, node // n_stabs + 1
        return coords[stab], t

    def deep(rc, t):
        # two coordinate steps from every side, one round from both time ends
        r, c = rc
        return (
            2 <= t <= noisy_rounds - 1
            and min(rows) + 2 <= r <= max(rows) - 2
            and min(cols) + 2 <= c <= max(cols) - 2
        )

    for e in graph.edges:
        expected = -math.log(e.coeff.numerator * p / e.coeff.denominator)
        if abs(e.weight - expected) > 1e-12:
            faults.append(f"edge {e.index} weight {e.weight} != -ln(coeff p) {expected}")
        if e.v == graph.boundary_node:
            continue
        (rc1, t1), (rc2, t2) = sorted((position(e.u), position(e.v)), key=lambda x: (x[1], x[0]))
        letter = GEOMETRY_CLASSES.get((t2 - t1, rc2[0] - rc1[0], rc2[1] - rc1[1]))
        if letter is None or letter != e.letter:
            faults.append(f"edge {e.index} geometry gives class {letter}, graph says {e.letter}")
            continue
        interior = deep(rc1, t1) and deep(rc2, t2)
        if (interior or not e.boundary) and e.coeff != CLASS_COEFFS[letter]:
            faults.append(
                f"interior edge {e.index} class {letter} has coefficient {e.coeff}, "
                f"not {CLASS_COEFFS[letter]}"
            )
    return faults
