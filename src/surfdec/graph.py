"""Space-time decoding graphs derived from single-fault enumeration.

A decoding graph for one error type has a node for every (stabilizer,
round) pair plus one virtual boundary node.  Every edge is backed by the
set of single faults whose detection signature is exactly that node pair
(or that single node, for boundary edges); its probability is the direct
first-order sum of the contributing fault rates.  Cross-lattice conditional
probabilities are summed from the same faults, as exact rationals.

This module states every matching weight, once per graph.  A circuit edge
weighs -ln(coeff p), and IRMWPM discounts a correlated edge to
-ln(conditional); on code-capacity lattices these are 1 and 0.  Each
conditional in ``corr_to_dual`` is a ``Conditional`` that carries its
discount as ``weight``, and ``irmwpm.reweight`` only selects among them.

Single-fault signatures are time-translation invariant, so the graphs are
built from one round: ``enumerate_single_faults(circuit, 1)`` gives every
fault of round 1 with its events in rounds 1 and 2, as one
``noise.FaultTable`` of columns.  ``_assemble`` reads those columns and
groups the rows into classes by their signature on its own lattice, adds
rates in integer units of p/15 (CNOT payload 1, idle Pauli 5, measurement
flip 15) and places every class at every fault round of the window, for
circuit windows and the one-layer code-capacity lattice alike.
``derive_correlations`` sums the rates behind each pair of a primal and a
dual class and places the pairs on those classes' edges.  Every window
closes with a perfect readout layer, so a fault's events always lie
inside it.  Fractions are formed only for the edge coefficients and the
conditionals.

Interior edges fall into six space-time geometry classes, labelled a-f.
A class's geometry does not depend on the round it is placed at, so each
two-event class is classified once and its edges take its letter:

    letter  (dt, dr, dc)   interior probability
      a     (1,  0,  0)    31p/15   temporal (measurement-type)
      b     (0,  2,  0)    18p/15   spatial, vertical
      c     (1,  2,  0)    16p/15   space-time diagonal, vertical
      d     (0,  0,  2)    42p/15   spatial, horizontal
      e     (1,  0,  2)     8p/15   space-time diagonal, horizontal
      f     (1,  2, -2)     8p/15   space-time diagonal, skew

The same table applies to both lattices.  Edges whose geometry matches a
letter but whose probability differs from the interior value (near the
space or time boundary) keep the letter and carry a boundary flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .code import CodeLayout, build_layout, build_se_circuit, ideal_syndrome
from .noise import (
    FAULT_KINDS,
    FaultTable,
    NoiseParams,
    _collector_paused,
    enumerate_single_faults,
    window_signature,
)
from .pauli import PauliOperator

#: geometry (dt, dr, dc) of the later-time endpoint relative to the earlier
#: one (position-lexicographic for equal times) -> matching type letter
GEOMETRY_LETTERS = {
    (1, 0, 0): "a",
    (0, 2, 0): "b",
    (1, 2, 0): "c",
    (0, 0, 2): "d",
    (1, 0, 2): "e",
    (1, 2, -2): "f",
}

#: interior probability coefficients (units of p) per letter
INTERIOR_COEFFS = {
    "a": Fraction(31, 15),
    "b": Fraction(18, 15),
    "c": Fraction(16, 15),
    "d": Fraction(42, 15),
    "e": Fraction(8, 15),
    "f": Fraction(8, 15),
}
#: the same in integer units of p/15, as edge rates are summed
_INTERIOR_UNITS = {letter: int(15 * c) for letter, c in INTERIOR_COEFFS.items()}


#: smallest distance whose faults of one signature share their logical action
MIN_DECODING_DISTANCE = 3
#: most base-weight shortest-path entries (rows x n_nodes) one graph
#: memoizes: 12 bytes each (a distance and scipy's predecessor), so at most
#: 48 MB per lattice
MEMO_ENTRIES = 1 << 22


class GraphBuildError(RuntimeError):
    """Enumeration produced a structure the decoding graph cannot represent."""


class EdgeClassificationError(GraphBuildError):
    """An edge's space-time geometry matches none of the six classes."""


class DegenerateWeightError(ValueError):
    """An infinite edge weight, from p = 0 or from a p whose edge rate underflows."""


class InvalidRateError(ValueError):
    """p so large that some edge probability reaches 1."""


class UnreachableNodeError(RuntimeError):
    """An event node cannot reach the rest of the graph (construction bug)."""


@dataclass
class Edge:
    """One decoding-graph edge and the fault mechanisms behind it."""

    index: int
    u: int
    v: int  # equals the boundary node id for boundary edges
    coeff: Fraction
    weight: float
    correction: int  # data-qubit flip mask applied when this edge is matched
    letter: str | None = None
    boundary: bool = False
    n_fault_locations: int = 0


class Conditional(Fraction):
    """P(dual edge | primal edge), exact, carrying the ``weight`` IRMWPM
    discounts the dual edge to: -ln of it on circuit lattices, else 0.0."""

    __slots__ = ("weight",)


@dataclass
class DecodingGraph:
    """Static decoding lattice for one error type ('X' or 'Z').

    Nodes are (stabilizer, round) pairs, ``node_id = (t - 1) * n_stabs + s``
    for rounds 1..n_layers, plus the boundary node ``n_layers * n_stabs``.
    A circuit window has T noisy layers and a perfect readout layer.

    Construction derives ``n_stabs``, ``edge_lookup``, ``corrections`` and
    the base adjacency ``_csr``; they and the edges are immutable from then
    on.  Two per-graph buffers are mutable: the memo of base-weight
    shortest-path rows (``base_rows``), filled lazily and capped at
    ``MEMO_ENTRIES`` entries, and the work adjacency that
    ``csr_with_weights`` rewrites for each reweighted matching.  A memo row
    is a row of scipy's Dijkstra result: for every node, its distance from
    the source (float64) and its predecessor on the shortest path (int32,
    negative at the source and at unreachable nodes), 12 bytes per entry.

    Circuit graphs also carry one round's single-fault table, read by
    ``window_events``: for each round-1 fault they were built from, by its
    row (the round model's numbering, which ``noise.sample_faults`` gives),
    the node ids of its events on this lattice (``fault_nodes``, read from
    ``FaultTable.nodes``) and its residual mask on this lattice's error
    type (``fault_residuals``: X on the X lattice, Z on
    the Z lattice).  Both are None on code-capacity graphs.
    """

    kind: str
    L: int
    T: int
    p: float
    mode: str  # "circuit" or "code_capacity"
    n_layers: int
    stab_coords: tuple[tuple[int, int], ...]
    edges: list[Edge]
    # edge index -> its (dual edge index, conditional probability) pairs
    corr_to_dual: list[tuple[tuple[int, Conditional], ...]] | None = None
    _work: sp.csr_matrix | None = field(default=None, repr=False, compare=False)
    # memo: node -> row of _memo_dist/_memo_pred (-1 when not stored)
    _memo_slot: np.ndarray | None = field(default=None, repr=False, compare=False)
    _memo_dist: np.ndarray | None = field(default=None, repr=False, compare=False)
    _memo_pred: np.ndarray | None = field(default=None, repr=False, compare=False)
    _memo_rows: int = field(default=0, repr=False, compare=False)
    fault_nodes: list[tuple[int, ...]] | None = field(
        default=None, repr=False, compare=False
    )
    fault_residuals: list[int] | None = field(default=None, repr=False, compare=False)
    # signature class of each fault the graph was built from (-1 without
    # an event here), and the edge of each class placed at each fault
    # round: shape (fault rounds, classes)
    _fault_class: np.ndarray | None = field(default=None, repr=False, compare=False)
    _class_edges: np.ndarray | None = field(default=None, repr=False, compare=False)
    # derived from stab_coords, n_layers and the edges at construction
    n_stabs: int = field(init=False)
    boundary_node: int = field(init=False, repr=False, compare=False)
    n_nodes: int = field(init=False, repr=False, compare=False)
    edge_lookup: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)
    # per edge: its correction mask, as matcher.matching_to_correction reads it
    corrections: list[int] = field(init=False, repr=False, compare=False)
    _csr: sp.csr_matrix = field(init=False, repr=False, compare=False)
    _edge_data_pos: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.n_stabs = len(self.stab_coords)
        self.boundary_node = self.n_stabs * self.n_layers
        self.n_nodes = n = self.boundary_node + 1
        self.edge_lookup = {(e.u, e.v): e.index for e in self.edges}
        self.corrections = [e.correction for e in self.edges]
        u = np.array([e.u for e in self.edges], dtype=np.intp)
        v = np.array([e.v for e in self.edges], dtype=np.intp)
        w = np.array([e.weight for e in self.edges], dtype=float)
        # canonical CSR: each row's columns ascend, so neighbour order (which
        # decides shortest-path ties) does not depend on the edge order
        self._csr = csr = sp.coo_matrix(
            (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(n, n),
        ).tocsr()
        # slot k holds (row, indices[k]); its key row * n + col ascends with k
        slot_keys = np.repeat(np.arange(n), np.diff(csr.indptr)) * n + csr.indices
        self._edge_data_pos = np.searchsorted(
            slot_keys, np.stack([u * n + v, v * n + u], axis=1)
        )

    def node_id(self, stab: int, t: int) -> int:
        return (t - 1) * self.n_stabs + stab

    def node_pos(self, node: int) -> tuple[int, int]:
        """(stabilizer, round) of a non-boundary node id."""
        return node % self.n_stabs, node // self.n_stabs + 1

    def csr_with_weights(self, overlay: dict[int, float] | None = None) -> sp.csr_matrix:
        """The graph's work adjacency: base weights with ``overlay`` written in.

        One matrix per graph, rewritten by every call, so the result is
        valid only until the next call; the base adjacency is never written.
        """
        if self._work is None:
            self._work = self._csr.copy()
        data = self._work.data
        data[:] = self._csr.data
        if overlay:
            ids = np.fromiter(overlay, np.intp, len(overlay))
            ws = np.fromiter(overlay.values(), float, len(overlay))
            data[self._edge_data_pos[ids]] = ws[:, None]
        return self._work

    def base_rows(self, sources) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Base-weight rows from each source node, memoized: ``(dist, pred,
        rows)``, source i's distances being ``dist[rows[i]]`` and its
        predecessors ``pred[rows[i]]``, as scipy's Dijkstra gives them.

        When every source is memoized, ``dist`` and ``pred`` are the memo
        itself, read-only by contract.  Missing rows are computed by one
        Dijkstra call and stored while the memo holds fewer than
        MEMO_ENTRIES entries (rows x n_nodes); later rows are recomputed on
        every call, and the result then holds one copied row per source.
        Raises UnreachableNodeError, storing nothing, when a computed row
        does not reach the boundary node.
        """
        n = self.n_nodes
        if self._memo_slot is None:
            capacity = min(n, MEMO_ENTRIES // n)
            self._memo_slot = np.full(n, -1, dtype=np.intp)
            self._memo_dist = np.empty((capacity, n))
            self._memo_pred = np.empty((capacity, n), dtype=np.int32)
        rows = [self._memo_slot.item(s) for s in sources]
        if -1 not in rows:
            return self._memo_dist, self._memo_pred, rows
        sources = np.asarray(sources, dtype=np.intp)
        slot = np.array(rows)
        hit = slot >= 0
        missing = np.unique(sources[~hit])
        new_dist, new_pred = dijkstra(
            self._csr, directed=True, indices=missing, return_predecessors=True
        )
        if np.isinf(new_dist[:, self.boundary_node]).any():
            raise UnreachableNodeError("an event cannot reach the boundary node")
        start = self._memo_rows
        stored = min(len(missing), len(self._memo_dist) - start)
        self._memo_dist[start : start + stored] = new_dist[:stored]
        self._memo_pred[start : start + stored] = new_pred[:stored]
        self._memo_slot[missing[:stored]] = np.arange(start, start + stored)
        self._memo_rows = start + stored
        if stored == len(missing):
            return self._memo_dist, self._memo_pred, self._memo_slot[sources].tolist()
        dist = np.empty((len(sources), n))
        pred = np.empty((len(sources), n), dtype=np.int32)
        dist[hit] = self._memo_dist[slot[hit]]
        pred[hit] = self._memo_pred[slot[hit]]
        fresh = np.searchsorted(missing, sources[~hit])
        dist[~hit] = new_dist[fresh]
        pred[~hit] = new_pred[fresh]
        return dist, pred, list(range(len(sources)))

    def window_events(self, faults) -> tuple[list[int], int]:
        """Event node ids and residual mask of a window's faults, from the table.

        ``faults`` holds a (row, round) pair per fault, as
        ``noise.sample_faults`` gives them; the events are the symmetric
        difference of the faults' one-round events shifted to their
        rounds, and the residual the XOR of their masks
        (``noise.window_signature``, which ``noise.simulate`` reads too).
        """
        if self.fault_nodes is None:
            raise ValueError(f"the {self.mode} graph has no single-fault table")
        return window_signature(
            self.fault_nodes, self.fault_residuals, faults, self.T, self.n_stabs
        )


def _place(
    classes: list[tuple], n_stabs: int, n_layers: int, fault_rounds: int, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """Every signature class repeated at every fault round of a window.

    ``classes`` holds each class's node ids at fault round 1
    (``FaultTable.nodes``).  Placed at fault round r, a node moves r - 1
    layers on, always to one of layers 1..n_layers: circuit classes have
    nodes on layers 1 and 2, placed at fault rounds 1..T of T + 1 layers,
    and code-capacity ones nodes of layer 1 at round 1 of one layer.  Every
    class has a node, so every (fault round, class) pair is a placement.
    Returns its (u, v) node ids as arrays of shape (fault rounds, classes),
    v being the boundary node for a single event.
    """
    most = max(map(len, classes), default=0)
    if most > 2:
        raise GraphBuildError(f"single fault produced {most} events on the {kind} lattice")
    # a single node is padded with the boundary, whose id exceeds every
    # node id, so that each pair stays ascending as it moves
    boundary = n_stabs * n_layers
    first = np.array(
        [ids + (boundary,) if len(ids) == 1 else ids for ids in classes], dtype=np.int64
    ).reshape(-1, 2)
    shift = n_stabs * np.arange(fault_rounds)[:, None, None]
    nodes = np.where(first < boundary, first + shift, boundary)
    return nodes[..., 0], nodes[..., 1]


def _class_letters(
    classes: list[tuple], coords: tuple[tuple[int, int], ...], kind: str
) -> list[str | None]:
    """Matching-type letter of each two-event class; None for one event.

    A class's geometry does not depend on the fault round it is placed
    at, so its letter is that of every edge it is placed on.  A geometry
    outside ``GEOMETRY_LETTERS`` raises ``EdgeClassificationError``.
    """
    n_stabs = len(coords)
    letters = []
    for ids in classes:
        if len(ids) == 1:
            letters.append(None)
            continue
        # the later event relative to the earlier, by position for equal rounds
        (t1, (r1, c1)), (t2, (r2, c2)) = sorted(
            (v // n_stabs, coords[v % n_stabs]) for v in ids
        )
        geom = (t2 - t1, r2 - r1, c2 - c1)
        letter = GEOMETRY_LETTERS.get(geom)
        if letter is None:
            sig = [(v % n_stabs, v // n_stabs + 1) for v in ids]
            raise EdgeClassificationError(
                f"{kind}-lattice signature {sig} geometry {geom} matches no class"
            )
        letters.append(letter)
    return letters


def _assemble(
    layout: CodeLayout,
    table: FaultTable,
    kind: str,
    T: int,
    p: float,
    mode: str,
) -> DecodingGraph:
    """One lattice from one round's single faults placed over the window.

    ``table`` holds the faults of round 1, as ``enumerate_single_faults(
    circuit, 1)`` returns them; a fault of another round raises
    ValueError.  The faults with an event on this lattice are grouped by
    signature into classes, numbered by first appearance, and rates add up
    as integers in units of p/15 (``FaultTable.units``).  A circuit
    lattice places the classes at fault rounds 1..T of T + 1 layers and
    weighs each edge -ln(coeff p); a code-capacity lattice places them on
    its one layer with unit weights and no letters.  An edge's rate is the
    sum over every placed class whose signature is its node pair.  Its
    correction and letter are those of its representative class, the one
    holding the highest-rate fault behind it, the earliest round and then
    row order breaking ties.  Every fault behind an edge must share the
    same logical action, so that correction is well defined; a conflict
    raises ``GraphBuildError``, and an edge probability of 1 or more
    ``InvalidRateError``, naming the bound that the largest rate sets on p.
    The graph keeps each fault's class and every placement's edge for
    ``derive_correlations``, and a circuit graph its single-fault table.
    """
    if layout.L < MIN_DECODING_DISTANCE:
        raise ValueError(
            f"decoding graphs need distance >= {MIN_DECODING_DISTANCE}, got "
            f"{layout.L}: below it, faults with one detection signature act "
            "differently on the logical qubit"
        )
    late = table.round[table.round != 1]
    if len(late):
        raise ValueError(f"graphs are built from round-1 faults, got round {late[0]}")
    circuit = mode == "circuit"
    fault_rounds, n_layers = (T, T + 1) if circuit else (1, 1)
    coords = layout.z_anc_coords if kind == "X" else layout.x_anc_coords
    n_stabs = len(coords)
    boundary = n_stabs * n_layers
    residuals = table.x_residual if kind == "X" else table.z_residual
    nodes = table.nodes(kind, n_stabs)
    # each fault's class, -1 without an event on this lattice
    class_of: dict[tuple, int] = {}
    fault_class = np.array(
        [class_of.setdefault(ids, len(class_of)) if ids else -1 for ids in nodes],
        dtype=np.int64,
    )
    n_classes, n, units = len(class_of), len(table), table.units
    # a location's rows are contiguous, so a row less its payload names it
    loc = np.arange(n) - table.payload
    logical = layout.logical_z.z_mask if kind == "X" else layout.logical_x.x_mask
    odd = np.array([(r & logical).bit_count() & 1 for r in residuals], dtype=np.int64)

    # per class, over the faults behind it: summed rate, highest-rate
    # fault (the earliest on ties), bit 1 if one leaves even logical
    # parity and bit 2 if one leaves odd, and distinct locations
    here = np.nonzero(fault_class >= 0)[0]
    cls = fault_class[here]
    class_units = np.bincount(cls, units[here], minlength=n_classes).astype(np.int64)
    by_rate = here[np.lexsort((-units[here], cls))]
    best = by_rate[np.searchsorted(fault_class[by_rate], np.arange(n_classes))]
    class_parity = np.zeros(n_classes, dtype=np.int64)
    np.bitwise_or.at(class_parity, cls, 1 << odd[here])
    class_locs = np.bincount(np.unique(cls * n + loc[here]) // n, minlength=n_classes)

    classes = list(class_of)
    u, v = _place(classes, n_stabs, n_layers, fault_rounds, kind)
    letters = _class_letters(classes, coords, kind) if circuit else [None] * n_classes
    keys, edge = np.unique((u * (boundary + 1) + v).ravel(), return_inverse=True)
    # fault round index and class of each placement, in (round, class) order
    rr, cc = (a.ravel() for a in np.indices(u.shape))
    n_edges = len(keys)
    edge_units = np.bincount(edge, class_units[cc], minlength=n_edges).astype(np.int64)
    order = np.lexsort((best[cc], rr, -units[best[cc]], edge))
    rep = cc[order[np.searchsorted(edge[order], np.arange(n_edges))]]

    parity = np.zeros(n_edges, dtype=np.int64)
    np.bitwise_or.at(parity, edge, class_parity[cc])
    conflicts = np.nonzero(parity == 3)[0]
    if len(conflicts):
        key = divmod(int(keys[conflicts[0]]), boundary + 1)
        raise GraphBuildError(
            f"edge {key} has contributing faults with conflicting logical action"
        )
    # one class per signature places at most one class per edge and fault
    # round, so an edge's (fault round, location) pairs are all distinct
    locations = np.bincount(edge, class_locs[cc], minlength=n_edges).astype(np.int64)

    top = Fraction(int(edge_units.max()), 15)
    if circuit and float(top) * p >= 1.0:
        raise InvalidRateError(
            f"p = {p} puts edge probability at {float(top) * p:.3f} >= 1 "
            f"(p_max = {1 / float(top):.4f} for this graph)"
        )
    rated: dict[int, tuple[Fraction, float]] = {}
    for n_units in np.unique(edge_units).tolist():
        coeff = Fraction(n_units, 15)
        prob = float(coeff) * p
        if circuit and prob <= 0.0:
            raise DegenerateWeightError(f"p = {p} underflows: {coeff} * p rounds to 0")
        rated[n_units] = coeff, -math.log(prob) if circuit else 1.0
    edges: list[Edge] = []
    for eid, (key, n_units, c, n_loc) in enumerate(
        zip(keys.tolist(), edge_units.tolist(), rep.tolist(), locations.tolist())
    ):
        coeff, weight = rated[n_units]
        a, b = divmod(key, boundary + 1)
        letter = letters[c]
        edges.append(
            Edge(
                index=eid,
                u=a,
                v=b,
                coeff=coeff,
                weight=weight,
                correction=residuals[best[c]],
                letter=letter,
                # an interior geometry whose rate the space or time edge cuts
                boundary=b == boundary
                or (letter is not None and n_units != _INTERIOR_UNITS[letter]),
                n_fault_locations=n_loc,
            )
        )
    g = DecodingGraph(
        kind=kind,
        L=layout.L,
        T=T,
        p=p,
        mode=mode,
        n_layers=n_layers,
        stab_coords=coords,
        edges=edges,
        _fault_class=fault_class,
        _class_edges=edge.reshape(u.shape),
    )
    if circuit:
        g.fault_nodes = nodes
        g.fault_residuals = residuals
    return g


def build_graph(
    layout: CodeLayout,
    params: NoiseParams,
    T: int,
    lattice_kind: str,
    table: FaultTable,
) -> DecodingGraph:
    """Assemble the decoding lattice for one error type of a T-round window.

    ``table`` holds one round's single faults
    (``enumerate_single_faults(circuit, 1)``).  Their signature classes
    are repeated at each of the window's fault rounds and summed into
    edges in integer units of p/15 (see ``_assemble``).  Edge probabilities
    are direct first-order sums of contributing fault rates (valid for
    small p; every edge probability must stay below 1).  The window's
    T noisy rounds are followed by a perfect readout layer, so the graph
    has T + 1 layers.
    """
    if lattice_kind not in ("X", "Z"):
        raise ValueError(f"lattice kind must be 'X' or 'Z', got {lattice_kind!r}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if params.p <= 0.0:
        raise DegenerateWeightError("p must be positive to form -ln weights")
    return _assemble(layout, table, lattice_kind, T, params.p, "circuit")


def derive_correlations(
    graph_primal: DecodingGraph,
    graph_dual: DecodingGraph,
    table: FaultTable,
) -> None:
    """Conditional probabilities of dual-lattice edges given primal edges.

    ``table`` holds the round-1 faults both graphs were built from.  The
    rates of the faults with an event on both lattices are summed per
    pair of a primal and a dual signature class, and each pair is placed
    at every fault round of the window, on the edges each graph recorded
    for its classes' placements.  For each primal edge e and dual edge f
    sharing a contributing fault, P(f | e) = (sum of joint fault rates) /
    (sum of e's fault rates), summed in integer units of p/15 and formed
    as one ``Conditional`` per distinct value.  The rows are stored on
    ``graph_primal.corr_to_dual``.
    """
    if {graph_primal.kind, graph_dual.kind} != {"X", "Z"}:
        raise ValueError("correlations need one X and one Z lattice")
    primal_ids, dual_ids = graph_primal._class_edges, graph_dual._class_edges
    pc, dc = graph_primal._fault_class, graph_dual._fault_class
    if (
        primal_ids is None
        or dual_ids is None
        or len(primal_ids) != len(dual_ids)
        or not len(pc) == len(dc) == len(table)
    ):
        raise ValueError("correlations need two lattices assembled for one window")
    both = np.nonzero((pc >= 0) & (dc >= 0))[0]
    units = table.units[both]
    n_dc = dual_ids.shape[1]
    classes, which = np.unique(pc[both] * n_dc + dc[both], return_inverse=True)
    joint_units = np.bincount(which, units, minlength=len(classes)).astype(np.int64)
    jp, jd = np.divmod(classes, n_dc)
    pe, de = primal_ids[:, jp], dual_ids[:, jd]
    n_dual = len(graph_dual.edges)
    pairs, which = np.unique((pe * n_dual + de).ravel(), return_inverse=True)
    joint = np.bincount(
        which, np.broadcast_to(joint_units, pe.shape).ravel(), minlength=len(pairs)
    ).astype(np.int64)

    # P(f | e) = (j / 15) / coeff(e), as a numerator and denominator per pair
    primal, dual = np.divmod(pairs, n_dual)
    nums = np.array([e.coeff.numerator for e in graph_primal.edges], dtype=np.int64)
    dens = np.array([e.coeff.denominator for e in graph_primal.edges], dtype=np.int64)
    num, den = joint * dens[primal], 15 * nums[primal]
    # in lowest terms, so that one key stands for one value
    common = np.gcd(num, den)
    num, den = num // common, den // common
    width = int(den.max(initial=0)) + 1
    distinct, which = np.unique(num * width + den, return_inverse=True)
    conds = [Conditional(*divmod(key, width)) for key in distinct.tolist()]
    for cond in conds:
        if not 0 < cond <= 1:
            raise GraphBuildError(f"conditional {cond} outside (0, 1]")
        cond.weight = -math.log(float(cond)) if graph_primal.mode == "circuit" else 0.0
    # indexing an object array shares each distinct conditional among its entries
    entries = list(zip(dual.tolist(), np.array(conds, dtype=object)[which].tolist()))
    ends = np.cumsum(np.bincount(primal, minlength=len(graph_primal.edges))).tolist()
    graph_primal.corr_to_dual = [tuple(entries[a:b]) for a, b in zip([0] + ends, ends)]


def _code_capacity_faults(layout: CodeLayout) -> FaultTable:
    """The code-capacity model as one round of idle faults: each single
    data-qubit X, Y and Z, read by one perfect syndrome readout."""
    n_x, n_z = len(layout.x_stabilizers), len(layout.z_stabilizers)
    x_events, z_events, x_res, z_res = [], [], [], []
    for q in range(layout.n_data):
        for kind in "XYZ":
            err = PauliOperator.single(layout.n_data, q, kind)
            syn = ideal_syndrome(layout, err)
            x_events.append(tuple((i, 1) for i in range(n_z) if syn[n_x + i]))
            z_events.append(tuple((i, 1) for i in range(n_x) if syn[i]))
            x_res.append(err.x_mask)
            z_res.append(err.z_mask)
    rows = np.arange(3 * layout.n_data)
    idle = np.full_like(rows, FAULT_KINDS.index("idle"))
    return FaultTable(
        np.ones_like(rows), idle, rows // 3, rows % 3, x_events, z_events, x_res, z_res
    )


@_collector_paused()
def build_decoder_graphs(
    L: int,
    T: int,
    p: float,
    include_idle: bool = True,
) -> tuple[DecodingGraph, DecodingGraph]:
    """Both lattices plus cross-correlations for a distance-L, T-round window.

    One round of single faults is enumerated once, as one ``FaultTable``;
    both lattices and both correlation tables repeat its rows over the
    window, and each lattice reads its single-fault table from them
    (``DecodingGraph.window_events``).
    """
    layout = build_layout(L)
    circuit = build_se_circuit(layout)
    table = enumerate_single_faults(circuit, 1, include_idle)
    params = NoiseParams(p)
    gx = build_graph(layout, params, T, "X", table)
    gz = build_graph(layout, params, T, "Z", table)
    derive_correlations(gx, gz, table)
    derive_correlations(gz, gx, table)
    return gx, gz


@_collector_paused()
def build_code_capacity_pair(L: int) -> tuple[DecodingGraph, DecodingGraph]:
    """Both 2D code-capacity lattices with same-qubit correlations.

    Single data-qubit Paulis on one layer of perfect syndromes; every edge
    weighs 1, and reweighting a correlated edge sets it to 0.
    """
    layout = build_layout(L)
    table = _code_capacity_faults(layout)
    gx = _assemble(layout, table, "X", 0, 0.0, "code_capacity")
    gz = _assemble(layout, table, "Z", 0, 0.0, "code_capacity")
    derive_correlations(gx, gz, table)
    derive_correlations(gz, gx, table)
    return gx, gz


def graph_to_dict(graph: DecodingGraph) -> dict:
    """JSON-ready dump of nodes, edges, weights, labels and correlations."""
    return {
        "kind": graph.kind,
        "distance": graph.L,
        "rounds": graph.T,
        "p": graph.p,
        "mode": graph.mode,
        "n_stabilizers": graph.n_stabs,
        "n_layers": graph.n_layers,
        "boundary_node": graph.boundary_node,
        "edges": [
            {
                "index": e.index,
                "u": e.u,
                "v": e.v,
                "probability_coefficient": str(e.coeff),
                "probability": float(e.coeff) * graph.p
                if graph.mode == "circuit"
                else None,
                "weight": e.weight,
                "type": e.letter,
                "boundary": e.boundary,
                "fault_locations": e.n_fault_locations,
                "correction_mask": e.correction,
            }
            for e in graph.edges
        ],
        "correlations": None
        if graph.corr_to_dual is None
        else [
            [
                {"dual_edge": de, "conditional": str(c)}
                for de, c in graph.corr_to_dual[e.index]
            ]
            for e in graph.edges
        ],
    }
