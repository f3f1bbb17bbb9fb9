"""Iteratively reweighted minimum-weight perfect matching.

Decoding alternates between the two lattices.  After the initial independent
matchings, each half iteration reweights one lattice from the other's latest
matching and matches it again: the Z lattice from the X matching, then the X
lattice from the new Z matching, and so on until the estimate pair repeats
or the iteration cap is reached.  A lattice whose new overlay equals the one
its current matching was made with is not matched again: matching is
deterministic, so the call would return the same matching.

Reweighting always starts from the base weights: every edge in the dual
correction pulls each of its correlated primal edges down to the weight
that their conditional in the dual graph's ``corr_to_dual`` carries (stated
in ``graph``); if several dual edges touch the same primal edge the
smallest weight wins.  An edge traversed by an even number of matched
paths cancels out of the dual correction and discounts nothing.

The integer Pauli weight of the joint estimate is tracked at every half
iteration.  Under the normalized weights it can never increase, so an
increase there is an internal-consistency failure.  Under -ln weights the
matchings minimize log-likelihood, not Pauli weight, and an increase is
legitimate.  Either way an increase is raised as ``MonotonicityError`` or,
with ``raise_on_violation`` off, recorded in ``IterationTrace.monotonic``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .graph import DecodingGraph
from .matcher import MatchingResult, matching_to_correction, mwpm
from .pauli import PauliOperator, multiply, weight


class MonotonicityError(RuntimeError):
    """The joint correction weight increased across an iteration.

    A bug under the normalized code-capacity weights; a legitimate outcome
    under -ln circuit-level weights, where callers that count increases
    pass ``raise_on_violation=False`` and read ``IterationTrace.monotonic``.
    """


@dataclass
class IterationStep:
    """Decoder state after a half or full iteration."""

    index: float  # 0, 0.5, 1, 1.5, ...
    ex_mask: int
    ez_mask: int
    pauli_weight: int


@dataclass
class IterationTrace:
    steps: list[IterationStep] = field(default_factory=list)
    extra_iterations: int = 0  # full iterations beyond the initial decode
    stop_reason: str = ""
    monotonic: bool = True

    def to_dict(self) -> dict:
        """JSON-ready export for iteration-count studies."""
        return {
            "extra_iterations": self.extra_iterations,
            "stop_reason": self.stop_reason,
            "monotonic": self.monotonic,
            "steps": [
                {
                    "index": s.index,
                    "x_mask": s.ex_mask,
                    "z_mask": s.ez_mask,
                    "pauli_weight": s.pauli_weight,
                }
                for s in self.steps
            ],
        }


STOPPING_MODES = ("consecutive", "algorithm1-literal", "weight-stable")


def correction_weight(e_x: PauliOperator, e_z: PauliOperator) -> int:
    """Pauli weight of the joint correction (support of the product)."""
    return weight(multiply(e_x, e_z))


def reweight(
    dual_graph: DecodingGraph,
    dual_matching: MatchingResult,
    reweight_boundary: bool = True,
) -> dict[int, float]:
    """Overlay for the lattice dual to ``dual_graph``, from a matching on it.

    Returns edge index -> new weight for the edges the matching reweights.

    Only edges in the dual correction trigger updates: those traversed by
    an odd number of matched paths.  An edge that two paths share cancels
    out of the correction, and discounting its correlates would let the
    next matching add a data qubit outside the joint estimate at no cost.

    ``dual_graph.corr_to_dual`` maps each dual edge to its (primal edge,
    conditional) pairs, each conditional carrying the discounted weight.
    With ``reweight_boundary`` off, dual edges incident to the virtual
    boundary node do not trigger updates.
    """
    correlates = dual_graph.corr_to_dual
    if correlates is None:
        raise ValueError("correlation map has not been derived for the dual graph")
    overlay: dict[int, float] = {}
    skip_node = None if reweight_boundary else dual_graph.boundary_node
    for eid, traversals in Counter(dual_matching.all_edge_ids()).items():
        if traversals % 2 == 0 or dual_graph.edges[eid].v == skip_node:
            continue
        for primal_eid, cond in correlates[eid]:
            if cond.weight < overlay.get(primal_eid, math.inf):
                overlay[primal_eid] = cond.weight
    return overlay


def stopping_criterion(
    mode: str,
    ex_mask: int,
    ez_mask: int,
    ex_history: list[int],
    ez_history: list[int],
    w_now: int,
    w_prev: int,
) -> bool:
    """Halt decision after a completed full iteration.

    The histories hold the estimates of every earlier full iteration, the
    initial decode first.  "consecutive" halts when the estimate pair
    repeats an earlier pair (a fixed point or a cycle); "algorithm1-literal"
    halts when either estimate repeats any earlier one of its type;
    "weight-stable" halts when the joint weight stops decreasing.
    """
    if mode == "consecutive":
        return (ex_mask, ez_mask) in zip(ex_history, ez_history)
    if mode == "algorithm1-literal":
        return ex_mask in ex_history or ez_mask in ez_history
    if mode == "weight-stable":
        return w_now >= w_prev
    raise ValueError(f"unknown stopping mode {mode!r}")


def decode(
    graph_x: DecodingGraph,
    graph_z: DecodingGraph,
    events_x: list[int],
    events_z: list[int],
    layout,
    max_iterations: int = 10,
    stopping: str = "consecutive",
    reweight_boundary: bool = True,
    raise_on_violation: bool = True,
    prune_neighbors: int | None = None,
) -> tuple[PauliOperator, PauliOperator, IterationTrace]:
    """Run the full iterative decoder on one syndrome pair.

    ``events_x`` / ``events_z`` are node indices on the X and Z lattices.
    ``max_iterations`` caps the full reweighting iterations after the
    initial matching; 0 reproduces the plain MWPM decoder.  Returns the two
    estimates and the iteration trace.

    Under ``stopping="consecutive"`` the loop halts when a full iteration's
    estimate pair repeats an earlier one (the initial decode's included) and
    returns the lowest-joint-weight pair of the cycle it closes, the earliest
    on ties.  At a fixed point that is the current pair (stop reason
    "converged"); a longer cycle stops with reason "cycle".  The paper's
    Algorithm 1 halts when an estimate repeats ("algorithm1-literal"), and
    converges in finite time because the estimates range over a finite set;
    pairs do too, so a repeat is certain, whereas comparing with the
    previous pair alone left period-2 cycles running to the cap.  Algorithm
    1 does not say which pair of a cycle to keep.  The lightest follows its
    weight-descent argument: under normalized weights the joint weight never
    rises, so a cycle's pairs weigh the same; under -ln weights the decoder
    keeps the one that flips the fewest qubits.
    """
    if stopping not in STOPPING_MODES:
        raise ValueError(f"stopping mode must be one of {STOPPING_MODES}")
    if max_iterations < 0:
        raise ValueError("max_iterations must be >= 0")
    graphs = (graph_x, graph_z)
    events = (events_x, events_z)
    # per lattice, X then Z: the overlay its matching was made with ({} is
    # the base weights), that matching, and its estimate
    overlays: list[dict[int, float]] = [{}, {}]
    matchings = [mwpm(g, ev, {}, prune_neighbors) for g, ev in zip(graphs, events)]
    estimates = [
        matching_to_correction(g, m, layout) for g, m in zip(graphs, matchings)
    ]
    trace = IterationTrace()

    def record(index: float) -> IterationStep:
        e_x, e_z = estimates
        w = correction_weight(e_x, e_z)
        if trace.steps and w > trace.steps[-1].pauli_weight:
            trace.monotonic = False
            if raise_on_violation:
                raise MonotonicityError(
                    f"joint weight rose from {trace.steps[-1].pauli_weight} "
                    f"to {w} at step {index}"
                )
        trace.steps.append(IterationStep(index, e_x.x_mask, e_z.z_mask, w))
        return trace.steps[-1]

    full = [record(0.0)]  # the step after each full iteration, initial decode first
    if not (events_x or events_z):
        trace.stop_reason = "no_events"
        return (*estimates, trace)

    for k in range(1, max_iterations + 1):
        # Z step from the X matching, then X step from the new Z matching
        for lat, index in ((1, k - 0.5), (0, float(k))):
            graph, dual = graphs[lat], 1 - lat
            overlay = reweight(graphs[dual], matchings[dual], reweight_boundary)
            if overlay != overlays[lat]:
                overlays[lat] = overlay
                matchings[lat] = mwpm(graph, events[lat], overlay, prune_neighbors)
                estimates[lat] = matching_to_correction(graph, matchings[lat], layout)
            step = record(index)

        ex_history = [s.ex_mask for s in full]
        ez_history = [s.ez_mask for s in full]
        halt = stopping_criterion(
            stopping, step.ex_mask, step.ez_mask, ex_history, ez_history,
            step.pauli_weight, full[-1].pauli_weight,
        )
        trace.extra_iterations = k
        if halt:
            trace.stop_reason = "converged"
            if stopping == "consecutive":
                # the cycle the repeated pair closes (one pair at a fixed point)
                pairs = list(zip(ex_history, ez_history))
                cycle = full[pairs.index((step.ex_mask, step.ez_mask)) :]
                best = min(cycle, key=lambda s: s.pauli_weight)
                if len(cycle) > 1:
                    trace.stop_reason = "cycle"
                n = layout.n_data
                estimates = [
                    PauliOperator(n, best.ex_mask, 0),
                    PauliOperator(n, 0, best.ez_mask),
                ]
            return (*estimates, trace)
        full.append(step)

    trace.stop_reason = "max_iters"
    return (*estimates, trace)
