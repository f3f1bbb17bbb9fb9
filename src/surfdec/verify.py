"""Self-verification: conditional-probability reproduction and oracle checks.

The decoding-graph machinery is rebuilt from scratch here only where an
independent route exists (brute-force matching, blossom for the subset
program, ideal-syndrome replay);
everything else re-derives the expected interior structure of the lattices
and compares it against the frozen reference values below in exact rational
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .code import build_layout, build_se_circuit, ideal_syndrome
from .graph import build_decoder_graphs
from .blossom import min_weight_perfect_matching
from .matcher import (
    ENUMERATION_MAX_VERTICES,
    SUBSET_MAX_VERTICES,
    WEIGHT_DECIMALS,
    brute_force_matching,
    events_to_nodes,
    lightest_unique_pairing,
    mwpm,
)
from .noise import NoiseParams, sample_faults, simulate
from .pauli import PauliOperator

#: interior conditional-probability rows: primal type -> sorted multiset of
#: (dual type, conditional).  32 entries across the six rows.
INTERIOR_CONDITIONAL_ROWS: dict[str, tuple[tuple[str, Fraction], ...]] = {
    "a": (
        ("c", Fraction(1, 31)),
        ("c", Fraction(1, 31)),
        ("d", Fraction(3, 31)),
        ("d", Fraction(3, 31)),
        ("f", Fraction(2, 31)),
    ),
    "b": (("d", Fraction(1, 2)),),
    "c": (
        ("a", Fraction(1, 16)),
        ("a", Fraction(1, 16)),
        ("d", Fraction(3, 16)),
        ("d", Fraction(3, 16)),
        ("e", Fraction(1, 8)),
    ),
    "d": (
        ("a", Fraction(1, 14)),
        ("a", Fraction(1, 14)),
        ("b", Fraction(3, 14)),
        ("c", Fraction(1, 14)),
        ("c", Fraction(1, 14)),
        ("d", Fraction(1, 21)),
        ("d", Fraction(1, 21)),
        ("e", Fraction(1, 42)),
        ("e", Fraction(1, 42)),
        ("f", Fraction(1, 42)),
        ("f", Fraction(1, 42)),
    ),
    "e": (
        ("c", Fraction(1, 4)),
        ("d", Fraction(1, 8)),
        ("d", Fraction(1, 8)),
        ("f", Fraction(1, 8)),
        ("f", Fraction(1, 8)),
    ),
    "f": (
        ("a", Fraction(1, 4)),
        ("d", Fraction(1, 8)),
        ("d", Fraction(1, 8)),
        ("e", Fraction(1, 8)),
        ("e", Fraction(1, 8)),
    ),
}

N_INTERIOR_CONDITIONALS = sum(len(v) for v in INTERIOR_CONDITIONAL_ROWS.values())

#: pinned interior anchors: temporal edges sum five fault locations to 31p/15,
#: the horizontal spatial edge reaches 42p/15, and their joint rate is 3p/15
TEMPORAL_COEFF = Fraction(31, 15)
TEMPORAL_LOCATIONS = 5
SPATIAL_D_COEFF = Fraction(42, 15)
JOINT_TEMPORAL_D = Fraction(3, 15)


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerifyReport:
    checks: list[Check] = field(default_factory=list)
    matched_conditionals: int = 0
    expected_conditionals: int = N_INTERIOR_CONDITIONALS

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(passed), detail))

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            out.append(f"[{mark}] {c.name}" + (f": {c.detail}" if c.detail else ""))
        out.append(
            f"{self.matched_conditionals}/{self.expected_conditionals} "
            "conditionals matched"
        )
        return out


def interior_edges(graph) -> list:
    """Edges classified with full interior probability, away from all
    boundaries (space and time)."""
    span = 2 * graph.L - 2
    out = []
    for e in graph.edges:
        if e.letter is None or e.boundary:
            continue
        ok = True
        for node in (e.u, e.v):
            s, t = graph.node_pos(node)
            r, c = graph.stab_coords[s]
            if not (0 < r < span and 0 < c < span):
                ok = False
            if not (2 <= t <= graph.n_layers - 1):
                ok = False
        if ok:
            out.append(e)
    return out


def typed_row(graph, dual_graph, edge) -> tuple[tuple[str, Fraction], ...]:
    """(dual letter, conditional) multiset for one primal edge."""
    row = []
    for dual_eid, cond in graph.corr_to_dual[edge.index]:
        de = dual_graph.edges[dual_eid]
        letter = de.letter if de.letter is not None else "boundary"
        row.append((letter, cond))
    return tuple(sorted(row))


def check_conditional_rows(report: VerifyReport, gx, gz) -> None:
    """Every interior edge's conditional row must equal the frozen table."""
    matched = 0
    for graph, dual in ((gx, gz), (gz, gx)):
        per_letter: dict[str, set] = {}
        for e in interior_edges(graph):
            per_letter.setdefault(e.letter, set()).add(typed_row(graph, dual, e))
        for letter, expected in INTERIOR_CONDITIONAL_ROWS.items():
            rows = per_letter.get(letter)
            if rows is None:
                report.record(
                    f"{graph.kind}-lattice type-{letter} interior row",
                    False,
                    "no interior edge of this type",
                )
                continue
            good = rows == {expected}
            report.record(
                f"{graph.kind}-lattice type-{letter} interior row",
                good,
                f"{len(expected)} conditionals" if good else f"got {rows}",
            )
            if good and graph.kind == "X":
                matched += len(expected)
    report.matched_conditionals = matched


def check_edge_anchors(report: VerifyReport, gx, gz, p: float) -> None:
    """Pinned interior probabilities and fault-mechanism counts."""
    for graph, dual in ((gx, gz), (gz, gx)):
        interior = interior_edges(graph)
        temporal = [e for e in interior if e.letter == "a"]
        report.record(
            f"{graph.kind}-lattice temporal edges at 31p/15",
            bool(temporal)
            and all(e.coeff == TEMPORAL_COEFF for e in temporal),
            f"{len(temporal)} edges",
        )
        report.record(
            f"{graph.kind}-lattice temporal edges from 5 fault locations",
            bool(temporal)
            and all(e.n_fault_locations == TEMPORAL_LOCATIONS for e in temporal),
        )
        spatial_d = [e for e in interior if e.letter == "d"]
        report.record(
            f"{graph.kind}-lattice spatial type-d edges at 42p/15",
            bool(spatial_d)
            and all(e.coeff == SPATIAL_D_COEFF for e in spatial_d),
            f"{len(spatial_d)} edges",
        )
        # joint rate with a type-d dual along a temporal edge
        joint_ok = True
        for e in temporal:
            joints = [
                cond * e.coeff
                for dual_eid, cond in graph.corr_to_dual[e.index]
                if dual.edges[dual_eid].letter == "d"
            ]
            if sorted(joints) != [JOINT_TEMPORAL_D, JOINT_TEMPORAL_D]:
                joint_ok = False
        report.record(
            f"{graph.kind}-lattice joint temporal/type-d rate 3p/15", joint_ok
        )
        # conditionals always dominate the dual edge's standalone probability
        dominate = True
        for e in interior:
            for dual_eid, cond in graph.corr_to_dual[e.index]:
                standalone = float(dual.edges[dual_eid].coeff) * p
                if float(cond) <= standalone:
                    dominate = False
        report.record(
            f"{graph.kind}-lattice conditionals exceed standalone rates "
            f"at p={p}",
            dominate,
        )


#: the matcher oracle's window, noise rate and seed: a window small enough
#: that brute force enumerates the pairings of most of its draws
ORACLE_L, ORACLE_T, ORACLE_P, ORACLE_SEED = 3, 3, 0.02, 2024
#: the seed of the dense problems the subset program is held to blossom on
SUBSET_SEED = 19
#: the seed of the random errors the syndrome circuit is replayed on
SYNDROME_SEED = 11


def check_matcher_oracle(report: VerifyReport, instances: int) -> None:
    """mwpm total weight equals exhaustive brute force on random instances."""
    L, T, p = ORACLE_L, ORACLE_T, ORACLE_P
    layout = build_layout(L)
    circuit = build_se_circuit(layout)
    gx, _gz = build_decoder_graphs(L, T, p)
    rng = np.random.default_rng(ORACLE_SEED)
    params = NoiseParams(p)
    tried = mism = 0
    while tried < instances:
        faults = sample_faults(circuit, params, T, rng)
        hist = simulate(layout, circuit, faults, T, True)
        ev = events_to_nodes(gx, hist.x_lattice_events)
        if not ev or len(ev) > 8:
            continue
        tried += 1
        m1 = mwpm(gx, ev)
        m2 = brute_force_matching(gx, ev)
        if abs(m1.total_weight - m2.total_weight) > 1e-9:
            mism += 1
    report.record(
        f"matching optimality vs brute force ({instances} instances "
        f"at L={L}, T={T}, p={p})",
        mism == 0,
        f"{mism} mismatches",
    )


def check_subset_matching(report: VerifyReport, instances: int) -> None:
    """The subset program's pairs and total equal blossom's on random dense
    problems too large to enumerate, whenever it answers.  Every other
    problem has integer weights 0-7, so that ties are common."""
    rng = np.random.default_rng(SUBSET_SEED)
    answered = mism = 0
    for i in range(instances):
        k = int(rng.integers(ENUMERATION_MAX_VERTICES + 1, SUBSET_MAX_VERTICES + 1))
        n = k + k % 2
        if i % 2:
            weights = rng.random((k, n)) * 30
        else:
            weights = rng.integers(0, 8, (k, n)).astype(float)
        pairs = lightest_unique_pairing(weights)
        if pairs is None:
            continue
        answered += 1
        edges = [
            (a, b, round(float(weights[a, b]), WEIGHT_DECIMALS))
            for a in range(n)
            for b in range(a + 1, n)
        ]
        want = min_weight_perfect_matching(n, edges)
        totals = [math.fsum(weights[a, b] for a, b in ps) for ps in (pairs, want)]
        if pairs != want or totals[0] != totals[1]:
            mism += 1
    report.record(
        f"subset-program matching equals blossom ({instances} dense problems "
        f"of {ENUMERATION_MAX_VERTICES + 1}-{SUBSET_MAX_VERTICES} events)",
        mism == 0,
        f"{answered} answered, {mism} mismatches",
    )


def check_circuit_vs_ideal(report: VerifyReport, L: int, instances: int) -> None:
    """Fault-free circuit reproduces the ideal syndrome of random errors."""
    layout = build_layout(L)
    circuit = build_se_circuit(layout)
    rng = np.random.default_rng(SYNDROME_SEED)
    n = layout.n_data
    bad = 0

    def mask() -> int:  # uniform over n bits, for any n
        return int.from_bytes(rng.bytes(-(-n // 8)), "little") & ((1 << n) - 1)

    for _ in range(instances):
        err = PauliOperator(n, mask(), mask())
        hist = simulate(layout, circuit, [], 1, False, initial_error=err)
        expected = ideal_syndrome(layout, err)
        got = list(hist.x_anc_outcomes[0]) + list(hist.z_anc_outcomes[0])
        if got != expected:
            bad += 1
    report.record(
        f"syndrome circuit equals ideal syndrome ({instances} errors)",
        bad == 0,
        f"{bad} mismatches",
    )


def run_verification(L: int, T: int, p: float, instances: int) -> VerifyReport:
    """Full verification battery; all exact checks plus oracle equivalences.

    ``instances`` is the number of random instances of each oracle check.
    The interior checks need a window whose lattices hold every edge class
    and every conditional row away from the space and time boundaries: at
    least distance 4 and 3 rounds.  A smaller window, or fewer than one
    instance, raises ValueError.
    """
    if instances < 1:
        raise ValueError(f"verification needs instances >= 1, got {instances}")
    if L < 4 or T < 3:
        raise ValueError(
            f"verification needs distance >= 4 and rounds >= 3, got {L} and {T}: "
            "a smaller window has no interior holding every edge class"
        )
    report = VerifyReport()
    gx, gz = build_decoder_graphs(L, T, p)
    check_conditional_rows(report, gx, gz)
    check_edge_anchors(report, gx, gz, p)
    check_matcher_oracle(report, instances)
    check_subset_matching(report, instances)
    check_circuit_vs_ideal(report, L, instances)
    return report
