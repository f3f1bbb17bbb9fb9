"""Circuit-level depolarizing noise: sampling, Pauli-frame simulation,
and exhaustive single-fault enumeration.

Noise model (fault rate p):

1. each data qubit suffers a uniform Pauli from {X, Y, Z} with probability
   p at its one idle step per round (the measure-and-reset step),
2. each CNOT suffers a uniform two-qubit Pauli from the 15 nontrivial
   pairs with probability p,
3. each ancilla measurement reports the wrong outcome with probability p.

Sampling reads the model as a line of independent Bernoulli(p) locations:
a window's T rounds laid end to end, each round's CNOTs, X- and Z-ancilla
measurements and data idles in the order of the round model, which also
states each fault's Pauli (``_RoundModel``).  ``sample_faults`` skips from
one faulty location to the next with geometric gaps and draws all payloads
in one call, so the generator's work grows with the number of faults, not
of locations (how Stim samples rare errors; Gidney, arXiv:2103.02202).  At
p = 0.001 a d=7 window has ~3 faults among ~3,400 locations.

Simulation tracks X and Z frames through the Clifford schedule: a CNOT
copies X from control to target and Z from target to control.  Z-basis
ancilla outcomes read the X frame, X-basis outcomes read the Z frame;
ancillas are reset after each measurement.  Frames are exact for Pauli
faults on Clifford circuits, and the map from fault sets to detection
events is linear over GF(2).  ``simulate`` packs each frame into two
Python integers, one over the data qubits and one over the ancillas (bit
packing as in Stim's frame simulator; Gidney, arXiv:2103.02202).  On the
(2L-1)^2 grid data qubits hold the even positions and ancillas the odd
ones, and every CNOT layer joins each ancilla with the data qubit one fixed
offset away, so a whole layer is a few masks, shifts and XORs
(``_FramePlan``), and the residual's masks are the data integers.

A fault is a (row, round) pair: its row among one round's faults, as the
round model numbers them, and its round 1..T.  ``sample_faults`` draws
such pairs and ``simulate`` takes them.  That numbering and linearity are
what the decoding windows use: ``enumerate_single_faults`` gives every
fault of one round, in row order, with its events and residual as one
``FaultTable`` of columns, and a memory window's events are the symmetric
difference of its faults' one-round signatures shifted to their rounds
(``graph.DecodingGraph.window_events``).  ``simulate`` stays as the oracle
for that table and as the path of windows that start from an initial data
error.  ``FaultEvent`` is a fault's readable form, for listings.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .code import CodeLayout, SECircuit
from .pauli import PauliOperator

# Two-qubit payload tables: payload index i in 0..14 encodes the pair
# (P_control, P_target) = divmod(i + 1, 4) with I,X,Y,Z = 0,1,2,3.
_PAIR = [divmod(i + 1, 4) for i in range(15)]
PAYLOAD_XC = np.array([pc in (1, 2) for pc, _ in _PAIR], dtype=bool)
PAYLOAD_ZC = np.array([pc in (2, 3) for pc, _ in _PAIR], dtype=bool)
PAYLOAD_XT = np.array([pt in (1, 2) for _, pt in _PAIR], dtype=bool)
PAYLOAD_ZT = np.array([pt in (2, 3) for _, pt in _PAIR], dtype=bool)

# Single-qubit payloads 0,1,2 = X,Y,Z.
PAYLOAD_X1 = np.array([True, True, False])
PAYLOAD_Z1 = np.array([False, True, True])

_PAULI_NAMES = "IXYZ"

#: a round's fault kinds in row order, idles last; a ``FaultTable``
#: holds each row's kind as its position here
FAULT_KINDS = ("cnot", "meas_x", "meas_z", "idle")
#: first-order rate of one fault, by kind, in integer units of p/15: one
#: two-qubit payload p/15, a measurement flip p, one idle Pauli p/3
RATE_UNITS = np.array([1, 15, 15, 5])
RATE_UNITS.flags.writeable = False


class InvalidNoiseError(ValueError):
    """Noise parameters outside the supported range."""


class InvalidFaultError(ValueError):
    """A fault names a row or round that does not exist."""


@dataclass(frozen=True)
class NoiseParams:
    """Physical fault rate for all three fault mechanisms."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise InvalidNoiseError(f"fault rate must be in [0, 1), got {self.p}")


@dataclass(frozen=True)
class FaultEvent:
    """A single fault in readable form (``FaultTable.faults``).

    kind/index/payload:
      * "idle":  index = data qubit, payload 0,1,2 = X,Y,Z
      * "cnot":  index = flat CNOT position in the round schedule,
                 payload 0..14 = nontrivial (P_control, P_target) pair
      * "meas_x" / "meas_z": index = stabilizer, payload unused (flip)
    """

    round: int
    kind: str
    index: int
    payload: int = 0

    def describe(self, circuit: SECircuit) -> str:
        if self.kind == "idle":
            return f"r{self.round} idle q{self.index} {_PAULI_NAMES[self.payload + 1]}"
        if self.kind == "cnot":
            pc, pt = _PAIR[self.payload]
            layer, c, t = circuit.cnot_flat[self.index]
            return (
                f"r{self.round} cnot#{self.index}(step {layer}, {c}->{t}) "
                f"{_PAULI_NAMES[pc]}{_PAULI_NAMES[pt]}"
            )
        return f"r{self.round} {self.kind}{self.index} flip"


@dataclass(frozen=True)
class SyndromeHistory:
    """Measured outcomes, derived detection events, and the residual error.

    ``x_lattice_events`` are detections of X-type errors, i.e. nodes
    (z_stabilizer_index, round); ``z_lattice_events`` are detections of
    Z-type errors on X-stabilizers.  Round indices are 1-based; when the
    history ends with a perfect round its outcomes occupy round T+1.
    """

    T: int
    x_anc_outcomes: np.ndarray  # (rounds, n_x) X-ancilla outcomes
    z_anc_outcomes: np.ndarray  # (rounds, n_z) Z-ancilla outcomes
    x_lattice_events: tuple[tuple[int, int], ...]
    z_lattice_events: tuple[tuple[int, int], ...]
    residual: PauliOperator


class _RoundModel(NamedTuple):
    """One round's fault locations and the Pauli that each fault row applies.

    Rows follow ``FAULT_KINDS``, each kind's locations by index and each
    location's payloads in order, so a location's rows are contiguous and
    idles come last.  A fault is numbered by its row: ``sample_faults``
    draws a location of ``locations`` and one of its rows, ``simulate``
    reads each row's masks from ``_frame_plan``, which folds them from
    ``flips``, and ``_round_signatures`` propagates ``flips`` as packed
    frame columns.
    """

    locations: tuple[tuple[int, int], ...]  # (first row, payloads)
    kind: np.ndarray  # per row: its kind's position in FAULT_KINDS,
    index: np.ndarray  # its location index and its payload
    payload: np.ndarray
    #: per qubit that a row acts on: the row, its phase (after CNOT layer
    #: 0-3, 4 = after the reset), the qubit, and whether it flips the
    #: qubit's X and Z frames
    flips: tuple[np.ndarray, ...]


def _per_distance(build):
    """Cache ``build(circuit)`` per distance: a round's shape is a function
    of the distance, so what the first circuit of a distance gives is
    shared, read only, by every later one."""
    built = {}

    @functools.wraps(build)
    def cached(circuit: SECircuit):
        L = circuit.layout.L
        if L not in built:
            built[L] = build(circuit)
        return built[L]

    return cached


@_per_distance
def _round_model(circuit: SECircuit) -> _RoundModel:
    """One round's locations, rows and flips (see ``_RoundModel``).

    The one statement of where a round's faults sit and what each does:
    a CNOT payload acts on its control and target after that CNOT's
    layer, an idle Pauli on its data qubit after the reset, and a
    measurement flip is the opposite Pauli on its ancilla after the last
    layer.
    """
    n_data, n_x = circuit.layout.n_data, circuit.n_x
    counts = [circuit.n_cnots_per_round, n_x, circuit.n_z, n_data]
    payloads = [15, 1, 1, 3]
    kind = np.repeat(np.arange(len(FAULT_KINDS)), np.multiply(counts, payloads))
    index = np.concatenate([np.arange(n).repeat(k) for n, k in zip(counts, payloads)])
    pay = np.concatenate([np.tile(np.arange(k), n) for n, k in zip(counts, payloads)])
    cnot, meas_x, meas_z, idle = (
        np.flatnonzero(kind == code) for code in range(len(FAULT_KINDS))
    )
    layer, ctl, tgt = np.array(circuit.cnot_flat)[index[cnot]].T
    pc, pi = pay[cnot], pay[idle]
    flips = [
        (cnot, layer, ctl, PAYLOAD_XC[pc], PAYLOAD_ZC[pc]),
        (cnot, layer, tgt, PAYLOAD_XT[pc], PAYLOAD_ZT[pc]),
        (idle, 4, index[idle], PAYLOAD_X1[pi], PAYLOAD_Z1[pi]),
        (meas_x, 3, n_data + index[meas_x], False, True),
        (meas_z, 3, n_data + n_x + index[meas_z], True, False),
    ]
    columns = [
        np.concatenate([np.broadcast_to(f[k], len(f[0])) for f in flips])
        for k in range(5)
    ]
    acts = columns[3] | columns[4]  # a CNOT payload may leave one qubit be
    columns = tuple(a[acts] for a in columns)
    for a in (kind, index, pay, *columns):
        a.flags.writeable = False  # shared by every caller
    first = np.flatnonzero(pay == 0).tolist()  # a location's first row
    locations = tuple(zip(first, np.repeat(payloads, counts).tolist()))
    return _RoundModel(locations, kind, index, pay, columns)


def _faulty_locations(n: int, p: float, rng: np.random.Generator) -> list[int]:
    """Ascending positions in ``range(n)``, each one in with probability p.

    The gaps between faulty locations of a Bernoulli(p) sequence are
    independent geometric variables, so the positions are the running sums
    of ``rng.geometric(p)`` draws.  One batch covers the mean count plus
    five standard deviations; a batch that stops short of ``n`` is
    extended by another.  Each gap is clipped at ``n + 1``, which already
    passes the end, so the sums cannot overflow int64 at tiny p.
    """
    mean = n * p
    size = int(mean + 5 * math.sqrt(mean)) + 2
    hits = np.minimum(rng.geometric(p, size), n + 1).cumsum() - 1
    while hits[-1] < n:
        gaps = np.minimum(rng.geometric(p, size), n + 1)
        hits = np.concatenate([hits, hits[-1] + gaps.cumsum()])
    return hits[: hits.searchsorted(n)].tolist()


def sample_faults(
    circuit: SECircuit,
    params: NoiseParams,
    T: int,
    rng: np.random.Generator,
    include_idle: bool = True,
) -> list[tuple[int, int]]:
    """Draw independent faults for T rounds of the schedule, as (row, round).

    Every location of every round (its CNOTs, X- and Z-ancilla
    measurements and, with ``include_idle``, its data-qubit idles) is
    faulty with probability p, independently, and a faulty location's
    payload is uniform over its kind's payloads.  Each fault is its row
    among one round's faults, numbered as the round model numbers them
    (``_RoundModel``), and its round 1..T; faults come rounds ascending,
    each round in row order.

    The generator's work grows with the number of faults, not of
    locations: the window's T x round locations are laid out in that
    order, ``_faulty_locations`` skips from one faulty location to the
    next, and one ``rng.integers(0, 15)`` call draws every payload, taken
    modulo the kind's 15, 1 or 3 payloads (each divides 15, so payloads
    stay exactly uniform) and added to the location's first row.  Equal
    generators give equal fault lists; p = 0 draws nothing, and a window
    without faults draws no payloads.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    p = params.p
    if p == 0.0:
        return []
    locations = _round_model(circuit).locations
    # idles come last, so a round without them is a prefix
    per_round = len(locations) - (0 if include_idle else circuit.layout.n_data)
    hits = _faulty_locations(T * per_round, p, rng)
    if not hits:
        return []
    faults = []
    for position, draw in zip(hits, rng.integers(0, 15, size=len(hits)).tolist()):
        t, offset = divmod(position, per_round)
        first, payloads = locations[offset]
        faults.append((first + draw % payloads, t + 1))
    return faults


class _FramePlan(NamedTuple):
    """The schedule of one distance as shifts and masks on packed frames.

    A frame is a data integer (bit q: data qubit q) and an ancilla integer
    (bit ``(p >> 1) + L`` for an ancilla at grid position
    ``p = r * (2L - 1) + c``).  Data qubits hold the even positions, in
    index order, and ancillas the odd ones, and each CNOT layer joins every
    ancilla with the data qubit one fixed grid offset away, so a layer's
    pairs are ``data bit = ancilla bit - shift`` with one shift per layer
    (the ``+ L`` makes every shift nonnegative).
    """

    #: per CNOT layer: (shift, X-ancilla controls, Z-ancilla targets), the
    #: ancillas as masks on the ancilla integer
    layers: tuple[tuple[int, int, int], ...]
    x_anc: int  # ancilla-integer masks of all X- and all Z-ancillas
    z_anc: int
    x_cols: np.ndarray  # ancilla bit of each X- and Z-stabilizer, by index
    z_cols: np.ndarray
    #: per ancilla bit, (0, index) for a Z-stabilizer (an X-lattice node)
    #: and (1, index) for an X-stabilizer
    nodes: tuple[tuple[int, int] | None, ...]
    n_bytes: int  # bytes of one round's outcomes
    #: per fault row (``_RoundModel``): the step after which the fault acts
    #: (0-3 after that CNOT layer, 4 after the reset) and its XOR masks on
    #: the data X, ancilla X, data Z and ancilla Z integers, folded from the
    #: round model's flips
    effects: tuple[tuple[int, int, int, int, int], ...]


@_per_distance
def _frame_plan(circuit: SECircuit) -> _FramePlan:
    """The packed-frame plan of the circuit's distance, read off
    ``cnot_layers``, the layout's coordinates and the round model's flips."""
    layout = circuit.layout
    L, n_data = layout.L, layout.n_data
    span = 2 * L - 1
    # by global qubit index; the shifts come out as 2L-1, L, L-1 and 0
    bit = list(range(n_data)) + [
        ((r * span + c) >> 1) + L for r, c in layout.x_anc_coords + layout.z_anc_coords
    ]

    layers = []
    for cs, ts in circuit.cnot_layers:
        shifts, x_ctl, z_tgt = set(), 0, 0
        for c, t in zip(cs.tolist(), ts.tolist()):
            if c < n_data:  # data control, Z-ancilla target
                shifts.add(bit[t] - bit[c])
                z_tgt |= 1 << bit[t]
            else:  # X-ancilla control, data target
                shifts.add(bit[c] - bit[t])
                x_ctl |= 1 << bit[c]
        (shift,) = shifts  # one grid offset per layer
        layers.append((shift, x_ctl, z_tgt))

    x_cols = np.array(bit[n_data : n_data + circuit.n_x])
    z_cols = np.array(bit[n_data + circuit.n_x :])
    x_cols.flags.writeable = z_cols.flags.writeable = False  # shared by every caller
    nodes = [None] * (max(bit) + 1)
    for lattice, cols in enumerate((z_cols, x_cols)):
        for index, b in enumerate(cols.tolist()):
            nodes[b] = (lattice, index)

    # per fault row, its step and its masks, folded from its flips
    model = _round_model(circuit)
    effects = [[0] * 5 for _ in model.kind]
    for row, phase, q, x, z in zip(*(a.tolist() for a in model.flips)):
        e, on = effects[row], int(q >= n_data)
        e[0] = phase
        e[1 + on] |= x << bit[q]
        e[3 + on] |= z << bit[q]
    return _FramePlan(
        tuple(layers),
        sum(1 << b for b in x_cols.tolist()),
        sum(1 << b for b in z_cols.tolist()),
        x_cols,
        z_cols,
        tuple(nodes),
        (max(bit) + 8) // 8,
        tuple(map(tuple, effects)),
    )


def simulate(
    layout: CodeLayout,
    circuit: SECircuit,
    faults,
    T: int,
    final_round_perfect: bool = True,
    initial_error: PauliOperator | None = None,
) -> SyndromeHistory:
    """Propagate the given faults through T rounds of syndrome extraction.

    ``faults`` holds (row, round) pairs, as ``sample_faults`` gives them;
    a row outside the round model's rows or a round outside 1..T raises
    ``InvalidFaultError``.  An optional ``initial_error`` is applied to the
    data qubits before the first round.  When ``final_round_perfect`` is
    set, one fault-free syndrome readout of the residual error is appended
    (row T+1).

    Frames are packed integers (see ``_FramePlan``): a CNOT layer is four
    mask-shift-XORs, each fault is XORed in at its round and step, and the
    data integers left at the end are the residual's masks.
    """
    plan = _frame_plan(circuit)
    xd = zd = 0
    if initial_error is not None:
        if initial_error.n != layout.n_data:
            raise ValueError("initial error size does not match data-qubit count")
        xd, zd = initial_error.x_mask, initial_error.z_mask

    rounds = T + final_round_perfect
    inject: list = [None] * (5 * rounds)  # masks at 5 * (round - 1) + step
    effects = plan.effects
    for row, t in faults:
        if not 0 <= row < len(effects):
            raise InvalidFaultError(f"no single fault at row {row} of the round")
        if not 1 <= t <= T:
            raise InvalidFaultError(f"fault round {t} outside 1..{T}")
        step, *masks = effects[row]
        slot = 5 * (t - 1) + step
        acc = inject[slot]
        inject[slot] = masks if acc is None else [a ^ m for a, m in zip(acc, masks)]

    outcomes = []
    layers, x_anc, z_anc = plan.layers, plan.x_anc, plan.z_anc
    for t in range(0, 5 * rounds, 5):
        xa = za = 0  # ancillas start each round reset
        for slot, (s, x_ctl, z_tgt) in enumerate(layers, t):
            xd ^= (xa & x_ctl) >> s
            za ^= (zd << s) & x_ctl
            xa ^= (xd << s) & z_tgt
            zd ^= (za & z_tgt) >> s
            acc = inject[slot]
            if acc:
                xd ^= acc[0]
                xa ^= acc[1]
                zd ^= acc[2]
                za ^= acc[3]
        outcomes.append((za & x_anc) | (xa & z_anc))
        acc = inject[t + 4]
        if acc:
            xd ^= acc[0]
            zd ^= acc[2]

    # detection events: an outcome that differs from the previous round's
    # (round 0 reads 0), rounds ascending, then stabilizers ascending
    events: tuple[list, list] = ([], [])
    previous, nodes = 0, plan.nodes
    for t, o in enumerate(outcomes, 1):
        flips, previous = o ^ previous, o
        while flips:
            low = flips & -flips
            lattice, index = nodes[low.bit_length() - 1]
            events[lattice].append((index, t))
            flips ^= low

    n = plan.n_bytes
    packed = np.frombuffer(b"".join(o.to_bytes(n, "little") for o in outcomes), np.uint8)
    bits = np.unpackbits(packed, bitorder="little").reshape(len(outcomes), 8 * n)
    return SyndromeHistory(
        T=T,
        x_anc_outcomes=bits[:, plan.x_cols],
        z_anc_outcomes=bits[:, plan.z_cols],
        x_lattice_events=tuple(events[0]),
        z_lattice_events=tuple(events[1]),
        residual=PauliOperator(layout.n_data, xd, zd),
    )


@dataclass(eq=False, repr=False)
class FaultTable:
    """Single faults with their detection signatures and residuals, as columns.

    Row i is one fault: its round, its kind as a position in
    ``FAULT_KINDS``, its location index and payload (as in ``FaultEvent``),
    its sorted (stabilizer, round) X- and Z-lattice events, the data-qubit
    X and Z masks of its residual error after all rounds, and (``units``)
    its first-order rate in units of p/15.  ``len()`` counts the faults.
    """

    round: np.ndarray
    kind: np.ndarray
    index: np.ndarray
    payload: np.ndarray
    x_events: list[tuple[tuple[int, int], ...]]
    z_events: list[tuple[tuple[int, int], ...]]
    x_residual: list[int]
    z_residual: list[int]
    units: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.units = RATE_UNITS[self.kind]

    def __len__(self) -> int:
        return len(self.round)

    def faults(self) -> list[FaultEvent]:
        """The rows in readable form, as ``FaultEvent`` objects."""
        columns = (self.round, self.kind, self.index, self.payload)
        return [
            FaultEvent(t, FAULT_KINDS[k], i, pay)
            for t, k, i, pay in zip(*(c.tolist() for c in columns))
        ]


#: fault columns propagated together, 64 to a word: each frame matrix of a
#: block holds 512 bytes per qubit, whatever the number of faults
_BLOCK = 4096


def _round_signatures(circuit: SECircuit, include_idle: bool) -> FaultTable:
    """Every single fault of round 1 with its detection events and residual.

    Rows follow the round model (``_RoundModel``), idles only with
    ``include_idle``; the (kind, index, payload) columns and every fault's
    flips are the model's, less the idle rows that end it when
    ``include_idle`` is off.

    Every fault gets its own column of the X and Z frame matrices, and all
    columns go through the round together: the four CNOT layers (each
    followed by that layer's CNOT faults and, after the last, the
    measurement flips), the measurement, the ancilla reset, the idle
    faults, and one fault-free readout round.  Frames are linear, so each
    column is that fault's own frame.  A fault of round 1 detects only in
    rounds 1 and 2: from round 2 on the frame is a data error that every
    later round, perfect or not, reads the same.

    Columns are bit-packed, ``_BLOCK`` at a time, into rows of ``uint64``
    words per qubit (Pauli frames packed into machine words, as Stim's
    frame simulator packs shots; Gidney, arXiv:2103.02202): a CNOT layer
    is two row XORs, and each fault is one or two (qubit, word, bit) XORs.
    """
    model = _round_model(circuit)
    n_data = circuit.layout.n_data
    n = len(model.kind) - (0 if include_idle else 3 * n_data)  # idles: 3 rows each
    # a fault's row is its column of the frame matrices
    keep = model.flips[0] < n
    col, phase, qubit, fx, fz = (a[keep] for a in model.flips)
    slots = 5 * -(-n // _BLOCK)
    # per frame, its flips sorted by (block, phase) slot, and each slot's bounds
    sparse = []
    for flag in (fx, fz):
        c, q = col[flag], qubit[flag]
        slot = c // _BLOCK * 5 + phase[flag]
        order = np.argsort(slot, kind="stable")
        c, q = c[order], q[order]
        bounds = np.searchsorted(slot[order], np.arange(slots + 1)).tolist()
        bit = np.uint64(1) << (c % 64).astype(np.uint64)
        sparse.append((q, c % _BLOCK // 64, bit, bounds))

    anc = np.concatenate([circuit.x_anc_global, circuit.z_anc_global])
    x_events, z_events, x_res, z_res = [], [], [], []
    for lo in range(0, n, _BLOCK):
        width = min(_BLOCK, n - lo)
        # little-endian words, so ``_set_bits`` reads bit b of word w from
        # byte b // 8 of its bytes: column 64 w + b of the block
        x = np.zeros((circuit.n_qubits, -(-width // 64)), dtype="<u8")
        z = np.zeros_like(x)

        def inject(ph):
            s = lo // _BLOCK * 5 + ph
            for frame, (q, word, bit, bounds) in zip((x, z), sparse):
                k = slice(bounds[s], bounds[s + 1])
                np.bitwise_xor.at(frame, (q[k], word[k]), bit[k])

        outcomes = []
        for faulty in (True, False):
            for k, (cs, ts) in enumerate(circuit.cnot_layers):
                x[ts] ^= x[cs]
                z[cs] ^= z[ts]
                if faulty:
                    inject(k)
            outcomes.append((z[circuit.x_anc_global], x[circuit.z_anc_global]))
            x[anc] = 0
            z[anc] = 0
            if faulty:
                inject(4)
        (ox1, oz1), (ox2, oz2) = outcomes
        # X-type errors show on Z-ancillas and vice versa
        x_events += _column_events(oz1, oz1 ^ oz2, width)
        z_events += _column_events(ox1, ox1 ^ ox2, width)
        x_res += _column_masks(x[:n_data], width)
        z_res += _column_masks(z[:n_data], width)
    rows = (model.kind[:n], model.index[:n], model.payload[:n])
    return FaultTable(np.ones(n, np.int64), *rows, x_events, z_events, x_res, z_res)


def _set_bits(frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of every set bit of a (rows, words) packed frame, rows
    ascending, then columns; only nonzero words are unpacked."""
    rows, words = np.nonzero(frame)
    bits = np.unpackbits(frame[rows, words].view(np.uint8), bitorder="little")
    k, b = np.nonzero(bits.reshape(len(rows), 64))
    return rows[k], words[k] * 64 + b


def _column_events(first: np.ndarray, second: np.ndarray, width: int) -> list[tuple]:
    """Per column, the sorted (row, round) events of two packed rounds."""
    n = 2 * len(first)
    r1, c1 = _set_bits(first)
    r2, c2 = _set_bits(second)
    # an event is 2 * row + round - 1 past n * column, so one sort orders
    # the events by column, then row, then round
    keys = np.sort(np.concatenate([c1 * n + 2 * r1, c2 * n + 2 * r2 + 1]))
    events = [(row, t) for row in range(n // 2) for t in (1, 2)]
    pairs = [events[k] for k in (keys % n).tolist()]
    ends = np.cumsum(np.bincount(keys // n, minlength=width)).tolist()
    return [tuple(pairs[a:b]) for a, b in zip([0] + ends, ends)]


def _column_masks(frame: np.ndarray, width: int) -> list[int]:
    """Per column, the integer bit mask of a packed (qubits, words) frame."""
    masks = [0] * width
    for q, j in zip(*(a.tolist() for a in _set_bits(frame))):
        masks[j] |= 1 << q
    return masks


@contextlib.contextmanager
def _collector_paused():
    """Turn CPython's cyclic garbage collector off for the block; nesting-safe.

    On exit the collector is turned back on only if it was on at entry.
    Fault tables and decoding graphs allocate several objects per single
    fault and leave no reference cycles, yet those allocations set off
    gen-2 passes that each walk the whole heap: ~43,000 tracked objects
    after importing numpy and scipy, 8-15 ms a pass on a shared 2-core
    machine (Python 3.11.7), and 8 passes in a cold d=17 build.  Never use
    it around decoding: blossom's recursive closures leave cycles on every
    call, and with the collector off ``life-d5`` decodes got slower (p50
    0.62 -> 0.66 ms, p90 1.21 -> 1.35 ms).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def enumerate_single_faults(
    circuit: SECircuit,
    T: int,
    include_idle: bool = True,
) -> FaultTable:
    """Every possible single fault once, with its signature and residual.

    The returned table covers every (round, location, payload) triple of
    the noise model exactly once, rounds ascending; within a round in row
    order (``_RoundModel``), idles only with ``include_idle``, the
    sampler's idle-noise switch.  Signatures are sorted event tuples; the linearity
    of frame propagation makes them the exact first-order detection
    pattern of the fault.

    One round is propagated (see ``_round_signatures``); single-fault
    signatures are time-translation invariant, so the fault of round t has
    the round-1 events shifted by t - 1 and the same residual.  The window
    closes with a perfect readout round T + 1, so no event is cut off.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    first = _round_signatures(circuit, include_idle)
    return FaultTable(
        np.arange(1, T + 1).repeat(len(first)),
        *(np.tile(column, T) for column in (first.kind, first.index, first.payload)),
        *(
            sigs + [tuple((s, r + k) for s, r in e) for k in range(1, T) for e in sigs]
            for sigs in (first.x_events, first.z_events)
        ),
        first.x_residual * T,
        first.z_residual * T,
    )
