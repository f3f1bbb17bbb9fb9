"""Circuit-level depolarizing noise: sampling, single-fault propagation
and window simulation.

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

Propagation tracks X and Z frames through the Clifford schedule: a CNOT
copies X from control to target and Z from target to control.  Z-basis
ancilla outcomes read the X frame, X-basis outcomes read the Z frame;
ancillas are reset after each measurement.  Frames are exact for Pauli
faults on Clifford circuits, and the map from fault sets to detection
events is linear over GF(2).  The circuit is propagated in one place,
``_round_signatures``: every fault of one round in its own frame column,
giving its events and residual as one ``FaultTable`` of columns, built
once per distance (``_round_table``).

A fault is a (row, round) pair: its row among one round's faults, as the
round model numbers them, and its round 1..T.  ``sample_faults`` draws
such pairs, and by linearity a window is a read of the table: its events
are the symmetric difference of its faults' one-round signatures shifted
to their rounds, and its residual the XOR of their masks
(``window_signature``, which ``graph.DecodingGraph.window_events`` and
``simulate`` share; ``simulate`` adds an initial data error).
``FaultEvent`` is a fault's readable form, for listings.
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
    """A window's detection events and its residual error.

    ``x_lattice_events`` are detections of X-type errors, i.e. nodes
    (z_stabilizer_index, round); ``z_lattice_events`` are detections of
    Z-type errors on X-stabilizers.  Rounds run 1..T + 1 for a window of
    T noisy rounds, round T + 1 being its perfect readout, and events come
    rounds ascending, then stabilizers ascending.
    """

    x_lattice_events: tuple[tuple[int, int], ...]
    z_lattice_events: tuple[tuple[int, int], ...]
    residual: PauliOperator


class _RoundModel(NamedTuple):
    """One round's fault locations and the Pauli that each fault row applies.

    Rows follow ``FAULT_KINDS``, each kind's locations by index and each
    location's payloads in order, so a location's rows are contiguous and
    idles come last.  A fault is numbered by its row: ``sample_faults``
    draws a location of ``locations`` and one of its rows, and
    ``_round_signatures`` propagates ``flips`` as packed frame columns.
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
    _nodes: dict = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.units = RATE_UNITS[self.kind]

    def __len__(self) -> int:
        return len(self.round)

    def nodes(self, lattice: str, n_stabs: int) -> list[tuple[int, ...]]:
        """Per row, the ascending node ids ``(round - 1) * n_stabs +
        stabilizer`` of its events on the X or Z lattice, as the decoding
        graphs number nodes.  Derived once per lattice and kept, rows of one
        signature sharing one tuple: the graphs' and ``simulate``'s reading
        of a row."""
        key = lattice, n_stabs
        if key not in self._nodes:
            ids: dict[tuple, tuple[int, ...]] = {}
            rows = self._nodes[key] = []
            for sig in self.x_events if lattice == "X" else self.z_events:
                nodes = ids.get(sig)
                if nodes is None:
                    nodes = ids[sig] = tuple(sorted((t - 1) * n_stabs + s for s, t in sig))
                rows.append(nodes)
        return self._nodes[key]

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


def _round_signatures(circuit: SECircuit) -> FaultTable:
    """Every single fault of round 1 with its detection events and residual.

    Rows, their (kind, index, payload) columns and every fault's flips are
    the round model's (``_RoundModel``).  This is the one place where the
    circuit is propagated; ``_round_table`` keeps its result per distance.

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
    n = len(model.kind)
    # a fault's row is its column of the frame matrices
    col, phase, qubit, fx, fz = model.flips
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
    rows = (model.kind, model.index, model.payload)
    return FaultTable(np.ones(n, np.int64), *rows, x_events, z_events, x_res, z_res)


#: the round's single faults, propagated once per distance
#: (``_round_signatures``) and shared, read only, by the enumeration, the
#: decoding graphs built from it and ``simulate``
_round_table = _per_distance(_round_signatures)


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
    One round with idles is the shared round table itself, read only.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    first = _round_table(circuit)
    if T == 1 and include_idle:
        return first
    n = len(first) - (0 if include_idle else 3 * circuit.layout.n_data)  # idles last
    return FaultTable(
        np.arange(1, T + 1).repeat(n),
        *(np.tile(c[:n], T) for c in (first.kind, first.index, first.payload)),
        *(
            sigs + [tuple((s, r + k) for s, r in e) for k in range(1, T) for e in sigs]
            for sigs in (first.x_events[:n], first.z_events[:n])
        ),
        first.x_residual[:n] * T,
        first.z_residual[:n] * T,
    )


def window_signature(nodes, residuals, faults, T: int, n_stabs: int) -> tuple[list[int], int]:
    """Event node ids and residual mask of a window's faults on one lattice.

    ``nodes`` and ``residuals`` hold each round-1 fault's node ids and
    residual mask on the lattice (``FaultTable.nodes``), by row, and
    ``faults`` (row, round) pairs, as ``sample_faults`` gives them.  Frames
    are linear over GF(2): the events are the symmetric difference of the
    faults' round-1 nodes, each shifted by ``(round - 1) * n_stabs``, and
    the residual is the XOR of their masks.  Node ids ascend, rounds first,
    then stabilizers.  A row outside the table or a round outside 1..T
    raises ``InvalidFaultError``.
    """
    events: set[int] = set()
    residual = 0
    for row, t in faults:
        if not 0 <= row < len(nodes):
            raise InvalidFaultError(f"no single fault at row {row} of the table")
        if not 1 <= t <= T:
            raise InvalidFaultError(f"fault round {t} outside 1..{T}")
        shift = (t - 1) * n_stabs
        events.symmetric_difference_update([v + shift for v in nodes[row]])
        residual ^= residuals[row]
    return sorted(events), residual


@_per_distance
def _stabilizer_masks(circuit: SECircuit) -> tuple[list[int], list[int]]:
    """The data qubits of each Z- and of each X-stabilizer, as masks read
    off the round table: an idle X (Z) on data qubit q after round 1's
    reset is read in round 2 by the Z- (X-) stabilizers that hold q."""
    table = _round_table(circuit)
    idle = np.flatnonzero(table.kind == FAULT_KINDS.index("idle"))
    masks: tuple[list[int], list[int]] = ([0] * circuit.n_z, [0] * circuit.n_x)
    for stabs, events, payload in zip(masks, (table.x_events, table.z_events), (0, 2)):
        for row in idle[table.payload[idle] == payload].tolist():
            for s, _ in events[row]:
                stabs[s] |= 1 << int(table.index[row])
    return masks


def simulate(
    layout: CodeLayout,
    circuit: SECircuit,
    faults,
    T: int,
    initial_error: PauliOperator | None = None,
) -> SyndromeHistory:
    """Detection events and residual of T noisy rounds and a perfect readout.

    ``faults`` holds (row, round) pairs, as ``sample_faults`` gives them;
    a row outside the round model's rows or a round outside 1..T raises
    ``InvalidFaultError``.  An optional ``initial_error`` is applied to the
    data qubits before the first round.

    Frames are linear, so nothing is propagated here: each lattice's
    events and residual XOR the faults' rows of the round table, shifted
    to their rounds (``window_signature``).  An initial error adds its
    masks to the residual and, since round 0 reads no syndrome, the
    stabilizers it flips to round 1's events; they come from the table's
    idle rows (``_stabilizer_masks``), so that the result still shows
    what the circuit, not the code, measures.
    """
    table = _round_table(circuit)
    if initial_error is None:
        initial_error = PauliOperator.identity(layout.n_data)
    elif initial_error.n != layout.n_data:
        raise ValueError("initial error size does not match data-qubit count")
    lattices = []
    for lattice, residuals, n_stabs, stabs, mask in zip(
        "XZ",
        (table.x_residual, table.z_residual),
        (circuit.n_z, circuit.n_x),
        _stabilizer_masks(circuit),
        (initial_error.x_mask, initial_error.z_mask),
    ):
        nodes = table.nodes(lattice, n_stabs)
        nodes, residual = window_signature(nodes, residuals, faults, T, n_stabs)
        if mask:
            flipped = [s for s, m in enumerate(stabs) if (mask & m).bit_count() & 1]
            nodes = sorted(set(nodes).symmetric_difference(flipped))
        events = tuple((v % n_stabs, v // n_stabs + 1) for v in nodes)
        lattices.append((events, residual ^ mask))
    (x_events, x_mask), (z_events, z_mask) = lattices
    return SyndromeHistory(x_events, z_events, PauliOperator(layout.n_data, x_mask, z_mask))
