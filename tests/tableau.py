"""A stabilizer-tableau simulator of the syndrome circuit, as a test oracle.

The tableau is CHP's (Aaronson & Gottesman, Phys. Rev. A 70, 052328,
2004): destabilizer rows 0..n-1 and stabilizer rows n..2n-1 over n qubits,
their X and Z bits as bool arrays and one sign bit per row.  A Pauli fault
only flips the signs of the rows it anticommutes with, and every
measurement after the code state's preparation is deterministic, so the
bits evolve alike in every shot: ``Tableau`` keeps one sign column per
shot and runs a batch of windows through one gate sequence.

``run`` runs ``SECircuit.cnot_layers`` with explicit ancilla resets and X-
and Z-basis measurements, from a code state that one perfect round
prepares (its random outcomes fixed to +1).  Faults are inserted as the
Paulis that ``FaultEvent``'s docstring states; detection events are XORs
of consecutive measurement records, as Stim derives detectors from
measurement determinism (Gidney, Quantum 5, 497, 2021).  A reference
qubit entangled with the logical qubit makes X_L X_R and Z_L Z_R
stabilizers, so their signs after the closing perfect round give each
window's logical action.  Nothing here reads ``surfdec.noise``.
"""

from __future__ import annotations

import numpy as np


def _phase(x1, z1, x2, z2):
    """Per row, the summed exponent of i that multiplying the Paulis
    (x1, z1) and (x2, z2) picks up: CHP's g summed over the qubits."""
    x1, z1, x2, z2 = (np.asarray(a, dtype=np.int64) for a in (x1, z1, x2, z2))
    g = x1 * z1 * (z2 - x2) + x1 * (1 - z1) * z2 * (2 * x2 - 1)
    g += (1 - x1) * z1 * x2 * (1 - 2 * z2)
    return g.sum(axis=-1)


class Tableau:
    """n qubits in |0>, with ``shots`` sign columns."""

    def __init__(self, n: int, shots: int):
        self.n = n
        eye = np.eye(n, dtype=bool)
        self.x = np.concatenate([eye, np.zeros_like(eye)])
        self.z = np.concatenate([np.zeros_like(eye), eye])
        self.r = np.zeros((2 * n, shots), dtype=bool)

    def h(self, qubits) -> None:
        x, z = self.x[:, qubits], self.z[:, qubits]
        self.r ^= ((x & z).sum(axis=1) % 2 == 1)[:, None]
        self.x[:, qubits], self.z[:, qubits] = z, x

    def cnot(self, controls, targets) -> None:
        """CNOTs on distinct qubits, applied together."""
        xc, zc = self.x[:, controls], self.z[:, controls]
        xt, zt = self.x[:, targets], self.z[:, targets]
        self.r ^= ((xc & zt & ~(xt ^ zc)).sum(axis=1) % 2 == 1)[:, None]
        self.x[:, targets] ^= xc
        self.z[:, controls] ^= zt

    def apply(self, shot: int, qubit: int, px: bool, pz: bool) -> None:
        """X^px Z^pz on one qubit of one shot."""
        self.r[:, shot] ^= (self.x[:, qubit] & pz) ^ (self.z[:, qubit] & px)

    def reset(self, qubit: int, outcome: np.ndarray) -> None:
        """X on the qubit in every shot whose outcome is 1, after measuring it."""
        self.r ^= self.z[:, qubit, None] & outcome

    def _anticommute(self, px, pz) -> np.ndarray:
        return ((self.x & pz).sum(axis=1) + (self.z & px).sum(axis=1)) % 2 == 1

    def measure(self, px, pz) -> np.ndarray:
        """Measure the Pauli product X^px Z^pz (bool vectors over the qubits);
        returns each shot's outcome, True for -1.  A random outcome is
        fixed to +1 in every shot."""
        n = self.n
        anti = self._anticommute(px, pz)
        if anti[n:].any():  # random: the first anticommuting stabilizer row
            p = n + int(np.flatnonzero(anti[n:])[0])
            for h in np.flatnonzero(anti).tolist():
                if h != p:
                    c = _phase(self.x[p], self.z[p], self.x[h], self.z[h]) % 4 // 2
                    self.r[h] ^= self.r[p] ^ bool(c)
                    self.x[h] ^= self.x[p]
                    self.z[h] ^= self.z[p]
            self.x[p - n], self.z[p - n], self.r[p - n] = self.x[p], self.z[p], self.r[p]
            self.x[p], self.z[p], self.r[p] = px, pz, False
            return self.r[p].copy()
        # deterministic: the product of the stabilizers whose destabilizers
        # anticommute with the Pauli, accumulated row by row
        rows = n + np.flatnonzero(anti[:n])
        xs, zs = self.x[rows], self.z[rows]
        hx = np.bitwise_xor.accumulate(xs, axis=0)
        hz = np.bitwise_xor.accumulate(zs, axis=0)
        before_x = np.vstack([np.zeros((1, n), bool), hx[:-1]])
        before_z = np.vstack([np.zeros((1, n), bool), hz[:-1]])
        total = int(_phase(xs, zs, before_x, before_z).sum())
        assert total % 2 == 0 and (hx[-1] == px).all() and (hz[-1] == pz).all()
        return (self.r[rows].sum(axis=0) % 2 == 1) ^ (total % 4 == 2)


_PAULI_BITS = {1: (True, False), 2: (True, True), 3: (False, True)}  # X, Y, Z


def _fault_paulis(circuit, fault):
    """(slot, qubit, Pauli 1-3) of each qubit a ``FaultEvent`` acts on, slot k
    after CNOT layer k and 4 in the measure-and-reset step, as its
    docstring states the kinds; a measurement fault acts on no qubit."""
    if fault.kind == "idle":  # data qubit, payload 0, 1, 2 = X, Y, Z
        return [(4, fault.index, fault.payload + 1)]
    if fault.kind == "cnot":  # payload = (P_control, P_target) - 1 in base 4
        layer, control, target = circuit.cnot_flat[fault.index]
        pc, pt = divmod(fault.payload + 1, 4)
        return [(layer, q, p) for q, p in ((control, pc), (target, pt)) if p]
    return []


def run(circuit, windows, T: int, initial_errors=None):
    """Each window of ``FaultEvent`` faults through T noisy rounds and a
    perfect one, all windows as shots of one tableau.

    ``initial_errors`` holds one (X mask, Z mask) data error per window,
    applied before round 1.  Returns per window its sorted (stabilizer,
    round) events on the X lattice (Z-stabilizers) and on the Z lattice
    (X-stabilizers), and whether X_L and Z_L flipped sign: the logical
    action of its residual error.
    """
    layout = circuit.layout
    n_data, shots = layout.n_data, len(windows)
    x_anc, z_anc = circuit.x_anc_global.tolist(), circuit.z_anc_global.tolist()
    ancillas = x_anc + z_anc
    ref = circuit.n_qubits
    n = ref + 1
    t = Tableau(n, shots)
    # the reference and the logical qubit in a Bell pair: X_R, then CNOTs
    # from the reference onto X_L's support
    lx = [q for q in range(n_data) if layout.logical_x.x_mask >> q & 1]
    lz = [q for q in range(n_data) if layout.logical_z.z_mask >> q & 1]
    t.h([ref])
    for q in lx:
        t.cnot([ref], [q])

    paulis, flips = {}, {}
    for shot, faults in enumerate(windows):
        for f in faults:
            for slot, q, p in _fault_paulis(circuit, f):
                paulis.setdefault((f.round, slot), []).append((shot, q, p))
            if f.kind in ("meas_x", "meas_z"):
                pos = f.index + (len(x_anc) if f.kind == "meas_z" else 0)
                flips.setdefault(f.round, []).append((pos, shot))

    def inject(rnd, slot):
        for shot, q, p in paulis.get((rnd, slot), ()):
            t.apply(shot, q, *_PAULI_BITS[p])

    def support(qubits):
        bits = np.zeros(n, dtype=bool)
        bits[qubits] = True
        return bits

    none = support([])

    records = []
    for rnd in range(T + 2):  # round 0 prepares, round T + 1 reads out
        t.h(x_anc)  # X-ancillas from |0> to |+>
        for k, (cs, ts) in enumerate(circuit.cnot_layers):
            t.cnot(cs, ts)
            inject(rnd, k)
        t.h(x_anc)  # X-basis measurement as a Z-basis one
        inject(rnd, 4)
        outcomes = np.array([t.measure(none, support([a])) for a in ancillas])
        for a, outcome in zip(ancillas, outcomes):
            t.reset(a, outcome)
        for pos, shot in flips.get(rnd, ()):
            outcomes[pos, shot] ^= True
        records.append(outcomes)
        if rnd == 0 and initial_errors is not None:
            for shot, (xm, zm) in enumerate(initial_errors):
                for q in range(n_data):
                    if xm >> q & 1 or zm >> q & 1:
                        t.apply(shot, q, bool(xm >> q & 1), bool(zm >> q & 1))

    events = np.array(records[1:]) ^ np.array(records[:-1])  # (round, ancilla, shot)
    x_lattice = events[:, len(x_anc) :]
    z_lattice = events[:, : len(x_anc)]
    flip_x = t.measure(support(lx + [ref]), none)
    flip_z = t.measure(none, support(lz + [ref]))
    return [
        (
            *(
                tuple(sorted((int(s), int(r) + 1) for r, s in zip(*np.nonzero(ev[..., shot]))))
                for ev in (x_lattice, z_lattice)
            ),
            bool(flip_x[shot]),
            bool(flip_z[shot]),
        )
        for shot in range(shots)
    ]
