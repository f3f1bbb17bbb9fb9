"""Planar surface-code layout and syndrome-extraction circuits.

Geometry
--------
Qubits sit on integer grid points (r, c) with r, c in [0, 2L-2]:

* data qubits where r + c is even (L^2 on the even/even sublattice plus
  (L-1)^2 on the odd/odd sublattice),
* X-type measurement qubits at (r odd, c even),
* Z-type measurement qubits at (r even, c odd).

Each measurement qubit is stabilized with its lattice neighbours to the
north (r-1), west (c-1), east (c+1) and south (r+1); boundary stabilizers
have weight 3.  Logical X is the top row of data qubits (horizontal,
weight L); logical Z is the left column (vertical, weight L).

Syndrome extraction
-------------------
One round has five time steps: four CNOT layers in N, W, E, S order
followed by a combined measure-and-reset step (measurement of this round
coincides with the ancilla preparation for the next).  X-ancillas are
prepared in |+>, act as CNOT controls and are measured in the X basis;
Z-ancillas are prepared in |0>, act as CNOT targets and are measured in
the Z basis.  Boundary stabilizers skip their missing neighbour but keep
the remaining gates in the same time steps.  Data qubits idle exactly once
per round, during the measure-and-reset step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .pauli import PauliOperator

# CNOT layer order within a round: ancilla's north, west, east, south data.
STEP_OFFSETS = ((-1, 0), (0, -1), (0, 1), (1, 0))
STEP_NAMES = ("n", "w", "e", "s")


class InvalidDistanceError(ValueError):
    """Requested code distance is not supported."""


@dataclass(frozen=True)
class CodeLayout:
    """Static description of the [[L^2+(L-1)^2, 1, L]] surface code."""

    L: int
    data_coords: tuple[tuple[int, int], ...]
    x_anc_coords: tuple[tuple[int, int], ...]
    z_anc_coords: tuple[tuple[int, int], ...]
    x_stabilizers: tuple[tuple[int, ...], ...]
    z_stabilizers: tuple[tuple[int, ...], ...]
    logical_x: PauliOperator
    logical_z: PauliOperator
    data_index: dict[tuple[int, int], int] = field(repr=False)

    @property
    def n_data(self) -> int:
        return len(self.data_coords)

    @cached_property
    def stabilizer_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Data-qubit bit masks of the X- and Z-type stabilizer supports,
        built once per layout."""
        return tuple(
            tuple(sum(1 << q for q in support) for support in stabilizers)
            for stabilizers in (self.x_stabilizers, self.z_stabilizers)
        )

    def stabilizer_pauli(self, kind: str, idx: int) -> PauliOperator:
        """The idx-th X- or Z-type stabilizer generator as a Pauli."""
        x_masks, z_masks = self.stabilizer_masks
        if kind == "x":
            return PauliOperator(self.n_data, x_masks[idx], 0)
        return PauliOperator(self.n_data, 0, z_masks[idx])

    def all_stabilizers(self) -> list[PauliOperator]:
        """X-type generators first, then Z-type; matches syndrome bit order."""
        return [
            self.stabilizer_pauli("x", i) for i in range(len(self.x_stabilizers))
        ] + [self.stabilizer_pauli("z", i) for i in range(len(self.z_stabilizers))]


def build_layout(L: int) -> CodeLayout:
    """Construct the distance-L planar layout; requires L >= 2."""
    if not isinstance(L, int) or L < 2:
        raise InvalidDistanceError(f"distance must be an integer >= 2, got {L!r}")
    span = 2 * L - 1
    data, x_anc, z_anc = [], [], []
    for r in range(span):
        for c in range(span):
            if (r + c) % 2 == 0:
                data.append((r, c))
            elif r % 2 == 1:
                x_anc.append((r, c))
            else:
                z_anc.append((r, c))
    data_index = {rc: i for i, rc in enumerate(data)}

    def support(rc):
        r, c = rc
        return tuple(
            data_index[(r + dr, c + dc)]
            for dr, dc in STEP_OFFSETS
            if (r + dr, c + dc) in data_index
        )

    x_stabs = tuple(support(rc) for rc in x_anc)
    z_stabs = tuple(support(rc) for rc in z_anc)

    n = len(data)
    lx = 0
    for c in range(0, span, 2):
        lx |= 1 << data_index[(0, c)]
    lz = 0
    for r in range(0, span, 2):
        lz |= 1 << data_index[(r, 0)]

    return CodeLayout(
        L=L,
        data_coords=tuple(data),
        x_anc_coords=tuple(x_anc),
        z_anc_coords=tuple(z_anc),
        x_stabilizers=x_stabs,
        z_stabilizers=z_stabs,
        logical_x=PauliOperator(n, lx, 0),
        logical_z=PauliOperator(n, 0, lz),
        data_index=data_index,
    )


def ideal_syndrome(layout: CodeLayout, error: PauliOperator) -> list[int]:
    """Noiseless syndrome bits, X-stabilizer bits first then Z-stabilizer bits.

    An X-type stabilizer detects the error's Z part and a Z-type one its X
    part: each bit is the parity of the overlap with the stabilizer's mask.
    """
    if error.n != layout.n_data:
        raise ValueError(
            f"error acts on {error.n} qubits, layout has {layout.n_data} data qubits"
        )
    x_masks, z_masks = layout.stabilizer_masks
    return [(error.z_mask & m).bit_count() & 1 for m in x_masks] + [
        (error.x_mask & m).bit_count() & 1 for m in z_masks
    ]


@dataclass(frozen=True)
class SECircuit:
    """Compiled one-round syndrome-extraction schedule for a layout.

    Global qubit indices: data qubits 0..n_data-1 in layout order, then
    X-ancillas, then Z-ancillas.  ``cnot_layers[k]`` holds the step-k CNOT
    list as (controls, targets) index arrays; within a layer every qubit
    appears at most once, so layers apply as parallel gate sets.
    """

    layout: CodeLayout
    n_qubits: int
    x_anc_global: np.ndarray
    z_anc_global: np.ndarray
    cnot_layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    # (kind, stab_idx, data_idx) per CNOT, aligned with cnot_layers order
    cnot_meta: tuple[tuple[tuple[str, int, int], ...], ...]
    # (layer, control, target) per CNOT over the whole round, in layer order;
    # a CNOT fault's index points into this list
    cnot_flat: tuple[tuple[int, int, int], ...]

    time_steps_per_round: int = 5  # N, W, E, S, measure-and-reset

    @property
    def n_cnots_per_round(self) -> int:
        return len(self.cnot_flat)

    @property
    def n_x(self) -> int:
        return len(self.x_anc_global)

    @property
    def n_z(self) -> int:
        return len(self.z_anc_global)


def build_se_circuit(layout: CodeLayout) -> SECircuit:
    """Compile the five-step N/W/E/S schedule for all stabilizers in parallel."""
    n_data = layout.n_data
    n_x = len(layout.x_anc_coords)
    n_z = len(layout.z_anc_coords)
    x_anc_global = np.arange(n_data, n_data + n_x)
    z_anc_global = np.arange(n_data + n_x, n_data + n_x + n_z)

    layers = []
    meta = []
    for dr, dc in STEP_OFFSETS:
        controls, targets, step_meta = [], [], []
        # X-ancilla is control, data is target.
        for i, (r, c) in enumerate(layout.x_anc_coords):
            q = layout.data_index.get((r + dr, c + dc))
            if q is not None:
                controls.append(x_anc_global[i])
                targets.append(q)
                step_meta.append(("x", i, q))
        # Z-ancilla is target, data is control.
        for i, (r, c) in enumerate(layout.z_anc_coords):
            q = layout.data_index.get((r + dr, c + dc))
            if q is not None:
                controls.append(q)
                targets.append(z_anc_global[i])
                step_meta.append(("z", i, q))
        layers.append((np.array(controls, dtype=np.intp), np.array(targets, dtype=np.intp)))
        meta.append(tuple(step_meta))

    cnot_flat = tuple(
        (k, int(c), int(t))
        for k, (cs, ts) in enumerate(layers)
        for c, t in zip(cs, ts)
    )

    return SECircuit(
        layout=layout,
        n_qubits=n_data + n_x + n_z,
        x_anc_global=x_anc_global,
        z_anc_global=z_anc_global,
        cnot_layers=tuple(layers),
        cnot_meta=tuple(meta),
        cnot_flat=cnot_flat,
    )


def layout_to_dict(layout: CodeLayout, circuit: SECircuit) -> dict:
    """JSON-ready description of the layout and its schedule."""
    return {
        "distance": layout.L,
        "data_qubits": [list(rc) for rc in layout.data_coords],
        "x_measure_qubits": [list(rc) for rc in layout.x_anc_coords],
        "z_measure_qubits": [list(rc) for rc in layout.z_anc_coords],
        "x_stabilizers": [list(s) for s in layout.x_stabilizers],
        "z_stabilizers": [list(s) for s in layout.z_stabilizers],
        "logical_x": layout.logical_x.to_string(),
        "logical_z": layout.logical_z.to_string(),
        "schedule": {
            "time_steps_per_round": circuit.time_steps_per_round,
            "cnot_steps": [
                {
                    "step": STEP_NAMES[k],
                    "cnots": [
                        {"stabilizer": f"{kind}{idx}", "data": q}
                        for kind, idx, q in circuit.cnot_meta[k]
                    ],
                }
                for k in range(4)
            ],
        },
    }
