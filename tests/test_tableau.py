"""The stabilizer-tableau oracle (``tableau``) on its own, and on windows
too large for every run of the suite."""

import ast
from pathlib import Path

import numpy as np
import pytest

import tableau
from conftest import full_mode
from surfdec.code import build_layout, build_se_circuit, ideal_syndrome
from surfdec.noise import enumerate_single_faults
from surfdec.pauli import PauliOperator, commutation_parity


def test_oracle_imports_nothing_from_the_library():
    # it is handed circuits and ``FaultEvent``s, and reads no fault table
    tree = ast.parse(Path(tableau.__file__).read_text())
    modules = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (
            [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
        )
    ]
    assert modules == ["__future__", "numpy"]


@pytest.mark.parametrize("L", [3, 5])
def test_fault_free_windows_are_silent(L):
    circuit = build_se_circuit(build_layout(L))
    for T in (1, 2, 3):
        assert tableau.run(circuit, [[]], T) == [((), (), False, False)]


@pytest.mark.parametrize("L", [3, 4, 5])
def test_a_data_error_reads_its_ideal_syndrome_and_logical_action(L):
    # an error before round 1 shows once, in round 1, at the stabilizers of
    # its ideal syndrome, and flips the logicals it anticommutes with
    layout = build_layout(L)
    circuit = build_se_circuit(layout)
    n, n_x = layout.n_data, circuit.n_x
    rng = np.random.default_rng([13, L])
    errors = [
        tuple(int.from_bytes(rng.bytes(n // 8 + 1), "little") % (1 << n) for _ in "xz")
        for _ in range(40)
    ]
    got = tableau.run(circuit, [[] for _ in errors], 2, errors)
    for (x, z), shot in zip(errors, got):
        error = PauliOperator(n, x, z)
        syndrome = ideal_syndrome(layout, error)
        assert shot == (
            tuple((s, 1) for s in range(circuit.n_z) if syndrome[n_x + s]),
            tuple((s, 1) for s in range(n_x) if syndrome[s]),
            bool(commutation_parity(error, layout.logical_x)),
            bool(commutation_parity(error, layout.logical_z)),
        )


@pytest.mark.skipif(not full_mode(), reason="desk-scale: SURFDEC_ACCEPTANCE=full")
@pytest.mark.parametrize("L, T", [(5, 5), (9, 1)])
def test_every_single_fault_of_a_larger_window(L, T):
    # the tier-1 sweeps stop at d=5 with T=3 and d=7 with T=1
    layout = build_layout(L)
    circuit = build_se_circuit(layout)
    table = enumerate_single_faults(circuit, T)
    faults = table.faults()
    got = tableau.run(circuit, [[f] for f in faults], T)
    lx, lz = layout.logical_x.x_mask, layout.logical_z.z_mask
    columns = (table.x_events, table.z_events, table.x_residual, table.z_residual)
    want = [
        (x, z, (zr & lx).bit_count() % 2 == 1, (xr & lz).bit_count() % 2 == 1)
        for x, z, xr, zr in zip(*columns)
    ]
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, (len(bad), faults[bad[0]], got[bad[0]], want[bad[0]])
