import itertools
import random

import numpy as np
import pytest

from surfdec.code import (
    InvalidDistanceError,
    build_layout,
    build_se_circuit,
    ideal_syndrome,
    layout_to_dict,
)
from surfdec.noise import simulate
from surfdec.pauli import PauliOperator, commutation_parity, multiply, weight


def gf2_rank(rows: list[int]) -> int:
    """Row rank of bit-mask rows over GF(2) by Gaussian elimination."""
    rank = 0
    basis: list[int] = []
    for row in rows:
        cur = row
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
            basis.sort(reverse=True)
            rank += 1
    return rank


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_qubit_counts(L):
    lay = build_layout(L)
    assert lay.n_data == L * L + (L - 1) * (L - 1)
    assert len(lay.x_anc_coords) + len(lay.z_anc_coords) == lay.n_data - 1


def test_distance_3_counts():
    lay = build_layout(3)
    assert lay.n_data == 13
    assert len(lay.x_anc_coords) + len(lay.z_anc_coords) == 12
    assert len(lay.x_stabilizers) == 6
    assert len(lay.z_stabilizers) == 6


def test_distance_2_counts():
    assert build_layout(2).n_data == 5


def test_invalid_distance():
    with pytest.raises(InvalidDistanceError):
        build_layout(1)


def test_stabilizer_generators_independent():
    # 12 independent generators for L=3, checked by symplectic GF(2) rank
    lay = build_layout(3)
    rows = [
        (s.x_mask << lay.n_data) | s.z_mask for s in lay.all_stabilizers()
    ]
    assert gf2_rank(rows) == 12


@pytest.mark.parametrize("L", [2, 3, 4])
def test_stabilizers_commute(L):
    lay = build_layout(L)
    stabs = lay.all_stabilizers()
    for a, b in itertools.combinations(stabs, 2):
        assert commutation_parity(a, b) == 0


@pytest.mark.parametrize("L", [2, 3, 4])
def test_logicals(L):
    lay = build_layout(L)
    assert weight(lay.logical_x) == L
    assert weight(lay.logical_z) == L
    assert commutation_parity(lay.logical_x, lay.logical_z) == 1
    for s in lay.all_stabilizers():
        assert commutation_parity(lay.logical_x, s) == 0
        assert commutation_parity(lay.logical_z, s) == 0


@pytest.mark.parametrize("L", [2, 3])
def test_exhaustive_distance(L):
    # no Pauli of weight < L is an undetected logical operator
    lay = build_layout(L)
    n = lay.n_data
    stabs = lay.all_stabilizers()
    singles = [
        PauliOperator.single(n, q, k) for q in range(n) for k in "XYZ"
    ]
    candidates = list(singles)
    if L > 2:
        candidates += [
            multiply(a, b)
            for a, b in itertools.combinations(singles, 2)
            if weight(multiply(a, b)) == 2
        ]
    for err in candidates:
        trivial_syndrome = all(
            commutation_parity(err, s) == 0 for s in stabs
        )
        if trivial_syndrome:
            assert commutation_parity(err, lay.logical_x) == 0
            assert commutation_parity(err, lay.logical_z) == 0


def test_cnot_count_distance_3():
    lay = build_layout(3)
    circ = build_se_circuit(lay)
    weight3 = sum(
        1 for s in list(lay.x_stabilizers) + list(lay.z_stabilizers) if len(s) == 3
    )
    assert circ.n_cnots_per_round == 12 * 4 - weight3


def test_five_time_steps():
    circ = build_se_circuit(build_layout(3))
    assert circ.time_steps_per_round == 5
    assert len(circ.cnot_layers) == 4


def test_cnot_layers_collision_free():
    circ = build_se_circuit(build_layout(5))
    for cs, ts in circ.cnot_layers:
        touched = list(cs) + list(ts)
        assert len(touched) == len(set(touched))


def test_ideal_syndrome_identity(layout3):
    assert ideal_syndrome(layout3, PauliOperator.identity(13)) == [0] * 12


def test_ideal_syndrome_logical_is_invisible(layout3):
    assert ideal_syndrome(layout3, layout3.logical_x) == [0] * 12
    assert ideal_syndrome(layout3, layout3.logical_z) == [0] * 12


def test_ideal_syndrome_interior_y(layout3):
    # the central data qubit touches two stabilizers of each type
    q = layout3.data_index[(2, 2)]
    syn = ideal_syndrome(layout3, PauliOperator.single(13, q, "Y"))
    n_x = len(layout3.x_stabilizers)
    assert sum(syn[:n_x]) == 2
    assert sum(syn[n_x:]) == 2


@pytest.mark.parametrize("L", [2, 3, 5, 7])
def test_ideal_syndrome_is_the_parity_over_each_support(L):
    # an X-type stabilizer flips with the error's Z parts on its support, a
    # Z-type one with its X parts; counted qubit by qubit here
    layout = build_layout(L)
    n = layout.n_data
    rng = random.Random(L)
    errors = [PauliOperator.single(n, q, k) for q in range(n) for k in "XYZ"]
    errors += [
        PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(300)
    ]
    for err in errors:
        want = [
            sum(mask >> q & 1 for q in support) % 2
            for supports, mask in ((layout.x_stabilizers, err.z_mask),
                                   (layout.z_stabilizers, err.x_mask))
            for support in supports
        ]
        assert ideal_syndrome(layout, err) == want


def test_ideal_syndrome_dimension_error(layout3):
    with pytest.raises(ValueError):
        ideal_syndrome(layout3, PauliOperator.identity(5))


def test_noiseless_round_reproduces_ideal_syndrome(layout3, circuit3):
    rng = np.random.default_rng(123)
    n = layout3.n_data
    for _ in range(1000):
        err = PauliOperator(
            n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n))
        )
        hist = simulate(layout3, circuit3, [], 1, False, initial_error=err)
        got = list(hist.x_anc_outcomes[0]) + list(hist.z_anc_outcomes[0])
        assert got == ideal_syndrome(layout3, err)


def test_noiseless_round_zero_syndrome(layout5, circuit5):
    hist = simulate(layout5, circuit5, [], 2, False)
    assert not hist.x_lattice_events and not hist.z_lattice_events


def test_single_x_error_flags_adjacent_z_ancillas(layout3, circuit3):
    for q in range(layout3.n_data):
        err = PauliOperator.single(13, q, "X")
        hist = simulate(layout3, circuit3, [], 1, False, initial_error=err)
        n_x = len(layout3.x_stabilizers)
        expected = ideal_syndrome(layout3, err)[n_x:]
        assert list(hist.z_anc_outcomes[0]) == expected
        assert not hist.x_anc_outcomes[0].any()


def test_layout_dump_schema(layout3, circuit3):
    d = layout_to_dict(layout3, circuit3)
    assert d["distance"] == 3
    assert len(d["data_qubits"]) == 13
    assert len(d["schedule"]["cnot_steps"]) == 4
    steps = [s["step"] for s in d["schedule"]["cnot_steps"]]
    assert steps == ["n", "w", "e", "s"]
