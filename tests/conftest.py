import os

import pytest

from surfdec import build_layout, build_se_circuit
from surfdec.graph import build_code_capacity_pair, build_decoder_graphs
from surfdec.noise import FAULT_KINDS, _round_model


def full_mode() -> bool:
    """Acceptance tests run desk-scale trial counts when SURFDEC_ACCEPTANCE=full."""
    return os.environ.get("SURFDEC_ACCEPTANCE", "smoke").lower() == "full"


_ROWS: dict[int, dict[tuple[int, int, int], int]] = {}  # per distance


def fault_rows(circuit, faults) -> list[tuple[int, int]]:
    """Each ``FaultEvent`` as the (row, round) pair that ``simulate`` and
    ``window_events`` take.

    The row is looked up in the round model's (kind, index, payload)
    columns, not computed the way the sampler computes it; a fault with no
    row raises ``KeyError``.
    """
    L = circuit.layout.L
    if L not in _ROWS:
        model = _round_model(circuit)
        keys = zip(model.kind.tolist(), model.index.tolist(), model.payload.tolist())
        _ROWS[L] = {key: row for row, key in enumerate(keys)}
    rows = _ROWS[L]
    return [
        (rows[FAULT_KINDS.index(f.kind), f.index, f.payload], f.round) for f in faults
    ]


@pytest.fixture(scope="session")
def layout3():
    return build_layout(3)


@pytest.fixture(scope="session")
def circuit3(layout3):
    return build_se_circuit(layout3)


@pytest.fixture(scope="session")
def layout5():
    return build_layout(5)


@pytest.fixture(scope="session")
def circuit5(layout5):
    return build_se_circuit(layout5)


@pytest.fixture(scope="session")
def graphs3():
    """L=3, T=3 circuit-level lattices at p=0.01."""
    return build_decoder_graphs(3, 3, 0.01)


@pytest.fixture(scope="session")
def graphs5():
    """L=5, T=3 circuit-level lattices at p=0.001."""
    return build_decoder_graphs(5, 3, 0.001)


@pytest.fixture(scope="session")
def cc_pair3():
    return build_code_capacity_pair(3)


@pytest.fixture(scope="session")
def cc_pair5():
    return build_code_capacity_pair(5)
