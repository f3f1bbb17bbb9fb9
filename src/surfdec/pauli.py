"""Bit-mask Pauli algebra.

An n-qubit Pauli (up to global phase) is a pair of length-n bit vectors:
qubit k carries X iff bit k of ``x_mask`` is set, Z iff bit k of ``z_mask``
is set, and Y iff both are set.  Masks are packed into Python integers, so
all group operations are single big-int instructions.  Phases are never
tracked; decoding is phase-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_CHAR = {v: k for k, v in _CHAR_TO_BITS.items()}


class DimensionError(ValueError):
    """Operands act on different numbers of qubits."""


@dataclass(frozen=True)
class PauliOperator:
    """Immutable n-qubit Pauli stored as (x_mask, z_mask) bit vectors."""

    n: int
    x_mask: int = 0
    z_mask: int = 0

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        full = (1 << self.n) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask has bits beyond qubit count")

    @classmethod
    def identity(cls, n: int) -> PauliOperator:
        return cls(n, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str) -> PauliOperator:
        """Single-qubit Pauli of the given kind ('X', 'Y' or 'Z') at ``qubit``."""
        xb, zb = _CHAR_TO_BITS[kind]
        return cls(n, xb << qubit, zb << qubit)

    @classmethod
    def from_string(cls, s: str) -> PauliOperator:
        """Parse a string over {I,X,Y,Z}; character 0 acts on qubit 0."""
        x = z = 0
        for k, ch in enumerate(s):
            try:
                xb, zb = _CHAR_TO_BITS[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli character {ch!r}") from None
            x |= xb << k
            z |= zb << k
        return cls(len(s), x, z)

    def to_string(self) -> str:
        return "".join(
            _BITS_TO_CHAR[(self.x_mask >> k) & 1, (self.z_mask >> k) & 1]
            for k in range(self.n)
        )

    def __str__(self) -> str:
        return self.to_string()

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0


def weight(p: PauliOperator) -> int:
    """Number of nontrivial tensor factors (size of the support)."""
    return (p.x_mask | p.z_mask).bit_count()


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Product up to global phase: component-wise XOR of the masks."""
    if p.n != q.n:
        raise DimensionError(f"qubit counts differ: {p.n} != {q.n}")
    return PauliOperator(p.n, p.x_mask ^ q.x_mask, p.z_mask ^ q.z_mask)


def commutation_parity(p: PauliOperator, q: PauliOperator) -> int:
    """Symplectic inner product parity: 0 if P and Q commute, 1 otherwise."""
    if p.n != q.n:
        raise DimensionError(f"qubit counts differ: {p.n} != {q.n}")
    return ((p.x_mask & q.z_mask).bit_count() + (p.z_mask & q.x_mask).bit_count()) & 1
