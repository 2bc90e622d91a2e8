"""Dense statevector simulator core.

States live in the computational basis with qubit 1 as the most significant
bit of the basis index.  All operations are pure: they return new states and
never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ising import _check_register_size

NORM_ATOL = 1e-12

SQRT2 = np.sqrt(2.0)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_PAULIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


def pauli(axis: str) -> np.ndarray:
    """Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        return _PAULIS[axis]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


@dataclass(frozen=True)
class Statevector:
    """Normalized amplitudes over 2**n_qubits computational basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_register_size(self.n_qubits)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_ATOL:  # NaN fails too
            raise ValueError(f"state is not normalized: |amps|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


def fidelity(a: Statevector, b: Statevector) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("fidelity requires states on the same number of qubits")
    return _fidelities(a.amplitudes, b.amplitudes[None])[0]


def _fidelities(reference: np.ndarray, rows: np.ndarray) -> list[float]:
    """|<reference|row>|^2 of each row of a (k, dim) array, in one vecdot.

    vecdot makes, per row, the BLAS call that vdot makes on that row, with
    the operands' own strides, so each value has vdot's bits.  A contiguous
    copy of a strided operand would sum in another order.  The square is
    libm's pow(x, 2), which float_power calls per element as a scalar
    ``x ** 2`` does; an array ``** 2`` or np.square computes x*x, and pow
    rounds differently from that in the last bit of a few values.
    """
    overlaps = np.vecdot(reference, rows)
    return np.float_power(np.abs(overlaps), 2).tolist()


def phase_insensitive_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over global phases of the Frobenius distance ||u - e^{i phi} v||.

    Both matrices must be unitary and of equal dimension.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected two square matrices of equal shape")
    # Subtracting at the optimal phase and taking the norm is algebraically
    # sqrt(2d - 2|tr(u^dag v)|) but avoids that form's cancellation, whose
    # noise floor sqrt(dim * eps) would swamp exact constructions.
    overlap = np.trace(u.conj().T @ v)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(phase * u - v))
