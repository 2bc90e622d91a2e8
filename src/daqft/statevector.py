"""Dense statevector simulator core.

States live in the computational basis with qubit 1 as the most significant
bit of the basis index.  All operations are pure: they return new states and
never mutate their inputs.
"""

from __future__ import annotations

import functools
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
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(f"state is not normalized: |amps|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


def basis_state(n_qubits: int, index: int) -> Statevector:
    """Computational basis state |index> on n_qubits."""
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return Statevector(n_qubits, amps)


def fidelity(a: Statevector, b: Statevector) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("fidelity requires states on the same number of qubits")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def _apply_matrix_1q(amps: np.ndarray, target: int, matrices: np.ndarray) -> np.ndarray:
    """Apply 2x2 matrices on qubit ``target`` of a (k, 2^n, r) block.

    ``matrices`` is (k, 2, 2), one per register row, or (1, 2, 2), one for every row.
    """
    a = amps.reshape(amps.shape[0], 1 << (target - 1), 2, -1)
    m = matrices[:, None, :, :, None]
    out = m[:, :, :, 0] * a[:, :, None, 0] + m[:, :, :, 1] * a[:, :, None, 1]
    return out.reshape(amps.shape)


@functools.lru_cache(maxsize=None)
def _branch_index(n_qubits: int, q1: int, q2: int) -> np.ndarray:
    """Per basis state, the (q1, q2) branch 2*b1 + b2 its bits select."""
    indices = np.arange(1 << n_qubits)
    branch = 2 * ((indices >> (n_qubits - q1)) & 1) + ((indices >> (n_qubits - q2)) & 1)
    branch.flags.writeable = False
    return branch


def _apply_diag_2q(
    amps: np.ndarray, n_qubits: int, q1: int, q2: int, phases: np.ndarray
) -> np.ndarray:
    """Multiply a (k, 2^n, r) block by per-branch phases of the (q1, q2) subspace.

    ``phases`` is (k, 4), one set per register row, or (1, 4), one for every row.
    """
    return amps * phases[:, _branch_index(n_qubits, q1, q2), None]


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
