"""Dense oracles the tests compare the simulator's kernels against.

They build closed-form 2x2 rotations, full 2^n x 2^n operators from Kronecker
products, and matrix exponentials, sharing no code with the kernels under test.
"""

import numpy as np

HERMITIAN_ATOL = 1e-10

PAULIS = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def rotation_matrix(axis, angle):
    """exp(i * angle * P) = cos(angle) I + i sin(angle) P for the Pauli P on an axis."""
    return np.cos(angle) * np.eye(2) + 1j * np.sin(angle) * PAULIS[axis]


def kron_lift(n_qubits, qubit, matrix):
    """A 2x2 matrix on one qubit (1-based, qubit 1 most significant) of the register."""
    out = np.eye(1, dtype=complex)
    for site in range(1, n_qubits + 1):
        out = np.kron(out, matrix if site == qubit else np.eye(2))
    return out


def expm_evolve(hamiltonian, time, amplitudes):
    """exp(i * time * H) applied to amplitudes, via the eigendecomposition of H."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.allclose(h, h.conj().T, atol=HERMITIAN_ATOL):
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(1j * time * w) * (v.conj().T @ amplitudes))
