"""Quantum Fourier transform: exact oracle, circuit, and Ising decomposition.

The exact transform maps amplitudes a_O to (1/sqrt(N)) sum_O a_O e^{2 pi i O k / N}.
Its circuit is a cascade of Hadamards and controlled-rotation blocks; the Ising
view rewrites each block as single-qubit Z rotations plus a two-body ZZ
coupling pattern (qft_block_target).  The digital circuit realizes each ZZ term
with two fixed entanglers, and the schedule compiler with analog blocks.
"""

from __future__ import annotations

import math

import numpy as np

from .ising import IsingSpec
from .program import Entangler, HadamardGate, Permute, Rotation, XGate
from .statevector import Statevector


def exact_qft(state: Statevector) -> Statevector:
    """Exact QFT of a state, computed by FFT rather than gates."""
    dim = state.dim
    amps = np.fft.ifft(state.amplitudes) * math.sqrt(dim)
    return Statevector(state.n_qubits, amps)


def qft_matrix(n_qubits: int) -> np.ndarray:
    """Dense QFT unitary, entries e^{2 pi i j k / N} / sqrt(N)."""
    dim = 1 << n_qubits
    j = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(j, j) / dim) / math.sqrt(dim)


def theta(k: int) -> float:
    """Controlled-rotation half-angle pi / 2^{k+1}."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return math.pi / 2 ** (k + 1)


def qft_block_target(n_qubits: int, m: int) -> IsingSpec:
    """ZZ target of controlled-rotation block m: theta(q - m + 1) on each pair (m, q), q > m."""
    if not 1 <= m < n_qubits:
        raise ValueError(f"qft-block index {m} outside 1..{n_qubits - 1} for n={n_qubits}")
    couplings = {(m, q): theta(q - m + 1) for q in range(m + 1, n_qubits + 1)}
    return IsingSpec(n_qubits, couplings)


def bit_reversal_permutation(n_qubits: int) -> tuple[int, ...]:
    """index -> index with its n-bit binary representation reversed."""
    shifts = np.arange(n_qubits)
    bits = (np.arange(1 << n_qubits)[:, None] >> shifts) & 1  # bit b of i in column b
    return tuple((bits @ (1 << shifts[::-1])).tolist())


def zz_gate_sequence(alpha_angle: float, c: int, k: int) -> tuple:
    """Gates realizing e^{i alpha Z_c Z_k} from two fixed pi/4 ZZ entanglers.

    Returned in application order; the product telescopes to
    A B C(alpha) X_k B X_k A^dagger with A = e^{i pi/4 Y_c}, B = e^{i pi/4 Z_c Z_k},
    which equals e^{i alpha Z_c Z_k} up to a global phase.
    """
    if c == k:
        raise ValueError("coupled qubits must differ")
    return (
        Rotation(c, "y", -math.pi / 4),
        XGate(k),
        Entangler(c, k),
        XGate(k),
        Rotation(c, "y", alpha_angle),
        Entangler(c, k),
        Rotation(c, "y", math.pi / 4),
    )


def build_dqc_circuit(n_qubits: int) -> tuple:
    """Digital QFT gate sequence (without the readout permutation).

    Each block's Hadamard, then for each pair of qft_block_target its Z
    rotations and the two-entangler ZZ construction; the form the noise
    model applies to.
    """
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    gates: list = []
    for m in range(1, n_qubits):
        gates.append(HadamardGate(m))
        for (_, q), angle in qft_block_target(n_qubits, m).couplings.items():  # ascending q
            gates += (Rotation(m, "z", -angle), Rotation(q, "z", -angle))
            gates += zz_gate_sequence(angle, m, q)
    gates.append(HadamardGate(n_qubits))
    return tuple(gates)


def readout_instruction(n_qubits: int) -> Permute:
    """The noiseless bit-reversal relabeling applied at the end of every protocol."""
    return Permute(bit_reversal_permutation(n_qubits))


def w_state(n_qubits: int) -> Statevector:
    """Uniform superposition of all single-excitation basis states."""
    if n_qubits < 2:
        raise ValueError(f"n_qubits must be >= 2, got {n_qubits}")
    dim = 1 << n_qubits
    amps = np.zeros(dim, dtype=complex)
    for q in range(n_qubits):
        amps[1 << q] = 1.0 / math.sqrt(n_qubits)
    return Statevector(n_qubits, amps)


def ghz_state(n_qubits: int) -> Statevector:
    """(|0...0> + |1...1>) / sqrt(2)."""
    if n_qubits < 2:
        raise ValueError(f"n_qubits must be >= 2, got {n_qubits}")
    dim = 1 << n_qubits
    amps = np.zeros(dim, dtype=complex)
    amps[0] = amps[dim - 1] = 1.0 / math.sqrt(2.0)
    return Statevector(n_qubits, amps)


def beta_state(n_qubits: int, beta_angle: float) -> Statevector:
    """sin(beta)|W> + cos(beta)|GHZ>; unit norm because the supports are disjoint."""
    if n_qubits < 2:
        raise ValueError(f"n_qubits must be >= 2, got {n_qubits}")
    # The products that scaling |W> and |GHZ> gives: the bits of their sum for +0 <= beta <= pi.
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[1 << np.arange(n_qubits)] = math.sin(beta_angle) * (1.0 / math.sqrt(n_qubits))
    amps[[0, -1]] = math.cos(beta_angle) * (1.0 / math.sqrt(2.0))
    return Statevector(n_qubits, amps)

