"""Quantum Fourier transform: exact oracle, circuit, and Ising decomposition.

The exact transform maps amplitudes a_O to (1/sqrt(N)) sum_O a_O e^{2 pi i O k / N}.
The circuit view is a cascade of Hadamards and controlled phase rotations; the
Ising view rewrites each controlled-rotation block as single-qubit Z rotations
plus a two-body ZZ coupling pattern, which is what the schedule compiler consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ising import IsingSpec
from .program import (
    ControlledPhase,
    Entangler,
    HadamardGate,
    Permute,
    Rotation,
    XGate,
)
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


def alpha(c: int, k: int, m: int) -> float:
    """ZZ coupling delta_{c,m} * pi / 2^{k-m+2} for block m."""
    if not 1 <= c < k:
        raise ValueError(f"need 1 <= c < k, got c={c}, k={k}")
    if m < 1:
        raise ValueError(f"block index must be >= 1, got {m}")
    if c != m:
        return 0.0
    return math.pi / 2 ** (k - m + 2)


def bit_reversal_permutation(n_qubits: int) -> tuple[int, ...]:
    """index -> index with its n-bit binary representation reversed."""
    dim = 1 << n_qubits
    perm = []
    for i in range(dim):
        rev = 0
        for b in range(n_qubits):
            rev |= ((i >> b) & 1) << (n_qubits - 1 - b)
        perm.append(rev)
    return tuple(perm)


@dataclass(frozen=True)
class QftBlock:
    """Controlled-rotation block m: a digital layer plus a ZZ coupling target.

    The digital layer is the Hadamard on qubit m followed by the Z rotations
    that accompany each controlled phase; the coupling target carries the
    alpha_{m,k} strengths for pairs (m, k), k > m.
    """

    index: int
    sqg_layer: tuple
    ising_block: IsingSpec


@dataclass(frozen=True)
class QftPlan:
    """Digital-analog decomposition of the QFT on n qubits."""

    n_qubits: int
    blocks: tuple[QftBlock, ...]
    final_hadamard: int
    readout_permutation: tuple[int, ...]


def build_qft_plan(n_qubits: int) -> QftPlan:
    """Decompose the n-qubit QFT into n-1 blocks plus a final Hadamard."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    blocks = []
    for m in range(1, n_qubits):
        layer = [HadamardGate(m)]
        couplings = {}
        for q in range(m + 1, n_qubits + 1):
            angle = alpha(m, q, m)  # equals theta(q - m + 1)
            layer.append(Rotation(m, "z", -angle))
            layer.append(Rotation(q, "z", -angle))
            couplings[(m, q)] = angle
        blocks.append(
            QftBlock(
                index=m,
                sqg_layer=tuple(layer),
                ising_block=IsingSpec(n_qubits, couplings),
            )
        )
    return QftPlan(
        n_qubits=n_qubits,
        blocks=tuple(blocks),
        final_hadamard=n_qubits,
        readout_permutation=bit_reversal_permutation(n_qubits),
    )


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


def build_dqc_circuit(n_qubits: int, use_zz_construction: bool = False) -> tuple:
    """Digital QFT gate sequence (without the readout permutation).

    Plain mode emits Hadamards and controlled phase rotations.  ZZ mode
    replaces each controlled rotation by Z rotations plus the two-entangler
    construction, which is the form the noise model applies to.
    """
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    gates: list = []
    for m in range(1, n_qubits):
        gates.append(HadamardGate(m))
        for q in range(m + 1, n_qubits + 1):
            k_index = q - m + 1
            if use_zz_construction:
                angle = theta(k_index)
                gates.append(Rotation(m, "z", -angle))
                gates.append(Rotation(q, "z", -angle))
                gates.extend(zz_gate_sequence(angle, m, q))
            else:
                gates.append(ControlledPhase(control=q, target=m, k=k_index))
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
    w = w_state(n_qubits)
    ghz = ghz_state(n_qubits)
    amps = math.sin(beta_angle) * w.amplitudes + math.cos(beta_angle) * ghz.amplitudes
    return Statevector(n_qubits, amps)

