"""Executable circuit programs: a small instruction set over statevectors.

Instructions know how to apply themselves ideally, and how to apply a
perturbed version of themselves given a noise draw (see noise module).  A
Program bundles instructions with the analog resource they evolve under.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ising import IsingSpec, coupling_diagonal
from .statevector import (
    PAULI_X,
    SQRT2,
    Statevector,
    _apply_diag_2q,
    _apply_matrix_1q,
    pauli,
)


class UnsupportedGateError(ValueError):
    """Raised when an instruction has no noisy counterpart."""


def _check_qubit(q: int, name: str = "qubit") -> None:
    if q < 1:
        raise ValueError(f"{name} must be >= 1, got {q}")


@dataclass(frozen=True)
class Rotation:
    """exp(i * angle * P) on one qubit, P a Pauli axis; noise scales the angle."""

    qubit: int
    axis: str
    angle: float

    def __post_init__(self) -> None:
        _check_qubit(self.qubit)
        pauli(self.axis)  # validates the axis
        if not math.isfinite(self.angle):
            raise ValueError("angle must be finite")

    def noisy_apply(self, amps: np.ndarray, n: int, value: float) -> np.ndarray:
        theta = self.angle * value
        matrix = math.cos(theta) * np.eye(2) + 1j * math.sin(theta) * pauli(self.axis)
        return _apply_matrix_1q(amps, n, self.qubit, matrix)

    def ideal_apply(self, amps: np.ndarray, n: int) -> np.ndarray:
        return self.noisy_apply(amps, n, 1.0)


_Z_PLUS_X = np.array([[1, 1], [1, -1]], dtype=complex)


@dataclass(frozen=True)
class HadamardGate:
    """Hadamard via its generator (pi/2)(1 - (Z+X)/sqrt2); noise scales the generator."""

    qubit: int

    def __post_init__(self) -> None:
        _check_qubit(self.qubit)

    def noisy_apply(self, amps: np.ndarray, n: int, value: float) -> np.ndarray:
        # exp(i*v*H_H) with H_H = (pi/2)(1 - (Z+X)/sqrt2); H_H has eigenvalues {0, pi}
        half = np.pi * value / 2.0
        matrix = np.exp(1j * half) * (
            math.cos(half) * np.eye(2) - 1j * math.sin(half) * (_Z_PLUS_X / SQRT2)
        )
        return _apply_matrix_1q(amps, n, self.qubit, matrix)

    def ideal_apply(self, amps: np.ndarray, n: int) -> np.ndarray:
        return self.noisy_apply(amps, n, 1.0)


@dataclass(frozen=True)
class XGate:
    """A pi/2 X rotation, exp(i pi/2 X) = iX; noise scales the rotation angle."""

    qubit: int

    def __post_init__(self) -> None:
        _check_qubit(self.qubit)

    def noisy_apply(self, amps: np.ndarray, n: int, value: float) -> np.ndarray:
        half = np.pi * value / 2.0
        matrix = math.cos(half) * np.eye(2) + 1j * math.sin(half) * PAULI_X
        return _apply_matrix_1q(amps, n, self.qubit, matrix)

    def ideal_apply(self, amps: np.ndarray, n: int) -> np.ndarray:
        return self.noisy_apply(amps, n, 1.0)


@dataclass(frozen=True)
class Entangler:
    """The fixed two-qubit phase gate exp(i pi/4 Z Z); noise perturbs the pi/4 phase."""

    qubit_a: int
    qubit_b: int

    def __post_init__(self) -> None:
        _check_qubit(self.qubit_a, "qubit_a")
        _check_qubit(self.qubit_b, "qubit_b")
        if self.qubit_a == self.qubit_b:
            raise ValueError("entangler qubits must differ")

    def noisy_apply(self, amps: np.ndarray, n: int, value: float) -> np.ndarray:
        phi = (np.pi / 4.0) * (1.0 + value)
        up, down = np.exp(1j * phi), np.exp(-1j * phi)
        phases = np.array([up, down, down, up])
        return _apply_diag_2q(amps, n, self.qubit_a, self.qubit_b, phases)

    def ideal_apply(self, amps: np.ndarray, n: int) -> np.ndarray:
        return self.noisy_apply(amps, n, 0.0)


@dataclass(frozen=True)
class ControlledPhase:
    """cR_k = diag(1, 1, 1, e^{2 pi i / 2^k}); has no generator-level noise model."""

    control: int
    target: int
    k: int

    def __post_init__(self) -> None:
        _check_qubit(self.control, "control")
        _check_qubit(self.target, "target")
        if self.control == self.target:
            raise ValueError("control and target must differ")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    def noisy_apply(self, amps: np.ndarray, n: int, value) -> np.ndarray:
        raise UnsupportedGateError(
            "controlled phase gates have no noise model; use the ZZ construction"
        )

    def ideal_apply(self, amps: np.ndarray, n: int) -> np.ndarray:
        phases = np.array([1.0, 1.0, 1.0, np.exp(2j * np.pi / 2 ** self.k)])
        return _apply_diag_2q(amps, n, self.control, self.target, phases)


@dataclass(frozen=True)
class AnalogBlock:
    """Evolution under the program's analog resource for a signed duration."""

    duration: float
    kind: str = "stepwise"  # which analog-noise width applies

    def __post_init__(self) -> None:
        if not math.isfinite(self.duration):
            raise ValueError("duration must be finite")
        if self.kind not in ("stepwise", "banged"):
            raise ValueError(f"unknown analog block kind {self.kind!r}")

    def noisy_apply(
        self, amps: np.ndarray, n: int, value: float, energy: np.ndarray
    ) -> np.ndarray:
        return amps * np.exp(1j * (self.duration + value) * energy)

    def ideal_apply(self, amps: np.ndarray, n: int, energy: np.ndarray) -> np.ndarray:
        return self.noisy_apply(amps, n, 0.0, energy)


@dataclass(frozen=True)
class BangedWindow:
    """X drives of amplitude pi/(2*duration) on top of the analog resource.

    Each driven qubit completes a pi/2 X rotation (i.e. iX) over the window
    while the resource keeps evolving.  Noise values scale the per-qubit drive
    amplitudes independently.
    """

    duration: float
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError("window duration must be positive")
        qs = tuple(self.qubits)
        if not qs or list(qs) != sorted(set(qs)):
            raise ValueError("window qubits must be unique and ascending")
        for q in qs:
            _check_qubit(q)
        object.__setattr__(self, "qubits", qs)

    def noisy_apply(
        self, amps: np.ndarray, n: int, values: np.ndarray, energy: np.ndarray
    ) -> np.ndarray:
        return _apply_banged_window(amps, n, energy, self.qubits, self.duration, values)

    def ideal_apply(self, amps: np.ndarray, n: int, energy: np.ndarray) -> np.ndarray:
        return self.noisy_apply(amps, n, np.ones(len(self.qubits)), energy)


@dataclass(frozen=True)
class Permute:
    """Noiseless relabeling of basis indices at readout: out[i] = in[index_map[i]]."""

    index_map: tuple[int, ...]

    def __post_init__(self) -> None:
        perm = tuple(int(i) for i in self.index_map)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("index_map is not a permutation")
        object.__setattr__(self, "index_map", perm)

    def noisy_apply(self, amps: np.ndarray, n: int, value=None) -> np.ndarray:
        return self.ideal_apply(amps, n)

    def ideal_apply(self, amps: np.ndarray, n: int) -> np.ndarray:
        if len(self.index_map) != amps.size:
            raise ValueError("permutation size does not match the register")
        return amps[np.asarray(self.index_map)]


Instruction = (
    Rotation
    | HadamardGate
    | XGate
    | Entangler
    | ControlledPhase
    | AnalogBlock
    | BangedWindow
    | Permute
)

_ANALOG_KINDS = (AnalogBlock, BangedWindow)


def _apply_banged_window(
    amps: np.ndarray,
    n: int,
    energy: np.ndarray,
    qubits: tuple[int, ...],
    duration: float,
    drive_values: np.ndarray,
) -> np.ndarray:
    """exp(i*duration*(H_res + sum_q c_q X_q)) via batched eigh over the
    2^m-dimensional blocks picked out by the driven qubits (the rest of the
    register only contributes diagonal energy)."""
    m = len(qubits)
    block_dim = 1 << m
    batch = 1 << (n - m)
    src = [q - 1 for q in qubits]
    dst = list(range(n - m, n))

    a = np.moveaxis(amps.reshape([2] * n), src, dst).reshape(batch, block_dim)
    e = np.moveaxis(energy.reshape([2] * n), src, dst).reshape(batch, block_dim)

    drive = np.zeros((block_dim, block_dim))
    x_real = PAULI_X.real
    for pos, _q in enumerate(qubits):
        coeff = (np.pi / (2.0 * duration)) * float(drive_values[pos])
        op = np.kron(np.eye(1 << pos), np.kron(x_real, np.eye(1 << (m - 1 - pos))))
        drive += coeff * op

    h = np.zeros((batch, block_dim, block_dim))
    diag = np.arange(block_dim)
    h[:, diag, diag] = e
    h += drive

    w, v = np.linalg.eigh(h)
    rotated = (v.conj().transpose(0, 2, 1) @ a[:, :, None])[:, :, 0]
    rotated *= np.exp(1j * duration * w)
    out = (v @ rotated[:, :, None])[:, :, 0]

    out = out.reshape([2] * n)
    out = np.moveaxis(out, dst, src)
    return np.ascontiguousarray(out).reshape(-1)


@dataclass(frozen=True)
class Program:
    """An instruction sequence over a fixed register, with its analog resource."""

    n_qubits: int
    instructions: tuple
    resource: IsingSpec | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))
        if self.resource is not None and self.resource.n_qubits != self.n_qubits:
            raise ValueError("resource register size does not match the program")
        for instr in self.instructions:
            for attr in ("qubit", "qubit_a", "qubit_b", "control", "target"):
                q = getattr(instr, attr, None)
                if q is not None and q > self.n_qubits:
                    raise ValueError(f"instruction {instr!r} exceeds {self.n_qubits} qubits")
            if isinstance(instr, BangedWindow) and max(instr.qubits) > self.n_qubits:
                raise ValueError(f"instruction {instr!r} exceeds {self.n_qubits} qubits")
            if isinstance(instr, _ANALOG_KINDS) and self.resource is None:
                raise ValueError("analog instructions require a resource")


def _run(program: Program, columns, sampler=None) -> list[np.ndarray]:
    """Apply the program to each amplitude array: the one loop over instructions."""
    n = program.n_qubits
    energy = coupling_diagonal(program.resource) if program.resource is not None else None
    outputs = []
    for amps in columns:
        for instr in program.instructions:
            value = sampler(instr) if sampler is not None else None
            if isinstance(instr, _ANALOG_KINDS):
                if value is None:
                    amps = instr.ideal_apply(amps, n, energy)
                else:
                    amps = instr.noisy_apply(amps, n, value, energy)
            else:
                if value is None:
                    amps = instr.ideal_apply(amps, n)
                else:
                    amps = instr.noisy_apply(amps, n, value)
        outputs.append(amps)
    return outputs


def execute_program(state: Statevector, program: Program, sampler=None) -> Statevector:
    """Run a program on a state.

    ``sampler`` maps an instruction to its noise draw (or None for an ideal
    application); omitting it runs the whole program ideally.
    """
    if state.n_qubits != program.n_qubits:
        raise ValueError("state and program disagree on the number of qubits")
    (amps,) = _run(program, (state.amplitudes,), sampler)
    return Statevector(program.n_qubits, amps)


def program_unitary(program: Program) -> np.ndarray:
    """Dense matrix of the whole program (exactness oracle; small registers only)."""
    basis = np.eye(1 << program.n_qubits, dtype=complex)
    return np.stack(_run(program, basis), axis=1)
