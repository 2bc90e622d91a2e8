"""Executable circuit programs: a small instruction set over statevectors.

Instructions know how to apply themselves ideally, and how to apply a
perturbed version of themselves given noise draws (see noise module).  Both
act on a (k, 2^n) block of amplitude rows at once: the shots of a
Monte-Carlo cell, or the basis columns of a dense unitary.  A noisy
application takes one draw per row.  A Program bundles instructions with the
analog resource they evolve under.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ising import IsingSpec, _check_register_size, coupling_diagonal
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


def _rotations(theta: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """cos(t)*1 + i*sin(t)*P for each angle t of a (k,) array: a (k, 2, 2) stack."""
    theta = theta[:, None, None]
    return np.cos(theta) * _identity(2) + 1j * np.sin(theta) * axis


def _constant(array: np.ndarray) -> np.ndarray:
    """Mark an operand that every instance or call shares as read-only."""
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=None)
def _identity(dim: int) -> np.ndarray:
    """The dim x dim identity, built once."""
    return _constant(np.eye(dim))


# The kernel entry points that Rotation, HadamardGate and XGate share; each
# binds them in its own class body, where perfbench's tracer looks up an
# instruction's kernels.
def _single_qubit_noisy(
    self, amps: np.ndarray, n: int, value: np.ndarray, energy=None
) -> np.ndarray:
    return _apply_matrix_1q(amps, self.qubit, self._matrices(value))


def _single_qubit_ideal(self, amps: np.ndarray, n: int, energy=None) -> np.ndarray:
    return _apply_matrix_1q(amps, self.qubit, self._ideal)


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

    noisy_apply = _single_qubit_noisy
    ideal_apply = _single_qubit_ideal

    def _matrices(self, values: np.ndarray) -> np.ndarray:
        return _rotations(self.angle * values, pauli(self.axis))

    @functools.cached_property
    def _ideal(self) -> np.ndarray:
        return self._matrices(np.ones(1))


_Z_PLUS_X = np.array([[1, 1], [1, -1]], dtype=complex)


@dataclass(frozen=True)
class HadamardGate:
    """Hadamard via its generator (pi/2)(1 - (Z+X)/sqrt2); noise scales the generator."""

    qubit: int

    def __post_init__(self) -> None:
        _check_qubit(self.qubit)

    noisy_apply = _single_qubit_noisy
    ideal_apply = _single_qubit_ideal

    @staticmethod
    def _matrices(values: np.ndarray) -> np.ndarray:
        # exp(i*v*H_H) with H_H = (pi/2)(1 - (Z+X)/sqrt2); H_H has eigenvalues {0, pi}
        half = (np.pi * values / 2.0)[:, None, None]
        return np.exp(1j * half) * (
            np.cos(half) * _identity(2) - 1j * np.sin(half) * (_Z_PLUS_X / SQRT2)
        )

    _ideal = _constant(_matrices(np.ones(1)))


@dataclass(frozen=True)
class XGate:
    """A pi/2 X rotation, exp(i pi/2 X) = iX; noise scales the rotation angle."""

    qubit: int

    def __post_init__(self) -> None:
        _check_qubit(self.qubit)

    noisy_apply = _single_qubit_noisy
    ideal_apply = _single_qubit_ideal

    @staticmethod
    def _matrices(values: np.ndarray) -> np.ndarray:
        return _rotations(np.pi * values / 2.0, PAULI_X)

    _ideal = _constant(_matrices(np.ones(1)))


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

    def noisy_apply(self, amps: np.ndarray, n: int, value: np.ndarray, energy=None) -> np.ndarray:
        return _apply_diag_2q(amps, n, self.qubit_a, self.qubit_b, self._phases(value))

    def ideal_apply(self, amps: np.ndarray, n: int, energy=None) -> np.ndarray:
        return _apply_diag_2q(amps, n, self.qubit_a, self.qubit_b, self._ideal)

    @staticmethod
    def _phases(values: np.ndarray) -> np.ndarray:
        phi = (np.pi / 4.0) * (1.0 + values)
        up, down = np.exp(1j * phi), np.exp(-1j * phi)
        return np.stack([up, down, down, up], axis=-1)

    _ideal = _constant(_phases(np.zeros(1)))


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

    def noisy_apply(self, amps: np.ndarray, n: int, value, energy=None) -> np.ndarray:
        raise UnsupportedGateError(
            "controlled phase gates have no noise model; use the ZZ construction"
        )

    def ideal_apply(self, amps: np.ndarray, n: int, energy=None) -> np.ndarray:
        return _apply_diag_2q(amps, n, self.control, self.target, self._ideal)

    @functools.cached_property
    def _ideal(self) -> np.ndarray:
        return np.array([[1.0, 1.0, 1.0, np.exp(2j * np.pi / 2 ** self.k)]])


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

    def noisy_apply(self, amps: np.ndarray, n: int, value: np.ndarray, energy=None) -> np.ndarray:
        # exp at each row's few distinct levels, gathered onto the basis: every
        # amplitude's exponent is the same product as with its own energy.
        return amps * np.exp(1j * (self.duration + value)[:, None] * energy.levels)[:, energy.index]

    def ideal_apply(self, amps: np.ndarray, n: int, energy=None) -> np.ndarray:
        return self.noisy_apply(amps, n, np.zeros(1), energy)


@dataclass(frozen=True)
class BangedWindow:
    """X drives of amplitude pi/(2*duration) on top of the analog resource.

    Each driven qubit completes a pi/2 X rotation (i.e. iX) over the window
    while the resource keeps evolving.  Noise values scale the per-qubit drive
    amplitudes independently.  Windows run on homogeneous resources only
    (Program refuses others): there a block's Hamiltonian depends only on how
    many undriven qubits are set, so the kernel diagonalizes one block per
    weight class instead of one per register row.
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

    def noisy_apply(self, amps: np.ndarray, n: int, value: np.ndarray, energy=None) -> np.ndarray:
        u = _window_unitaries(n, energy, self.qubits, self.duration, value)
        return _apply_window_unitaries(amps, n, self.qubits, u)

    def ideal_apply(self, amps: np.ndarray, n: int, energy=None) -> np.ndarray:
        # A program repeats each of its windows many times; the ideal
        # unitaries are built on first use and kept with the program's energy.
        key = (self.qubits, self.duration)
        u = energy.windows.get(key)
        if u is None:
            drives = np.ones((1, len(self.qubits)))
            u = energy.windows[key] = _constant(
                _window_unitaries(n, energy, self.qubits, self.duration, drives)
            )
        return _apply_window_unitaries(amps, n, self.qubits, u)


@dataclass(frozen=True)
class Permute:
    """Noiseless relabeling of basis indices at readout: out[i] = in[index_map[i]]."""

    index_map: tuple[int, ...]

    def __post_init__(self) -> None:
        perm = tuple(int(i) for i in self.index_map)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("index_map is not a permutation")
        object.__setattr__(self, "index_map", perm)

    def noisy_apply(self, amps: np.ndarray, n: int, value, energy=None) -> np.ndarray:
        return self.ideal_apply(amps, n)

    def ideal_apply(self, amps: np.ndarray, n: int, energy=None) -> np.ndarray:
        return amps[:, self._index]

    @functools.cached_property
    def _index(self) -> np.ndarray:
        return np.asarray(self.index_map)


@functools.lru_cache(maxsize=None)
def _window_structure(n: int, qubits: tuple[int, ...]):
    """Gather index, weight class per row, and the index row of one representative per class.

    Row r of the (2^(n-m), 2^m) index holds the basis states that share one
    pattern of undriven bits; column b sets the driven bits, qubits[0] most
    significant.  Under a homogeneous resource a row's block depends only on
    w, the number of undriven bits set.  Flipping every bit maps weight w to
    n-m-w and commutes with the X drives, so a row with w > (n-m)/2 reads its
    driven columns complemented and shares the block of class n-m-w.
    """
    m = len(qubits)
    masks = 1 << np.array([n - q for q in qubits])
    basis = np.arange(1 << n)
    rows = basis[(basis & masks.sum()) == 0]
    bits = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    index = rows[:, None] | (bits @ masks)[None, :]
    weight = np.bitwise_count(rows).astype(np.intp)
    mirrored = 2 * weight > n - m
    index[mirrored] = index[mirrored, ::-1]
    weight = np.minimum(weight, n - m - weight)
    # Row r has popcount(r) undriven bits set, so row 2^c - 1 stands for class c.
    class_rows = index[(1 << np.arange((n - m) // 2 + 1)) - 1]
    return _constant(index), _constant(weight), _constant(class_rows)


@functools.lru_cache(maxsize=None)
def _lifted_x(m: int) -> np.ndarray:
    """X on each of m qubits (the first most significant), as m flattened 2^m x 2^m rows."""
    flipped = np.arange(1 << m) ^ (1 << np.arange(m - 1, -1, -1))[:, None]
    return _constant(np.eye(1 << m)[flipped].reshape(m, -1))


def _window_unitaries(
    n: int,
    energy: ResourceEnergy,
    qubits: tuple[int, ...],
    duration: float,
    drive_values: np.ndarray,
) -> np.ndarray:
    """The class blocks of exp(i*duration*(H_res + sum_q c_q X_q)), one set per drive row.

    Row s of drive_values (shape (k, m)) holds the drive scales c_q.  The
    driven qubits cut the register into 2^(n-m) blocks of dimension 2^m whose
    Hamiltonians differ only by weight class (see _window_structure), so one
    eigh over k x C class blocks, C = floor((n-m)/2)+1, gives the (k, C, 2^m,
    2^m) unitaries that serve every register row.
    """
    _, _, class_rows = _window_structure(n, qubits)
    dim = 1 << len(qubits)
    coeffs = (np.pi / (2.0 * duration)) * drive_values
    h = energy.values[class_rows][:, :, None] * _identity(dim)
    h = h + (coeffs @ _lifted_x(len(qubits))).reshape(-1, 1, dim, dim)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * duration * w)[..., None, :]) @ v.swapaxes(-1, -2)


def _apply_window_unitaries(
    amps: np.ndarray, n: int, qubits: tuple[int, ...], u: np.ndarray
) -> np.ndarray:
    """Apply a window's class unitaries to a (k, 2^n) block.

    ``u`` is (k, C, 2^m, 2^m), one set per row, or (1, C, 2^m, 2^m), one for every row.
    """
    index, weight, _ = _window_structure(n, qubits)
    out = np.empty(amps.shape, dtype=complex)
    out[:, index] = (u[:, weight] @ amps[:, index][..., None])[..., 0]
    return out


class ResourceEnergy(NamedTuple):
    """A resource's basis-state energies and their few distinct levels.

    ``values == levels[index]``, levels in order of first appearance.  The
    compiler's homogeneous resource has floor(n/2)+1 levels for its 2^n
    basis states: 4 against 128 at n = 7.  ``windows`` holds the ideal class
    unitaries of each banged window run so far, keyed by (qubits, duration);
    it belongs to one Program and goes with it.
    """

    values: np.ndarray
    levels: np.ndarray
    index: np.ndarray
    windows: dict

    @classmethod
    def of(cls, resource: IsingSpec) -> ResourceEnergy:
        values = coupling_diagonal(resource)
        # A dict rather than np.unique: the first call of np.unique's argsort
        # alone raises a run's peak memory by ~0.4 MB.
        first: dict[float, int] = {}
        index = np.array([first.setdefault(value, len(first)) for value in values.tolist()])
        return cls(values, np.array(list(first)), index, {})


@dataclass(frozen=True)
class Program:
    """An instruction sequence over a fixed register, with its analog resource."""

    n_qubits: int
    instructions: tuple
    resource: IsingSpec | None = None
    metadata: dict = field(default_factory=dict)
    # The resource's energies and levels, computed once so every shot shares them.
    energy: ResourceEnergy | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_register_size(self.n_qubits)
        object.__setattr__(self, "instructions", tuple(self.instructions))
        if self.resource is not None and self.resource.n_qubits != self.n_qubits:
            raise ValueError("resource register size does not match the program")
        homogeneous = self.resource is not None and self.resource.is_homogeneous()
        qubit_fields = ("qubit", "qubit_a", "qubit_b", "control", "target")
        for instr in self.instructions:
            qubits = [getattr(instr, attr, 0) for attr in qubit_fields]
            if max(qubits + list(getattr(instr, "qubits", ()))) > self.n_qubits:
                raise ValueError(f"instruction {instr!r} exceeds {self.n_qubits} qubits")
            if isinstance(instr, (AnalogBlock, BangedWindow)) and self.resource is None:
                raise ValueError("analog instructions require a resource")
            if isinstance(instr, Permute) and len(instr.index_map) != 1 << self.n_qubits:
                raise ValueError("permutation size does not match the register")
            if isinstance(instr, BangedWindow) and not homogeneous:
                raise ValueError("banged windows require a homogeneous resource")
        energy = ResourceEnergy.of(self.resource) if self.resource is not None else None
        object.__setattr__(self, "energy", energy)


def _run(program: Program, block: np.ndarray, draws=None) -> np.ndarray:
    """Apply the program to every row of a (k, 2^n) block: the one loop over instructions.

    ``draws`` holds one entry per instruction: None applies it ideally, an
    array holds the rows' noise values, (k,) or (k, m) for an m-qubit window.
    """
    n = program.n_qubits
    energy = program.energy
    for instr, value in zip(program.instructions, draws or itertools.repeat(None)):
        if value is None:
            block = instr.ideal_apply(block, n, energy)
        else:
            block = instr.noisy_apply(block, n, value, energy)
    return block


def _draws(program: Program, samplers) -> list:
    """Per-instruction noise values of k shots; each sampler is called in program order."""
    rows = [[sampler(instr) for instr in program.instructions] for sampler in samplers]
    return [None if column[0] is None else np.array(column) for column in zip(*rows)]


def _check_register(state: Statevector, program: Program) -> None:
    if state.n_qubits != program.n_qubits:
        raise ValueError("state and program disagree on the number of qubits")


def execute_program(state: Statevector, program: Program, sampler=None) -> Statevector:
    """Run a program on a state.

    ``sampler`` maps an instruction to its noise draw (or None for an ideal
    application); omitting it runs the whole program ideally.
    """
    _check_register(state, program)
    draws = None if sampler is None else _draws(program, [sampler])
    (amps,) = _run(program, state.amplitudes[None], draws)
    return Statevector(program.n_qubits, amps)


def execute_shots(state: Statevector, program: Program, samplers) -> np.ndarray:
    """Run a program once per sampler on a state, all shots as one block.

    Row i of the (k, 2^n) result equals
    ``execute_program(state, program, samplers[i]).amplitudes``.
    """
    _check_register(state, program)
    block = np.tile(state.amplitudes, (len(samplers), 1))
    return _run(program, block, _draws(program, samplers))


def program_unitary(program: Program) -> np.ndarray:
    """Dense matrix of the whole program (exactness oracle; small registers only)."""
    return _run(program, np.eye(1 << program.n_qubits, dtype=complex)).T
