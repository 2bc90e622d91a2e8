"""Executable circuit programs: a small instruction set over statevectors.

Instructions know how to apply themselves ideally, and how to apply a
perturbed version of themselves given draws from the noise channel each
names (see noise module).  A run acts on k register rows, one per noise
shot (and config) of a Monte-Carlo run, each holding r input states that
share that row's draws, such as the basis states of a dense unitary.
Callers pass and get back a (k, 2^n, r) block; inside the executor
every kernel acts on the same amplitudes as a shot-minor (2^n, r, k)
block, the register rows the contiguous innermost axis, so that each
elementwise loop runs over all k rows and not over the few amplitudes a
row holds per qubit.  A noisy application applies one operand per
register row to all r inputs; the executor builds the operands from the
rows' draws, those of one instruction class together (see _operands),
with the register rows last too: (2, 2, k) matrices, (4, k) entangler
or (L, k) analog phases, or a banged window's (2^m, 2^m, C, k) class
unitaries.
Analog instructions evolve under the register's one analog resource, the
unit all-to-all ZZ Hamiltonian sum_{j<k} Z_j Z_k.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ising import _check_register_size
from .statevector import PAULI_X, SQRT2, Statevector, pauli


class UnsupportedGateError(ValueError):
    """Raised when an instruction has no noisy counterpart."""


def _check_qubit(q: int, name: str = "qubit") -> None:
    if q < 1:
        raise ValueError(f"{name} must be >= 1, got {q}")


def _rotations(theta: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """cos(t)*1 + i*sin(t)*P for each angle t of a (..., k) array: a (..., 2, 2, k) stack.

    Written entry by entry; Pauli entries are 0, +-1 or +-i, so every
    product is exact and the bits are the broadcast formula's.
    """
    c, s = np.cos(theta), 1j * np.sin(theta)
    out = np.empty(theta.shape[:-1] + (2, 2) + theta.shape[-1:], dtype=complex)
    for a, b in itertools.product(range(2), repeat=2):
        out[..., a, b, :] = c * _I2[a, b] + s * axis[..., a, b]
    return out


def _constant(array: np.ndarray) -> np.ndarray:
    """Mark an operand that every instance or call shares as read-only."""
    array.flags.writeable = False
    return array


_I2 = _constant(np.eye(2))


def _apply_matrix_1q(amps: np.ndarray, target: int, matrices: np.ndarray) -> np.ndarray:
    """Apply 2x2 matrices on qubit ``target`` of a (2^n, r, k) block.

    ``matrices`` is (2, 2, k), one per register row, or (2, 2, 1), one for every row.
    """
    a = amps.reshape(1 << (target - 1), 2, -1, amps.shape[-1])
    out = matrices[:, 0, None] * a[:, None, 0] + matrices[:, 1, None] * a[:, None, 1]
    return out.reshape(amps.shape)


# The kernel entry points that Rotation, HadamardGate and XGate share; each
# binds them in its own class body, where perfbench's tracer looks up an
# instruction's kernels.  ``value`` holds the register rows' (2, 2, k) matrices.
def _single_qubit_noisy(self, amps: np.ndarray, n: int, value: np.ndarray) -> np.ndarray:
    return _apply_matrix_1q(amps, self.qubit, value)


def _single_qubit_ideal(self, amps: np.ndarray, n: int) -> np.ndarray:
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

    channel = "sqg"
    noisy_apply = _single_qubit_noisy
    ideal_apply = _single_qubit_ideal

    @staticmethod
    def _operands(values: np.ndarray, angles, axes) -> np.ndarray:
        return _rotations(angles * values, axes)

    @property
    def _ideal(self) -> np.ndarray:
        return self._ideal_of(self.angle, self.axis)

    @staticmethod
    @functools.lru_cache(maxsize=1024)
    def _ideal_of(angle: float, axis: str) -> np.ndarray:
        return _constant(Rotation._operands(np.ones(1), angle, pauli(axis)))


_Z_PLUS_X = np.array([[1, 1], [1, -1]], dtype=complex)


@dataclass(frozen=True)
class HadamardGate:
    """Hadamard via its generator (pi/2)(1 - (Z+X)/sqrt2); noise scales the generator."""

    qubit: int

    def __post_init__(self) -> None:
        _check_qubit(self.qubit)

    channel = "sqg"
    noisy_apply = _single_qubit_noisy
    ideal_apply = _single_qubit_ideal

    @staticmethod
    def _operands(values: np.ndarray) -> np.ndarray:
        # exp(i*v*H_H) with H_H = (pi/2)(1 - (Z+X)/sqrt2); H_H has eigenvalues {0, pi}
        half = (np.pi * values / 2.0)[..., None, None, :]
        return np.exp(1j * half) * (
            np.cos(half) * _I2[..., None] - 1j * np.sin(half) * (_Z_PLUS_X[..., None] / SQRT2)
        )

    _ideal = _constant(_operands(np.ones(1)))


@dataclass(frozen=True)
class XGate:
    """A pi/2 X rotation, exp(i pi/2 X) = iX; noise scales the rotation angle."""

    qubit: int

    def __post_init__(self) -> None:
        _check_qubit(self.qubit)

    channel = "sqg"
    noisy_apply = _single_qubit_noisy
    ideal_apply = _single_qubit_ideal

    @staticmethod
    def _operands(values: np.ndarray) -> np.ndarray:
        return _rotations(np.pi * values / 2.0, PAULI_X)

    _ideal = _constant(_operands(np.ones(1)))


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

    channel = "tqg"

    def noisy_apply(self, amps: np.ndarray, n: int, value: np.ndarray) -> np.ndarray:
        # ``value`` holds the register rows' (4, k) branch phases.
        return _apply_diag_2q(amps, n, self.qubit_a, self.qubit_b, value)

    def ideal_apply(self, amps: np.ndarray, n: int) -> np.ndarray:
        return _apply_diag_2q(amps, n, self.qubit_a, self.qubit_b, self._ideal)

    @staticmethod
    def _operands(values: np.ndarray) -> np.ndarray:
        phi = (np.pi / 4.0) * (1.0 + values)
        out = np.empty(phi.shape[:-1] + (4,) + phi.shape[-1:], dtype=complex)
        out[..., 0, :] = out[..., 3, :] = np.exp(1j * phi)
        out[..., 1, :] = out[..., 2, :] = np.exp(-1j * phi)
        return out

    _ideal = _constant(_operands(np.zeros(1)))


@functools.lru_cache(maxsize=None)
def _branch_index(n_qubits: int, q1: int, q2: int) -> np.ndarray:
    """Per basis state, the (q1, q2) branch 2*b1 + b2 its bits select."""
    indices = np.arange(1 << n_qubits)
    branch = 2 * ((indices >> (n_qubits - q1)) & 1) + ((indices >> (n_qubits - q2)) & 1)
    return _constant(branch)


def _apply_diag_2q(
    amps: np.ndarray, n_qubits: int, q1: int, q2: int, phases: np.ndarray
) -> np.ndarray:
    """Multiply a (2^n, r, k) block by per-branch phases of the (q1, q2) subspace.

    ``phases`` is (4, k), one set per register row, or (4, 1), one for every row.
    np.multiply keeps the product amps * phases: numpy may evaluate a large
    ``amps * temporary`` in place as ``temporary * amps`` (temporary
    elision), and its vectorized complex product rounds the two differently.
    """
    return np.multiply(amps, phases[_branch_index(n_qubits, q1, q2), None])


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
        return _apply_diag_2q(amps, n, self.control, self.target, self._ideal)

    @functools.cached_property
    def _ideal(self) -> np.ndarray:
        return np.array([[1.0], [1.0], [1.0], [np.exp(2j * np.pi / 2 ** self.k)]])


@dataclass(frozen=True)
class AnalogBlock:
    """Evolution under the unit all-to-all resource for a signed duration."""

    duration: float
    kind: str = "stepwise"  # which analog-noise width applies

    def __post_init__(self) -> None:
        if not math.isfinite(self.duration):
            raise ValueError("duration must be finite")
        if self.kind not in ("stepwise", "banged"):
            raise ValueError(f"unknown analog block kind {self.kind!r}")

    @property
    def channel(self) -> str:
        return "abn_s" if self.kind == "stepwise" else "abn_b"

    def noisy_apply(self, amps: np.ndarray, n: int, value: np.ndarray) -> np.ndarray:
        # ``value`` holds the register rows' (L, k) phases at the L distinct
        # levels, gathered onto the basis: every amplitude's exponent is the
        # same product as with its own energy, in the order _apply_diag_2q keeps.
        return np.multiply(amps, value[_energy(n)[1], None])

    def ideal_apply(self, amps: np.ndarray, n: int) -> np.ndarray:
        phases = self._operands(np.zeros(1), self.duration, _energy(n)[0])
        return self.noisy_apply(amps, n, phases)

    @staticmethod
    def _operands(values: np.ndarray, durations, levels: np.ndarray) -> np.ndarray:
        return np.exp(1j * (durations + values)[..., None, :] * levels[:, None])


@dataclass(frozen=True)
class BangedWindow:
    """X drives of amplitude pi/(2*duration) on top of the unit all-to-all resource.

    Each driven qubit completes a pi/2 X rotation (i.e. iX) over the window
    while the resource keeps evolving.  Noise values scale the per-qubit drive
    amplitudes independently, one sqg draw per driven qubit.  The resource
    is homogeneous, so a block's Hamiltonian depends only on how many
    undriven qubits are set, and the kernel diagonalizes one block per
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

    channel = "sqg"

    def noisy_apply(self, amps: np.ndarray, n: int, value: np.ndarray) -> np.ndarray:
        # ``value`` holds the class unitaries of this window's drive rows.
        return _apply_window_unitaries(amps, n, self.qubits, value)

    def ideal_apply(self, amps: np.ndarray, n: int) -> np.ndarray:
        u = _ideal_window_unitaries(self.duration, n, len(self.qubits))
        return _apply_window_unitaries(amps, n, self.qubits, u)


@dataclass(frozen=True)
class Permute:
    """Noiseless relabeling of basis indices at readout: out[i] = in[index_map[i]]."""

    index_map: tuple[int, ...]

    def __post_init__(self) -> None:
        perm = tuple(map(int, self.index_map))
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("index_map is not a permutation")
        object.__setattr__(self, "index_map", perm)

    channel = None  # draws nothing

    def noisy_apply(self, amps: np.ndarray, n: int, value) -> np.ndarray:
        return self.ideal_apply(amps, n)

    def ideal_apply(self, amps: np.ndarray, n: int) -> np.ndarray:
        return amps[self._index]

    @functools.cached_property
    def _index(self) -> np.ndarray:
        return np.asarray(self.index_map)


@functools.lru_cache(maxsize=None)
def _window_structure(n: int, qubits: tuple[int, ...]):
    """Gather index, and weight class per row followed by one padding class.

    Row r of the (2^(n-m), 2^m) index holds the basis states that share one
    pattern of undriven bits; column b sets the driven bits, qubits[0] most
    significant.  Under the homogeneous resource a row's block depends only on
    w, the number of undriven bits set.  Flipping every bit maps weight w to
    n-m-w and commutes with the X drives, so a row with w > (n-m)/2 reads its
    driven columns complemented and shares the block of class n-m-w.  The
    padding (see _apply_window_unitaries) gathers class 0 once more.
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
    weight = np.append(np.minimum(weight, n - m - weight), 0)
    return _constant(index), _constant(weight)


def _class_energies(n: int, m: int) -> np.ndarray:
    """The resource energies on each weight class's block of m driven qubits, (C, 2^m).

    Class c's block at column b has weight c + popcount(b), whichever m
    qubits are driven (see _window_structure).
    """
    weight = np.arange((n - m) // 2 + 1)[:, None] + np.bitwise_count(np.arange(1 << m))
    return _energy(n)[0][np.minimum(weight, n - weight)]


@functools.lru_cache(maxsize=None)
def _x_eigenbasis(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-qubit Hadamard basis, in which every sum of X drives is diagonal.

    Returns Q = H^(x)m, symmetric and orthogonal, and the (m, 2^m) eigenvalues
    of each X_q on its columns: +1 where bit q of the column is 0, -1 where
    it is 1, the first qubit most significant.
    """
    bits = (np.arange(1 << m) >> np.arange(m - 1, -1, -1)[:, None]) & 1
    q = (1.0 - 2.0 * ((bits.T @ bits) & 1)) / math.sqrt(1 << m)
    return _constant(q), _constant(1.0 - 2.0 * bits)


# Sweep cap of a Jacobi solve; window blocks converge in two to seven.
_JACOBI_SWEEPS = 30


def _jacobi(h: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (d, B) and eigenvector columns (d, d, B) of B real symmetric blocks h (d, d, B).

    Cyclic Jacobi (Golub & Van Loan, Matrix Computations, sec. 8.5) with the
    batch axis last: each sweep rotates, pair by pair, every block whose
    (p, q) element exceeds eps * ||h||_F, and a block leaves the solve once
    no element does.  The eigenvectors are accumulated from ``basis``.
    Every step is elementwise, so no bit of a block depends on the others.
    A solve that needs more than _JACOBI_SWEEPS sweeps raises RuntimeError.
    """
    dim, _, size = h.shape
    pairs = list(itertools.combinations(range(dim), 2))
    a = [[h[i, j] for j in range(dim)] for i in range(dim)]  # rebound, never written in place
    for i, j in pairs:
        a[j][i] = a[i][j]
    v = np.repeat(basis[:, :, None], size, axis=2)
    tol = np.finfo(float).eps * np.sqrt(sum(entry * entry for row in a for entry in row))
    values, vectors = np.empty((dim, size)), np.empty((dim, dim, size))
    live = np.arange(size)
    with np.errstate(divide="ignore", invalid="ignore"):  # t of a pair left unrotated
        for _ in range(_JACOBI_SWEEPS + 1):
            active = np.logical_or.reduce([np.abs(a[p][q]) > tol for p, q in pairs])
            if not active.all():
                done = ~active
                for i in range(dim):
                    values[i, live[done]] = a[i][i][done]
                vectors[:, :, live[done]] = v[:, :, done]
                if not active.any():
                    return values, vectors
                live, v, tol = live[active], v[:, :, active], tol[active]
                for i in range(dim):
                    for j in range(i, dim):
                        a[i][j] = a[j][i] = a[i][j][active]
            for p, q in pairs:
                apq = a[p][q]
                rotate = np.abs(apq) > tol
                if not rotate.any():
                    continue
                # tan of the angle that zeroes a_pq, the smaller root (GVL alg. 8.5.1)
                x, y = a[q][q] - a[p][p], apq + apq
                t = np.where(rotate, y / (x + np.copysign(np.sqrt(x * x + y * y), x)), 0.0)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                a[p][p], a[q][q] = a[p][p] - t * apq, a[q][q] + t * apq
                a[p][q] = a[q][p] = np.where(rotate, 0.0, apq)
                for r in range(dim):
                    if r != p and r != q:
                        arp, arq = a[r][p], a[r][q]
                        a[r][p] = a[p][r] = c * arp - s * arq
                        a[r][q] = a[q][r] = s * arp + c * arq
                vp, vq = v[:, p], v[:, q]
                v[:, p], v[:, q] = c * vp - s * vq, s * vp + c * vq
    raise RuntimeError(f"Jacobi solve did not converge in {_JACOBI_SWEEPS} sweeps")


def _window_unitaries(energies: np.ndarray, duration: float, drive_values: np.ndarray) -> np.ndarray:
    """The class blocks of exp(i*duration*(H_res + sum_q c_q X_q)), one set per drive row.

    ``energies`` (C, 2^m) holds the resource energies on each weight class's
    block (see _class_energies) and row s of drive_values (k, m) the drive
    scales c_q, so the rows may come from several windows of one duration
    and class energies.  The k*C blocks are solved by _jacobi in the
    Hadamard basis, where the drives are diagonal and the blocks start close
    to diagonal, and returned in its batch-last order, (2^m, 2^m, C, k).
    """
    q, signs = _x_eigenbasis(drive_values.shape[1])
    classes, dim = energies.shape
    coeffs = (np.pi / (2.0 * duration)) * drive_values
    drives = sum(coeffs[:, i, None] * sign for i, sign in enumerate(signs))  # (k, 2^m)
    h = np.empty((dim, dim, classes, len(drive_values)))
    h[...] = ((q * energies[:, None, :]) @ q).transpose(1, 2, 0)[..., None]  # Q diag(E) Q
    diagonal = np.arange(dim)
    h[diagonal, diagonal] += drives.T[:, None]
    w, v = _jacobi(h.reshape(dim, dim, -1), q)
    del h  # the Hamiltonians' memory serves the U below
    phases = np.exp(1j * duration * w)
    # U is symmetric, as (v_a v_b) e^{i dt w} equals (v_b v_a) e^{i dt w}: sum
    # the upper entries over j in order, then read each entry from its pair.
    rows, cols = np.triu_indices(dim)
    mirror = np.empty((dim, dim), dtype=np.intp)
    mirror[rows, cols] = mirror[cols, rows] = np.arange(len(rows))
    upper = v[rows, 0] * v[cols, 0] * phases[0]
    for j in range(1, dim):
        upper += v[rows, j] * v[cols, j] * phases[j]
    return upper[mirror].reshape(dim, dim, classes, len(drive_values))


@functools.lru_cache(maxsize=256)
def _ideal_window_unitaries(duration: float, n: int, m: int) -> np.ndarray:
    """A window's read-only ideal class unitaries (2^m, 2^m, C, 1), keyed by value.

    Every program with the same width, register size and driven-qubit
    count shares them.
    """
    return _constant(_window_unitaries(_class_energies(n, m), duration, np.ones((1, m))))


def _apply_window_unitaries(
    amps: np.ndarray, n: int, qubits: tuple[int, ...], u: np.ndarray
) -> np.ndarray:
    """Apply a window's class unitaries to a (2^n, r, k) block.

    ``u`` is (2^m, 2^m, C, k), one set per register row, or (2^m, 2^m, C, 1),
    one for every row, which the matmul broadcasts.  Each (register row,
    input) pair is one matvec of numpy's own matmul loop, whose arithmetic
    does not depend on strides, so no row's bits depend on the others.
    numpy would send a matrix with a unit stride to BLAS, which rounds
    differently; the gathered unitaries hold a padding class after the R
    rows' (see _window_structure), so no matrix stride is one element.
    """
    index, weight = _window_structure(n, qubits)
    matrices = np.take(u, weight, axis=2).transpose(3, 2, 0, 1)[:, :-1, None]  # (k, R, 1, d, d)
    inputs = np.take(amps, index, axis=0).transpose(3, 0, 2, 1)[..., None]  # (k, R, r, d, 1)
    out = np.empty(amps.shape, dtype=complex)
    out[index] = (matrices @ inputs)[..., 0].transpose(1, 3, 2, 0)
    return out


@functools.lru_cache(maxsize=None)
def _energy(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The resource's energy levels and each basis state's level index, read-only, once per n.

    A basis state of Hamming weight w has energy sum_{j<k} z_j z_k =
    ((n - 2w)^2 - n)/2, the same as weight n - w, so it reads level
    min(w, n - w): floor(n/2)+1 levels for the 2^n states, 4 against 128 at n = 7.
    """
    weight = np.bitwise_count(np.arange(1 << n)).astype(np.intp)
    levels = ((n - 2 * np.arange(n // 2 + 1)) ** 2 - n) / 2
    return _constant(levels), _constant(np.minimum(weight, n - weight))


# The highest qubit an instruction of each class names (0 for none); a Program holds no other class.
_HIGHEST_QUBIT = {
    **dict.fromkeys((Rotation, HadamardGate, XGate), lambda instr: instr.qubit),
    Entangler: lambda instr: max(instr.qubit_a, instr.qubit_b),
    ControlledPhase: lambda instr: max(instr.control, instr.target),
    AnalogBlock: lambda instr: 0,
    BangedWindow: lambda instr: instr.qubits[-1],  # ascending
    Permute: lambda instr: 0,
}


@dataclass(frozen=True)
class Program:
    """A sequence of the eight instruction classes over a fixed register."""

    n_qubits: int
    instructions: tuple
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_register_size(self.n_qubits)
        object.__setattr__(self, "instructions", tuple(self.instructions))
        n = self.n_qubits
        for instr in self.instructions:
            try:
                highest = _HIGHEST_QUBIT[type(instr)]
            except KeyError:
                raise ValueError(f"{type(instr).__name__} is not an instruction class") from None
            if highest(instr) > n:
                raise ValueError(f"instruction {instr!r} exceeds {n} qubits")
            if type(instr) is Permute and len(instr.index_map) != 1 << n:
                raise ValueError("permutation size does not match the register")

    @functools.cached_property
    def _operand_layout(self):
        """The channel of each draw site, in program order, and the operand groups (see _operands).

        The one walk that places draws: an instruction draws at one site of
        its ``channel`` (a window at one per driven qubit, None at none), and
        one with no channel raises UnsupportedGateError.  Built on the first
        noisy run and kept on the program, so it dies with it.  Instructions
        of one class form a group, in program order, and so do windows of one
        width and driven-qubit count, which share their class energies (see
        _class_energies).
        """
        channels, members = [], {}
        for index, instr in enumerate(self.instructions):
            try:
                channel = instr.channel
            except AttributeError:
                raise UnsupportedGateError(f"no noise model for {type(instr).__name__}") from None
            key, sites = type(instr), 1
            if key is BangedWindow:
                sites = len(instr.qubits)
                key = (key, instr.duration, sites)
            if channel is not None:
                members.setdefault(key, []).append((index, range(len(channels), len(channels) + sites)))
                channels += [channel] * sites
        groups = []
        for key, placed in members.items():
            indices, columns = zip(*placed)
            instrs = [self.instructions[index] for index in indices]
            if key is Rotation:
                angles = np.array([instr.angle for instr in instrs], dtype=float)[:, None]
                axes = np.stack([pauli(instr.axis) for instr in instrs])[:, None]
                group = (Rotation._operands, (angles, axes), _OPERAND_ENTRIES // 4)
            elif key is AnalogBlock:
                levels = _energy(self.n_qubits)[0]
                durations = np.array([instr.duration for instr in instrs], dtype=float)[:, None]
                build = functools.partial(AnalogBlock._operands, levels=levels)
                group = (build, (durations,), _OPERAND_ENTRIES // len(levels))
            elif isinstance(key, tuple):
                energies = _class_energies(self.n_qubits, len(instrs[0].qubits))
                build = functools.partial(_window_operands, energies, instrs[0].duration)
                group = (build, (), _WINDOW_BLOCKS // len(energies))
            else:
                group = (key._operands, (), _OPERAND_ENTRIES // 4)
            columns = np.array(columns)
            columns = columns if isinstance(key, tuple) else columns[:, 0]  # (J, m) only for windows
            groups.append(_OperandGroup(indices, columns, *group))
        return tuple(channels), tuple(groups)


# Operand entries one build call makes at most (256 KB of complex values),
# and class blocks one window solve takes at most, unless a single
# instruction needs more.  A solve costs many more numpy calls than a gate
# build; smaller gate builds stay in cache.
_OPERAND_ENTRIES = 1 << 14
_WINDOW_BLOCKS = 2048


class _OperandGroup(NamedTuple):
    """Noisy instructions whose operands one call builds, and how (see _operands).

    ``columns`` holds their draw sites, (J,) or a window's (J, m).
    ``build(values, *rows)`` takes the draws of J of them, (J, k) or
    (J, k, m), with the matching rows of each array in ``params``, and
    returns their (J, ..., k) operands, or windows' (J, 2^m, 2^m, C, k).
    One call covers at most ``capacity`` register rows, J*k, unless J is 1.
    """

    indices: tuple[int, ...]
    columns: np.ndarray
    build: object
    params: tuple[np.ndarray, ...]
    capacity: int


def _window_operands(energies, duration, values):
    """The class unitaries (J, 2^m, 2^m, C, k) of J windows' (J, k, m) drive rows."""
    u = _window_unitaries(energies, duration, values.reshape(-1, values.shape[-1]))
    return np.moveaxis(u.reshape(u.shape[:3] + values.shape[:2]), 3, 0)


def _operand_chunk(group: _OperandGroup, positions: slice, values: np.ndarray) -> dict:
    """Operands of the group's instructions at ``positions``, by instruction index.

    Their draws are gathered from the (k, sites) ``values``, (J, k, ...)
    in C order, as a stack of per-instruction draws would be.
    """
    draws = np.ascontiguousarray(values[:, group.columns[positions]].swapaxes(0, 1))
    operands = group.build(draws, *(param[positions] for param in group.params))
    return dict(zip(group.indices[positions], operands))


def _operands(program: Program, values: np.ndarray, rows: int):
    """Yield each instruction's operand, built from the site values, or None where it draws nothing.

    An instruction's operand is built, when it is reached, in one call with
    those of the next instructions of its group, as many as keep the chunk
    within the group's capacity, at least one (see Program._operand_layout
    and _operand_chunk); the elementwise steps of each build give every
    operand the bits it has when built alone.
    """
    channels, groups = program._operand_layout
    if values.shape != (rows, len(channels)):
        raise ValueError(f"expected draws of shape {(rows, len(channels))}, got {values.shape}")
    chunks = {}  # each chunk's positions in its group, by its first instruction
    for group in groups:
        size = max(1, group.capacity // rows)
        for start in range(0, len(group.indices), size):
            chunks[group.indices[start]] = (group, slice(start, start + size))
    built: dict[int, np.ndarray] = {}
    for index in range(len(program.instructions)):
        if index in chunks:
            # ``chunk`` holds the last build until the next one: freed as soon
            # as its last operand is applied, a window chunk's memory went back
            # to the system and was faulted in again by the next solve (twice
            # the page faults of an mc-paper pass).
            chunk = _operand_chunk(*chunks[index], values)
            built.update(chunk)
        yield built.pop(index, None)


def _run(program: Program, block: np.ndarray, draws: np.ndarray | None = None) -> np.ndarray:
    """Apply the program to a (k, 2^n, r) block: the one loop over instructions.

    The block is copied once into the shot-minor (2^n, r, k) layout that
    every kernel takes, and the result is a (k, 2^n, r) view of the last
    kernel's output.
    ``draws`` is None, an ideal run, or the (k, sites) noise values at the
    program's draw sites (see Program._operand_layout), one row per
    register row, shared by its r inputs.  They reach each noisy_apply as
    its operand: matrices, phases or class unitaries, one per register row
    (see _operands); an instruction that draws nothing runs ideally.
    """
    n = program.n_qubits
    values = itertools.repeat(None) if draws is None else _operands(program, draws, len(block))
    amps = np.ascontiguousarray(np.moveaxis(block, 0, -1))
    for instr, value in zip(program.instructions, values):
        if value is None:
            amps = instr.ideal_apply(amps, n)
        else:
            amps = instr.noisy_apply(amps, n, value)
    return np.moveaxis(amps, -1, 0)


def execute_program(state: Statevector, program: Program) -> Statevector:
    """Run a program ideally on a state."""
    if state.n_qubits != program.n_qubits:
        raise ValueError("state and program disagree on the number of qubits")
    amps = _run(program, state.amplitudes[None, :, None])[0, :, 0]
    return Statevector(program.n_qubits, amps)


def program_unitary(program: Program) -> np.ndarray:
    """Dense matrix of the whole program (exactness oracle; small registers only)."""
    return _run(program, np.eye(1 << program.n_qubits, dtype=complex)[None])[0]
