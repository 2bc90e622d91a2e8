"""Dense oracles the tests compare the simulator's kernels against, and noisy runs.

They build closed-form 2x2 rotations, full 2^n x 2^n operators from Kronecker
products, and matrix exponentials, sharing no code with the kernels under test.
``reference_sampler`` writes one shot's noise draws out per instruction with
rng.uniform and rng.normal, sharing no code with the noise-site table.
``site_values`` lays per-instruction draws out as the (rows, sites) value
matrix that ``program._run`` takes, the one path by which noise values reach
the kernels (``execute_program`` runs ideally only), and ``run_with_draws``
runs a program under them.
"""

import numpy as np

from daqft.program import (
    AnalogBlock,
    BangedWindow,
    ControlledPhase,
    Entangler,
    HadamardGate,
    Permute,
    Rotation,
    XGate,
    _run,
)
from daqft.statevector import Statevector

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


def window_class_unitaries(energies, duration, drive_values):
    """Class blocks exp(i*duration*(diag(E_c) + sum_q (pi/(2*duration)) c_q X_q)), via numpy's eigh.

    ``energies`` (C, 2^m) holds each class block's diagonal and row s of
    ``drive_values`` (k, m) the drive scales c_q, the first driven qubit the
    most significant bit of a block index.  Returns (k, C, 2^m, 2^m).
    """
    classes, dim = energies.shape
    m = drive_values.shape[1]
    lifted = np.stack(
        [np.kron(np.kron(np.eye(2 ** q), PAULIS["x"].real), np.eye(2 ** (m - q - 1))) for q in range(m)]
    )
    coeffs = (np.pi / (2.0 * duration)) * drive_values
    drives = np.tensordot(coeffs, lifted, axes=1)  # (k, 2^m, 2^m)
    h = drives[:, None] + energies[None, :, :, None] * np.eye(dim)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * duration * w)[..., None, :]) @ v.swapaxes(-1, -2)


def reference_sampler(config, rng):
    """Per-instruction draws written out with rng.uniform and rng.normal, in program order.

    It shares no code with the site table, so it is an independent oracle
    for the table's draws.
    """
    half = config.sqgn * config.error_scale

    def sampler(instr):
        if isinstance(instr, (Rotation, XGate, HadamardGate)):
            return rng.uniform(1.0 - half, 1.0 + half)
        if isinstance(instr, BangedWindow):
            return np.array([rng.uniform(1.0 - half, 1.0 + half) for _ in instr.qubits])
        if isinstance(instr, Entangler):
            return rng.normal(0.0, config.tqgn * config.error_scale)
        if isinstance(instr, AnalogBlock):
            width = config.abn_s if instr.kind == "stepwise" else config.abn_b
            return rng.normal(0.0, width * config.error_scale)
        assert isinstance(instr, Permute), instr
        return None

    return sampler


def site_values(program, draws, rows=1):
    """Per-instruction draws as one (rows, sites) value matrix, the sites in program order.

    An entry of ``draws`` is a number or (rows,) array, or a window's m
    drive scales, (m,) or (rows, m).  None stands for the instruction's
    ideal value at each of its sites: 1 for a single-qubit gate or a
    window (an sqg amplitude factor), 0 otherwise (an offset).  Readout
    permutations and controlled phases have no sites.
    """
    columns = [np.empty((rows, 0))]
    for instr, value in zip(program.instructions, draws):
        if isinstance(instr, (Permute, ControlledPhase)):
            continue
        width = len(instr.qubits) if isinstance(instr, BangedWindow) else 1
        if value is None:
            sqg = isinstance(instr, (Rotation, XGate, HadamardGate, BangedWindow))
            value = np.full(width, 1.0 if sqg else 0.0)
        columns.append(np.broadcast_to(np.reshape(value, (-1, width)), (rows, width)))
    return np.hstack(columns)


def run_with_draws(state_or_block, program, draw):
    """Run a program with one register row's draws, given per instruction by draw(instr).

    ``draw`` is called once per instruction, in program order, and returns
    None (the instruction's ideal value, see ``site_values``), a number, or
    an m-qubit window's m drive scales.  A Statevector runs as a
    (1, 2^n, 1) block and returns a Statevector; an array is a (1, 2^n, r)
    block whose r inputs share the draws, and the output block is returned.
    """
    values = site_values(program, [draw(instr) for instr in program.instructions])
    if isinstance(state_or_block, Statevector):
        amps = _run(program, state_or_block.amplitudes[None, :, None], values)[0, :, 0]
        return Statevector(program.n_qubits, amps)
    return _run(program, state_or_block, values)
