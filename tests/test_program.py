"""Tests for circuit instructions and program execution."""

import numpy as np
import pytest

from daqft.ising import IsingSpec, coupling_diagonal
from daqft.program import (
    AnalogBlock,
    BangedWindow,
    ControlledPhase,
    Entangler,
    HadamardGate,
    Permute,
    Program,
    Rotation,
    UnsupportedGateError,
    XGate,
    execute_program,
    program_unitary,
)
from daqft.statevector import PAULI_X, Statevector, basis_state
from oracles import expm_evolve, kron_lift, rotation_matrix


def random_state(n, rng):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return Statevector(n, amps / np.linalg.norm(amps))


def instruction_matrix(instr, n, value=None, resource=None):
    """Dense matrix of one instruction: run on each basis state, every draw equal to ``value``."""
    program = Program(n, (instr,), resource=resource)
    columns = [
        execute_program(basis_state(n, index), program, lambda _: value).amplitudes
        for index in range(2 ** n)
    ]
    return np.stack(columns, axis=1)


class TestValidation:
    """Instruction constructor checks."""

    def test_rotation_axis(self):
        """Only x, y, z axes exist."""
        with pytest.raises(ValueError):
            Rotation(1, "q", 0.1)

    def test_entangler_distinct_qubits(self):
        """Entanglers act on two different qubits."""
        with pytest.raises(ValueError, match="differ"):
            Entangler(2, 2)

    def test_controlled_phase_order(self):
        """The phase index k starts at 1."""
        with pytest.raises(ValueError, match="k must be"):
            ControlledPhase(1, 2, 0)

    def test_analog_block_kind(self):
        """Analog blocks are stepwise or banged."""
        with pytest.raises(ValueError, match="kind"):
            AnalogBlock(1.0, "other")

    def test_window_qubits_sorted_unique(self):
        """Window qubits must be ascending and distinct."""
        with pytest.raises(ValueError):
            BangedWindow(0.1, (2, 1))
        with pytest.raises(ValueError):
            BangedWindow(0.1, (1, 1))
        with pytest.raises(ValueError, match="positive"):
            BangedWindow(0.0, (1,))

    def test_permute_is_permutation(self):
        """Readout maps must be permutations."""
        with pytest.raises(ValueError, match="permutation"):
            Permute((0, 0, 1, 2))

    def test_program_bounds(self):
        """Instructions may not address qubits beyond the register."""
        with pytest.raises(ValueError, match="exceeds"):
            Program(2, (HadamardGate(3),))

    def test_analog_requires_resource(self):
        """Analog instructions need a coupling resource."""
        with pytest.raises(ValueError, match="resource"):
            Program(2, (AnalogBlock(0.5),))


class TestIdealSemantics:
    """Ideal instruction matrices against closed forms."""

    def test_x_gate_is_ix(self):
        """exp(i pi/2 X) equals iX."""
        assert np.allclose(instruction_matrix(XGate(1), 1), 1j * PAULI_X, atol=1e-12)

    def test_hadamard(self):
        """The generator form reproduces the Hadamard matrix exactly."""
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(instruction_matrix(HadamardGate(1), 1), hadamard, atol=1e-12)

    def test_rotation(self):
        """Rotation instruction equals the rotation matrix."""
        got = instruction_matrix(Rotation(1, "z", -0.81), 1)
        assert np.allclose(got, rotation_matrix("z", -0.81), atol=1e-12)

    def test_entangler(self):
        """The entangler is exp(i pi/4 ZZ)."""
        got = instruction_matrix(Entangler(1, 2), 2)
        expected = np.diag(np.exp(1j * np.pi / 4 * np.array([1, -1, -1, 1])))
        assert np.allclose(got, expected, atol=1e-12)

    def test_controlled_phase(self):
        """cR_k puts 2 pi / 2^k of phase on |11>."""
        got = instruction_matrix(ControlledPhase(1, 2, 3), 2)
        expected = np.diag([1.0, 1.0, 1.0, np.exp(2j * np.pi / 8)])
        assert np.allclose(got, expected, atol=1e-12)

    def test_permute(self):
        """Permute reorders amplitudes."""
        state = basis_state(2, 1)
        program = Program(2, (Permute((3, 2, 1, 0)),))
        out = execute_program(state, program)
        assert out.amplitudes[2] == 1.0


class TestNoisySemantics:
    """Noise draws perturb the generators as documented."""

    def test_rotation_scales_angle(self):
        """A draw of v turns exp(i a P) into exp(i a v P)."""
        got = instruction_matrix(Rotation(1, "y", 0.4), 1, value=1.25)
        assert np.allclose(got, rotation_matrix("y", 0.5), atol=1e-12)

    def test_hadamard_noisy_matches_expm(self):
        """The closed form equals exp(i v H_H) with H_H = (pi/2)(1-(Z+X)/sqrt2)."""
        generator = (np.pi / 2) * (np.eye(2) - (np.array([[1, 1], [1, -1]]) / np.sqrt(2)))
        for v in (0.97, 1.0, 1.031):
            got = instruction_matrix(HadamardGate(1), 1, value=v)
            w, vecs = np.linalg.eigh(generator)
            expected = (vecs * np.exp(1j * v * w)) @ vecs.conj().T
            assert np.allclose(got, expected, atol=1e-12)

    def test_entangler_phase_offset(self):
        """A draw of eps shifts the pi/4 phase to pi/4 (1 + eps)."""
        eps = 0.3
        got = instruction_matrix(Entangler(1, 2), 2, value=eps)
        phi = np.pi / 4 * (1 + eps)
        expected = np.diag(np.exp(1j * phi * np.array([1, -1, -1, 1])))
        assert np.allclose(got, expected, atol=1e-12)

    def test_controlled_phase_has_no_noise_model(self):
        """Noisy application of cR_k is rejected."""
        with pytest.raises(UnsupportedGateError, match="ZZ construction"):
            ControlledPhase(1, 2, 2).noisy_apply(np.zeros(4, dtype=complex), 2, 1.0)


class TestAnalogExecution:
    """Analog blocks and banged windows against dense oracles."""

    def test_analog_block_phases(self):
        """A block multiplies amplitudes by exp(i t E)."""
        resource = IsingSpec.homogeneous(3)
        rng = np.random.default_rng(31)
        state = random_state(3, rng)
        program = Program(3, (AnalogBlock(-0.62),), resource=resource)
        out = execute_program(state, program)
        expected = state.amplitudes * np.exp(-0.62j * coupling_diagonal(resource))
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_analog_block_noise_shifts_duration(self):
        """A draw of delta evolves for duration + delta."""
        resource = IsingSpec.homogeneous(2)
        state = basis_state(2, 1)
        program = Program(2, (AnalogBlock(0.5),), resource=resource)
        sampler = lambda instr: 0.125
        out = execute_program(state, program, sampler)
        expected = state.amplitudes * np.exp(1j * 0.625 * coupling_diagonal(resource))
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_banged_window_matches_dense_expm(self):
        """Window evolution equals exp(i dt (H_res + sum_q (pi/2dt) X_q))."""
        rng = np.random.default_rng(37)
        resource = IsingSpec.homogeneous(3, 0.8)
        dt = 0.21
        for qubits in ((1,), (2,), (1, 3), (2, 3), (1, 2, 3)):
            window = BangedWindow(dt, qubits)
            state = random_state(3, rng)
            program = Program(3, (window,), resource=resource)
            fast = execute_program(state, program)

            ham = np.diag(coupling_diagonal(resource)).astype(complex)
            for q in qubits:
                ham += (np.pi / (2 * dt)) * kron_lift(3, q, PAULI_X)
            slow = expm_evolve(ham, dt, state.amplitudes)
            assert np.allclose(fast.amplitudes, slow, atol=1e-10)

    def test_banged_window_noise_scales_drives(self):
        """Per-qubit draws rescale each drive amplitude independently."""
        resource = IsingSpec.homogeneous(2, 0.0001)
        dt = 0.5
        window = BangedWindow(dt, (1, 2))
        state = basis_state(2, 0)
        program = Program(2, (window,), resource=resource)
        # drive qubit 1 at half amplitude: a pi/2 pulse becomes pi/4
        sampler = lambda instr: np.array([0.5, 1.0])
        out = execute_program(state, program, sampler)
        # qubit 2 flips fully, qubit 1 splits between 0 and 1
        probs = np.abs(out.amplitudes) ** 2
        assert probs[1] == pytest.approx(0.5, abs=1e-3)
        assert probs[3] == pytest.approx(0.5, abs=1e-3)


class TestProgramExecution:
    """Whole-program behavior."""

    def test_unitary_matches_execution(self):
        """program_unitary times the input equals executing the program."""
        rng = np.random.default_rng(41)
        resource = IsingSpec.homogeneous(3)
        instructions = (
            HadamardGate(1),
            Rotation(2, "z", 0.3),
            Entangler(1, 3),
            AnalogBlock(0.4),
            XGate(3),
        )
        program = Program(3, instructions, resource=resource)
        state = random_state(3, rng)
        direct = execute_program(state, program)
        via_matrix = program_unitary(program) @ state.amplitudes
        assert np.allclose(direct.amplitudes, via_matrix, atol=1e-10)

    def test_register_mismatch(self):
        """State and program sizes must agree."""
        with pytest.raises(ValueError, match="disagree"):
            execute_program(basis_state(2, 0), Program(3, (HadamardGate(1),)))

    def test_sampler_none_draws_are_ideal(self):
        """A sampler returning None for a gate applies it ideally."""
        program = Program(1, (HadamardGate(1),))
        noisy = execute_program(basis_state(1, 0), program, lambda instr: None)
        ideal = execute_program(basis_state(1, 0), program)
        assert np.allclose(noisy.amplitudes, ideal.amplitudes)
