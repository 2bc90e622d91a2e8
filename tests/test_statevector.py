"""Tests for the statevector core and its gate kernels."""

import numpy as np
import pytest

from daqft.ising import IsingSpec, all_pairs, coupling_diagonal
from daqft.program import (
    AnalogBlock,
    Entangler,
    HadamardGate,
    Program,
    Rotation,
    execute_program,
    program_unitary,
)
from daqft.statevector import (
    PAULI_X,
    PAULI_Z,
    Statevector,
    basis_state,
    fidelity,
    phase_insensitive_distance,
)
from oracles import expm_evolve, kron_lift, rotation_matrix


def random_state(n, rng):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return Statevector(n, amps / np.linalg.norm(amps))


class TestStatevector:
    """Construction and invariants."""

    def test_norm_validated(self):
        """Unnormalized amplitudes are rejected."""
        with pytest.raises(ValueError, match="normalized"):
            Statevector(1, np.array([1.0, 1.0]))

    def test_shape_validated(self):
        """The amplitude vector must have length 2^n."""
        with pytest.raises(ValueError):
            Statevector(2, np.array([1.0, 0.0]))

    def test_basis_state(self):
        """Basis states have a single unit amplitude."""
        state = basis_state(3, 5)
        assert state.amplitudes[5] == 1.0
        assert np.sum(np.abs(state.amplitudes)) == 1.0

    def test_fidelity(self):
        """Fidelity is 1 on identical states and 0 on orthogonal ones."""
        a = basis_state(2, 0)
        b = basis_state(2, 3)
        assert fidelity(a, a) == pytest.approx(1.0)
        assert fidelity(a, b) == pytest.approx(0.0)
        rng = np.random.default_rng(3)
        c = random_state(2, rng)
        assert fidelity(a, c) == pytest.approx(fidelity(c, a))


class TestGateKernels:
    """The single-qubit and diagonal two-qubit kernels, through instructions."""

    def test_single_qubit_matches_dense(self):
        """The tensor kernel agrees with the Kronecker-product oracle."""
        rng = np.random.default_rng(5)
        for n in (1, 2, 4):
            for target in range(1, n + 1):
                theta = float(rng.uniform(0, np.pi))
                state = random_state(n, rng)
                fast = execute_program(state, Program(n, (Rotation(target, "y", theta),)))
                slow = kron_lift(n, target, rotation_matrix("y", theta)) @ state.amplitudes
                assert np.allclose(fast.amplitudes, slow, atol=1e-12)

    def test_diagonal_two_qubit(self):
        """The diagonal kernel multiplies each amplitude by its pair's phase."""
        eps = 0.3
        phi = np.pi / 4 * (1 + eps)
        phases = np.exp(1j * phi * np.array([1, -1, -1, 1]))
        rng = np.random.default_rng(8)
        state = random_state(3, rng)
        out = execute_program(state, Program(3, (Entangler(1, 3),)), lambda instr: eps)
        for index in range(8):
            b1 = (index >> 2) & 1
            b3 = index & 1
            expected = state.amplitudes[index] * phases[2 * b1 + b3]
            assert out.amplitudes[index] == pytest.approx(expected)

    def test_rotation_matrix(self):
        """Rotation(q, P, theta) is exp(i theta P) for each Pauli axis."""
        theta = 0.37
        for axis in ("x", "y", "z"):
            got = program_unitary(Program(1, (Rotation(1, axis, theta),)))
            assert np.allclose(got, rotation_matrix(axis, theta), atol=1e-12)

    def test_hadamard_constant(self):
        """The Hadamard gate is (Z + X)/sqrt2 and squares to the identity."""
        hadamard = program_unitary(Program(1, (HadamardGate(1),)))
        assert np.allclose(hadamard @ hadamard, np.eye(2))
        assert np.allclose(hadamard, (PAULI_Z + PAULI_X) / np.sqrt(2))


class TestEvolution:
    """Analog evolution against the dense Hamiltonian oracle, and the oracle itself."""

    def test_diagonal_matches_dense_expm(self):
        """An analog block equals the dense matrix exponential of its resource."""
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            couplings = {pair: float(rng.normal()) for pair in all_pairs(n)}
            spec = IsingSpec(n, couplings)
            state = random_state(n, rng)
            t = float(rng.uniform(0.1, 2.0))
            fast = execute_program(state, Program(n, (AnalogBlock(t),), resource=spec))
            slow = expm_evolve(np.diag(coupling_diagonal(spec)), t, state.amplitudes)
            assert np.allclose(fast.amplitudes, slow, atol=1e-12)

    def test_expm_is_unitary(self):
        """Eigendecomposition-based evolution preserves the norm."""
        rng = np.random.default_rng(17)
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        state = random_state(3, rng)
        out = expm_evolve((raw + raw.conj().T) / 2, 0.83, state.amplitudes)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_hermiticity_validated(self):
        """Non-Hermitian matrices are rejected."""
        with pytest.raises(ValueError, match="Hermitian"):
            expm_evolve(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, np.array([1.0, 0.0]))


class TestPhaseInsensitiveDistance:
    """Unitary comparison modulo a global phase."""

    def test_zero_for_global_phase(self):
        """U and e^{i phi} U are at distance ~0."""
        rng = np.random.default_rng(23)
        u = program_unitary(Program(2, (Rotation(1, "x", 0.4), HadamardGate(2))))
        assert phase_insensitive_distance(u, np.exp(0.77j) * u) < 1e-12

    def test_positive_for_distinct(self):
        """Genuinely different unitaries are separated."""
        u = np.eye(2, dtype=complex)
        v = rotation_matrix("x", 0.5)
        assert phase_insensitive_distance(u, v) > 0.1

    def test_shape_check(self):
        """Mismatched shapes are rejected."""
        with pytest.raises(ValueError):
            phase_insensitive_distance(np.eye(2), np.eye(4))
