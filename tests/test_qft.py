"""Tests for the Fourier transform reference, circuit, and test states."""

import numpy as np
import pytest

from daqft.program import HadamardGate, Program, execute_program, program_unitary
from daqft.qft import (
    alpha,
    beta_state,
    bit_reversal_permutation,
    build_dqc_circuit,
    build_qft_plan,
    exact_qft,
    ghz_state,
    qft_matrix,
    readout_instruction,
    theta,
    w_state,
    zz_gate_sequence,
)
from daqft.statevector import Statevector, fidelity, phase_insensitive_distance


def random_state(n, rng):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return Statevector(n, amps / np.linalg.norm(amps))


def circuit_with_readout(n, **kwargs):
    gates = build_dqc_circuit(n, **kwargs) + (readout_instruction(n),)
    return Program(n, gates)


class TestExactQft:
    """The FFT-based reference transform."""

    def test_matrix_elements(self):
        """QFT matrix is omega^{jk} / sqrt(dim)."""
        for n in (1, 2, 3):
            dim = 2 ** n
            omega = np.exp(2j * np.pi / dim)
            expected = np.array(
                [[omega ** (j * k) for k in range(dim)] for j in range(dim)]
            ) / np.sqrt(dim)
            assert np.allclose(qft_matrix(n), expected, atol=1e-12)

    def test_exact_qft_matches_matrix(self):
        """Statevector transform equals matrix multiplication."""
        rng = np.random.default_rng(3)
        for n in (1, 2, 4):
            state = random_state(n, rng)
            via_fft = exact_qft(state)
            via_matrix = qft_matrix(n) @ state.amplitudes
            assert np.allclose(via_fft.amplitudes, via_matrix, atol=1e-12)

    def test_unitary(self):
        """The transform preserves norms."""
        rng = np.random.default_rng(5)
        state = random_state(3, rng)
        assert np.linalg.norm(exact_qft(state).amplitudes) == pytest.approx(1.0)


class TestAngles:
    """Rotation-angle bookkeeping."""

    def test_theta_values(self):
        """theta(k) = pi / 2^{k+1}."""
        assert theta(2) == pytest.approx(np.pi / 8)
        assert theta(3) == pytest.approx(np.pi / 16)
        with pytest.raises(ValueError):
            theta(1)

    def test_alpha_values(self):
        """Couplings vanish off the block row and halve with separation."""
        assert alpha(1, 2, 1) == pytest.approx(np.pi / 8)
        assert alpha(1, 3, 1) == pytest.approx(np.pi / 16)
        assert alpha(2, 3, 2) == pytest.approx(np.pi / 8)
        assert alpha(1, 3, 2) == 0.0

    def test_bit_reversal_is_involution(self):
        """Applying the readout permutation twice is the identity."""
        for n in (1, 2, 3, 5):
            perm = np.array(bit_reversal_permutation(n))
            assert np.array_equal(perm[perm], np.arange(2 ** n))


class TestDigitalCircuit:
    """Gate-level circuit against the exact transform."""

    def test_plain_circuit_matches_exact(self):
        """Hadamard/controlled-phase circuit reproduces the transform."""
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4, 5):
            program = circuit_with_readout(n)
            for _ in range(3):
                state = random_state(n, rng)
                out = execute_program(state, program)
                assert fidelity(exact_qft(state), out) == pytest.approx(1.0, abs=1e-12)

    def test_plain_circuit_unitary(self):
        """Dense circuit unitary equals the QFT matrix up to a global phase."""
        for n in (1, 2, 3, 4):
            built = program_unitary(circuit_with_readout(n))
            assert phase_insensitive_distance(built, qft_matrix(n)) < 1e-10

    def test_zz_circuit_matches_plain(self):
        """Replacing controlled phases by the ZZ construction changes nothing."""
        for n in (2, 3, 4):
            plain = program_unitary(circuit_with_readout(n))
            zz = program_unitary(circuit_with_readout(n, use_zz_construction=True))
            assert phase_insensitive_distance(plain, zz) < 1e-10

    def test_zz_gate_sequence_identity(self):
        """Seven fixed gates compose to e^{i alpha ZZ} up to a global phase."""
        rng = np.random.default_rng(11)
        zz_diag = np.array([1, -1, -1, 1])
        for alpha_angle in rng.uniform(-np.pi, np.pi, 25):
            built = program_unitary(Program(2, zz_gate_sequence(float(alpha_angle), 1, 2)))
            target = np.diag(np.exp(1j * alpha_angle * zz_diag))
            assert phase_insensitive_distance(built, target) < 1e-10


class TestPlan:
    """Digital-analog decomposition structure."""

    def test_block_structure(self):
        """Each block opens with its Hadamard and couples pairs (m, q)."""
        plan = build_qft_plan(4)
        assert len(plan.blocks) == 3
        assert plan.final_hadamard == 4
        for block in plan.blocks:
            m = block.index
            assert block.sqg_layer[0] == HadamardGate(m)
            assert set(block.ising_block.couplings) == {(m, q) for q in range(m + 1, 5)}

    def test_block_couplings_are_alpha(self):
        """Coupling strengths follow the alpha formula."""
        plan = build_qft_plan(5)
        block = plan.blocks[1]  # m = 2
        assert block.ising_block.coupling(2, 3) == pytest.approx(np.pi / 8)
        assert block.ising_block.coupling(2, 5) == pytest.approx(np.pi / 32)

    def test_readout_matches_bit_reversal(self):
        """The plan's readout is the bit-reversal permutation."""
        plan = build_qft_plan(3)
        assert plan.readout_permutation == bit_reversal_permutation(3)


class TestStates:
    """The W/GHZ test-state family."""

    def test_w_state(self):
        """W has uniform weight on single-excitation states."""
        state = w_state(3)
        assert state.amplitudes[4] == pytest.approx(1 / np.sqrt(3))
        assert state.amplitudes[2] == pytest.approx(1 / np.sqrt(3))
        assert state.amplitudes[1] == pytest.approx(1 / np.sqrt(3))
        assert state.amplitudes[0] == 0.0

    def test_ghz_state(self):
        """GHZ superposes the all-zeros and all-ones states."""
        state = ghz_state(3)
        assert state.amplitudes[0] == pytest.approx(1 / np.sqrt(2))
        assert state.amplitudes[7] == pytest.approx(1 / np.sqrt(2))

    def test_beta_family(self):
        """beta interpolates between GHZ (0) and W (pi/2), normalized throughout."""
        assert np.allclose(beta_state(4, 0.0).amplitudes, ghz_state(4).amplitudes)
        assert np.allclose(beta_state(4, np.pi / 2).amplitudes, w_state(4).amplitudes)
        for beta in np.linspace(0, np.pi, 7):
            state = beta_state(4, float(beta))
            assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)

    def test_w_ghz_orthogonal(self):
        """The two ingredients are orthogonal."""
        assert fidelity(w_state(4), ghz_state(4)) == pytest.approx(0.0)
