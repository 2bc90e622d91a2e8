"""Tests for the Fourier transform reference, circuit, and test states."""

import math

import numpy as np
import pytest

from daqft.daqc import compile_qft_daqc
from daqft.program import HadamardGate, Permute, Program, execute_program, program_unitary
from daqft.qft import (
    beta_state,
    bit_reversal_permutation,
    build_dqc_circuit,
    exact_qft,
    ghz_state,
    qft_block_target,
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


def per_bit_reversal(n):
    """The bit reversal as a loop over every index and bit, the form the numpy one replaced."""
    perm = []
    for i in range(1 << n):
        rev = 0
        for b in range(n):
            rev |= ((i >> b) & 1) << (n - 1 - b)
        perm.append(rev)
    return tuple(perm)


def circuit_with_readout(n):
    gates = build_dqc_circuit(n) + (readout_instruction(n),)
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
        """Block couplings alpha vanish off the block row and halve with separation."""
        assert qft_block_target(3, 1).couplings[(1, 2)] == pytest.approx(np.pi / 8)
        assert qft_block_target(3, 1).couplings[(1, 3)] == pytest.approx(np.pi / 16)
        assert qft_block_target(3, 2).couplings[(2, 3)] == pytest.approx(np.pi / 8)
        assert (1, 3) not in qft_block_target(3, 2).couplings

    def test_bit_reversal_matches_per_bit_loop(self):
        """The permutation and the readout equal the per-bit loop's, as a tuple of Python ints."""
        for n in range(1, 11):
            perm = bit_reversal_permutation(n)
            assert perm == per_bit_reversal(n)
            assert {type(i) for i in perm} == {int}
            assert readout_instruction(n) == Permute(per_bit_reversal(n))

    def test_permute_accepts_any_integer_sequence(self):
        """Tuples, lists, numpy arrays and numpy integers give one relabeling of Python ints."""
        perm = (3, 1, 2, 0)
        for given in (perm, list(perm), np.array(perm), [np.int64(i) for i in perm]):
            readout = Permute(given)
            assert readout.index_map == perm
            assert {type(i) for i in readout.index_map} == {int}
        with pytest.raises(ValueError, match="not a permutation"):
            Permute(np.array([0, 0, 1, 2]))

    def test_bit_reversal_is_involution(self):
        """Applying the readout permutation twice is the identity."""
        for n in (1, 2, 3, 5):
            perm = np.array(bit_reversal_permutation(n))
            assert np.array_equal(perm[perm], np.arange(2 ** n))


class TestDigitalCircuit:
    """Gate-level circuit against the exact transform."""

    def test_circuit_matches_exact(self):
        """The Hadamard/ZZ-construction circuit reproduces the transform."""
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4, 5):
            program = circuit_with_readout(n)
            for _ in range(3):
                state = random_state(n, rng)
                out = execute_program(state, program)
                assert fidelity(exact_qft(state), out) == pytest.approx(1.0, abs=1e-12)

    def test_circuit_unitary(self):
        """Dense circuit unitary equals the QFT matrix up to a global phase."""
        for n in (1, 2, 3, 4):
            built = program_unitary(circuit_with_readout(n))
            assert phase_insensitive_distance(built, qft_matrix(n)) < 1e-10

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
        """Each block couples pairs (m, q) and its program layer opens with H(m)."""
        for m in (1, 2, 3):
            assert set(qft_block_target(4, m).couplings) == {(m, q) for q in range(m + 1, 5)}
        for m in (0, 4):
            with pytest.raises(ValueError, match="outside 1..3 for n=4"):
                qft_block_target(4, m)
        hadamards = [
            instr.qubit
            for instr in compile_qft_daqc(5, "stepwise").instructions
            if isinstance(instr, HadamardGate)
        ]
        assert hadamards == [1, 2, 3, 4, 5]

    def test_block_couplings_are_alpha(self):
        """Coupling strengths follow the alpha formula."""
        block = qft_block_target(5, 2)
        assert block.couplings[(2, 3)] == pytest.approx(np.pi / 8)
        assert block.couplings[(2, 5)] == pytest.approx(np.pi / 32)

    def test_readout_matches_bit_reversal(self):
        """The compiled program ends with the bit-reversal readout."""
        for mode in ("stepwise", "banged"):
            readout = compile_qft_daqc(3, mode).instructions[-1]
            assert readout == Permute(bit_reversal_permutation(3))


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

    def test_beta_state_bytes_equal_w_ghz_composition(self):
        """beta_state's bytes equal sin(beta)|W> + cos(beta)|GHZ> composed from the two states.

        n = 2..9, on the 21-point sweep grid and pi/4, 0.7, pi/2 and 1e-300:
        every amplitude, zeros and their signs included.
        """
        betas = [float(beta) for beta in np.linspace(0.0, np.pi, 21)] + [np.pi / 4, 0.7, np.pi / 2, 1e-300]
        for n in range(2, 10):
            w, ghz = w_state(n).amplitudes, ghz_state(n).amplitudes
            for beta in betas:
                composed = math.sin(beta) * w + math.cos(beta) * ghz
                assert beta_state(n, beta).amplitudes.tobytes() == composed.tobytes(), (n, beta)
        with pytest.raises(ValueError, match="n_qubits must be >= 2"):
            beta_state(1, 0.3)

    def test_w_ghz_orthogonal(self):
        """The two ingredients are orthogonal."""
        assert fidelity(w_state(4), ghz_state(4)) == pytest.approx(0.0)
