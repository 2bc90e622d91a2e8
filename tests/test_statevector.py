"""Tests for the statevector core and its gate kernels."""

import numpy as np
import pytest

from daqft.ising import IsingSpec, coupling_diagonal
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
    _fidelities,
    fidelity,
    phase_insensitive_distance,
)
from oracles import expm_evolve, kron_lift, rotation_matrix, run_with_draws


def random_state(n, rng):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return Statevector(n, amps / np.linalg.norm(amps))


class TestStatevector:
    """Construction and invariants."""

    def test_norm_validated(self):
        """Unnormalized amplitudes are rejected, NaN ones too."""
        with pytest.raises(ValueError, match="normalized"):
            Statevector(1, np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="normalized"):
            Statevector(1, np.array([np.nan, 0.0]))

    def test_shape_validated(self):
        """The amplitude vector must have length 2^n."""
        with pytest.raises(ValueError):
            Statevector(2, np.array([1.0, 0.0]))

    def test_fidelity(self):
        """Fidelity is 1 on identical states and 0 on orthogonal ones."""
        a = Statevector(2, np.eye(4)[0])
        b = Statevector(2, np.eye(4)[3])
        assert fidelity(a, a) == pytest.approx(1.0)
        assert fidelity(a, b) == pytest.approx(0.0)
        rng = np.random.default_rng(3)
        c = random_state(2, rng)
        assert fidelity(a, c) == pytest.approx(fidelity(c, a))


def per_row_vdot(reference, rows):
    """Each row scored by its own np.vdot call: the bits _fidelities must give."""
    return [float(np.abs(np.vdot(reference, row)) ** 2) for row in rows]


class TestFidelities:
    """One vecdot per block scores every row with the bits of a per-row vdot."""

    @pytest.mark.parametrize("dim", [1, 8, 64, 256])
    def test_contiguous_rows(self, dim):
        rng = np.random.default_rng(dim)
        reference = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for k in (1, 200, 5000):
            rows = rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))
            want = np.array(per_row_vdot(reference, rows)).tobytes()
            assert np.array(_fidelities(reference, rows)).tobytes() == want, k

    @pytest.mark.parametrize("view", ["every-second", "reversed", "transposed", "input-major"])
    def test_strided_rows(self, view):
        """Strided rows and references keep their strides: a contiguous copy would sum in another order.

        With OpenBLAS a strided dot product and the same one on a contiguous
        copy differ in the last bit for some of these rows, so a helper that
        copied its operands would fail here.
        """
        rng = np.random.default_rng(11)
        dim, k = 64, 300

        def draw(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        rows = {
            "every-second": draw(k, 2 * dim)[:, ::2],
            "reversed": draw(k, dim)[:, ::-1],
            "transposed": draw(dim, k).T,
            "input-major": np.moveaxis(draw(k, dim, 2), -1, 0)[0],  # one input of a (k, 2^n, r) block
        }[view]
        assert not rows.flags.c_contiguous
        for reference in (draw(dim), draw(2 * dim)[::2]):
            want = np.array(per_row_vdot(reference, rows)).tobytes()
            assert np.array(_fidelities(reference, rows)).tobytes() == want

    def test_square_is_the_scalar_formula(self):
        """Each |overlap| is squared as the scalar float(np.abs(z) ** 2) squares it.

        That is libm's pow(x, 2), which rounds differently from x * x, what
        an array ``** 2`` computes, for about one overlap in a thousand.
        200 random blocks of 64 rows, read contiguous and as one input of a
        (k, 2^n, 2) block laid out as program._run returns it, hold such
        overlaps.
        """
        rng = np.random.default_rng(13)
        dim, differing = 8, 0
        for _ in range(200):
            reference = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            block = rng.normal(size=(dim, 64, 2)) + 1j * rng.normal(size=(dim, 64, 2))
            block = block.transpose(1, 0, 2)  # a (2^n, k, r) array viewed as (k, 2^n, r)
            for rows in (np.ascontiguousarray(block[:, :, 0]), block[:, :, 1]):
                want = np.array(per_row_vdot(reference, rows))
                assert np.array(_fidelities(reference, rows)).tobytes() == want.tobytes()
                magnitudes = np.abs(np.vecdot(reference, rows))
                differing += np.count_nonzero(magnitudes * magnitudes != want)
        assert differing > 0

    def test_fidelity_is_the_one_row_case(self):
        rng = np.random.default_rng(5)
        a, b = random_state(4, rng), random_state(4, rng)
        assert fidelity(a, b) == _fidelities(a.amplitudes, b.amplitudes[None])[0]
        assert fidelity(a, b) == float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


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
        out = run_with_draws(state, Program(3, (Entangler(1, 3),)), lambda instr: eps)
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
        """An analog block equals the dense matrix exponential of the unit all-to-all resource."""
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            spec = IsingSpec.homogeneous(n)
            state = random_state(n, rng)
            t = float(rng.uniform(0.1, 2.0))
            fast = execute_program(state, Program(n, (AnalogBlock(t),)))
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
