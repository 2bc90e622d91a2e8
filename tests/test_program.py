"""Tests for circuit instructions and program execution."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import daqft.program as program_module
from daqft.daqc import compile_qft_daqc
from daqft.ising import MAX_QUBITS, IsingSpec, all_pairs, coupling_diagonal
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

    def test_program_register_size(self):
        """Registers hold 1..MAX_QUBITS qubits, as states and resources do."""
        with pytest.raises(ValueError, match="n_qubits must be in"):
            Program(MAX_QUBITS + 6, ())
        with pytest.raises(ValueError, match="n_qubits must be in"):
            Program(0, ())

    def test_permute_matches_register(self):
        """A readout map must relabel exactly the 2^n basis states, checked when built."""
        with pytest.raises(ValueError, match="permutation size"):
            Program(3, (Permute(tuple(range(4))),))
        Program(2, (Permute(tuple(range(4))),))

    def test_analog_requires_resource(self):
        """Analog instructions need a coupling resource."""
        with pytest.raises(ValueError, match="resource"):
            Program(2, (AnalogBlock(0.5),))

    def test_window_requires_homogeneous_resource(self):
        """Banged windows run on a homogeneous resource only; analog blocks on any."""
        resource = IsingSpec(3, {(1, 2): 1.0, (2, 3): 0.5})
        with pytest.raises(ValueError, match="homogeneous resource"):
            Program(3, (BangedWindow(0.1, (1, 2)),), resource=resource)
        Program(3, (AnalogBlock(0.1),), resource=resource)


INSTRUCTION_CLASSES = (
    Rotation,
    HadamardGate,
    XGate,
    Entangler,
    ControlledPhase,
    AnalogBlock,
    BangedWindow,
    Permute,
)


class TestKernelEntryPoints:
    """The kernel methods every instruction class holds in its own namespace.

    perfbench's tracer patches ``vars(cls)["noisy_apply"]`` and
    ``vars(cls)["ideal_apply"]`` of each class and tags its spans by the
    register size, the third positional argument.
    """

    def test_kernels_in_class_namespace(self):
        """Each class binds both entry points in its own body, not through a base."""
        for cls in INSTRUCTION_CLASSES:
            for method in ("noisy_apply", "ideal_apply"):
                assert method in vars(cls), (cls.__name__, method)

    def test_perfbench_kernel_map_covers_every_class(self):
        """perfbench/spans.py maps every instruction class here, and names no other.

        Its tracer looks each class up by name, so a class added, renamed or
        deleted here without a matching ``KERNELS`` entry would break it.
        The file is parsed, not imported.
        """
        spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        tree = ast.parse(spans.read_text())
        (kernels,) = [
            node.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(target, "id", None) for target in node.targets] == ["KERNELS"]
        ]
        mapped = set(ast.literal_eval(kernels))
        defined = {
            name
            for name, cls in vars(program_module).items()
            if inspect.isclass(cls)
            and cls.__module__ == program_module.__name__
            and "ideal_apply" in vars(cls)
        }
        assert defined == {cls.__name__ for cls in INSTRUCTION_CLASSES}
        assert mapped == defined

    def test_kernel_signatures(self):
        """All eight take (amps, n, value, energy=None) and (amps, n, energy=None)."""
        for cls in INSTRUCTION_CLASSES:
            noisy = list(inspect.signature(vars(cls)["noisy_apply"]).parameters)
            ideal = list(inspect.signature(vars(cls)["ideal_apply"]).parameters)
            assert noisy == ["self", "amps", "n", "value", "energy"], cls.__name__
            assert ideal == ["self", "amps", "n", "energy"], cls.__name__


# One instance of each instruction class at n = 5, with its noise values for k
# register rows (None: the class has no noise model).
_K = 4
_RNG = np.random.default_rng(59)
BROADCAST_CASES = {
    "Rotation": (Rotation(2, "y", 0.4), _RNG.uniform(0.99, 1.01, _K)),
    "HadamardGate": (HadamardGate(1), _RNG.uniform(0.99, 1.01, _K)),
    "XGate": (XGate(5), _RNG.uniform(0.99, 1.01, _K)),
    "Entangler": (Entangler(1, 4), _RNG.normal(0.0, 0.2, _K)),
    "ControlledPhase": (ControlledPhase(2, 3, 3), None),
    "AnalogBlock": (AnalogBlock(-0.37, "banged"), _RNG.normal(0.0, 0.01, _K)),
    "BangedWindow": (BangedWindow(0.01, (2, 4)), _RNG.uniform(0.99, 1.01, (_K, 2))),
    "Permute": (Permute(tuple(_RNG.permutation(32).tolist())), None),
}


class TestBlockLayout:
    """Kernels act on (k, 2^n, r) blocks: k register rows, each with r inputs sharing its draws."""

    def test_cases_cover_every_class(self):
        """The broadcast cases name every instruction class once."""
        classes = {
            name for name, cls in vars(program_module).items()
            if inspect.isclass(cls) and "noisy_apply" in vars(cls)
        }
        assert set(BROADCAST_CASES) == classes

    @pytest.mark.parametrize("name", sorted(BROADCAST_CASES))
    def test_inputs_equal_single_input_runs(self, name):
        """One (k, 2^n, 3) block equals three (k, 2^n, 1) runs bit for bit, noisy and ideal."""
        instr, values = BROADCAST_CASES[name]
        n = 5
        energy = Program(n, (), resource=IsingSpec.homogeneous(n)).energy
        rng = np.random.default_rng(61)
        amps = rng.normal(size=(_K, 2 ** n, 3)) + 1j * rng.normal(size=(_K, 2 ** n, 3))
        runs = [lambda block: instr.ideal_apply(block, n, energy)]
        if values is not None:
            runs.append(lambda block: instr.noisy_apply(block, n, values, energy))
        for run in runs:
            together = run(amps)
            assert together.shape == amps.shape
            for j in range(3):
                alone = run(amps[:, :, j:j + 1])
                assert np.array_equal(together[:, :, j:j + 1], alone), (name, j)


class TestIdealSemantics:
    """Ideal instruction matrices against closed forms."""

    def test_shared_constant_operands(self):
        """Shared operands (X, H, entangler, identities) are read-only and equal a fresh build."""
        constants = [
            (XGate._ideal, XGate._matrices(np.ones(1))),
            (HadamardGate._ideal, HadamardGate._matrices(np.ones(1))),
            (Entangler._ideal, Entangler._phases(np.zeros(1))),
            (program_module._identity(2), np.eye(2)),
            (program_module._identity(8), np.eye(8)),
        ]
        for shared, fresh in constants:
            assert np.array_equal(shared, fresh)
            assert shared.dtype == fresh.dtype and shared.shape == fresh.shape
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0.0
        assert XGate(1)._ideal is XGate(2)._ideal
        assert program_module._identity(2) is program_module._identity(2)

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

    def test_level_indexed_phase_is_exact(self):
        """Phases gathered from the resource's distinct levels equal amps * exp(1j t E) bit for bit.

        Homogeneous resources at n = 3, 5, 6, 7 have floor(n/2)+1 levels; the
        inhomogeneous one has 2^(n-1), since flipping every qubit keeps each energy.
        """
        rng = np.random.default_rng(47)
        couplings = {pair: float(rng.normal()) for pair in all_pairs(5)}
        resources = [IsingSpec.homogeneous(n) for n in (3, 5, 6, 7)] + [IsingSpec(5, couplings)]
        for resource in resources:
            n = resource.n_qubits
            energy = Program(n, (), resource=resource).energy
            diagonal = coupling_diagonal(resource)
            assert np.array_equal(energy.values, diagonal)
            assert np.array_equal(energy.levels[energy.index], diagonal)
            expected_levels = n // 2 + 1 if resource.is_homogeneous() else 2 ** (n - 1)
            assert len(energy.levels) == expected_levels
            shape = (4, 2 ** n, 3)
            amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            values = rng.normal(scale=0.02, size=4)
            for block in (AnalogBlock(-0.62), AnalogBlock(1.37, "banged")):
                noisy = block.noisy_apply(amps, n, values, energy)
                phases = np.exp(1j * (block.duration + values)[:, None] * diagonal)
                assert np.array_equal(noisy, amps * phases[:, :, None]), (n, block)
                ideal = block.ideal_apply(amps, n, energy)
                phases = np.exp(1j * block.duration * diagonal)
                assert np.array_equal(ideal, amps * phases[:, None])

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

    def test_banged_window_matches_oracle_on_every_pair(self):
        """Noisy windows on every driven pair at n = 3, 5, 6, 7 match the dense exponential.

        The g = 1 runs come before the g = 0.8 runs in one process, so a kernel
        that kept energies from an earlier call on the same register and pair
        would fail here.
        """
        rng = np.random.default_rng(43)
        for g in (1.0, 0.8):
            for n in (3, 5, 6, 7):
                resource = IsingSpec.homogeneous(n, g)
                diagonal = np.diag(coupling_diagonal(resource)).astype(complex)
                for pair in all_pairs(n):
                    for dt in (1e-4, 0.21):
                        values = rng.uniform(0.99, 1.01, size=2)
                        state = random_state(n, rng)
                        program = Program(n, (BangedWindow(dt, pair),), resource=resource)
                        fast = execute_program(state, program, lambda _: values)
                        ham = diagonal.copy()
                        for q, value in zip(pair, values):
                            ham += (np.pi / (2 * dt)) * value * kron_lift(n, q, PAULI_X)
                        slow = expm_evolve(ham, dt, state.amplitudes)
                        assert np.max(np.abs(fast.amplitudes - slow)) <= 1e-13, (g, n, pair, dt)

    def test_window_memo_stays_with_its_program(self):
        """One window in n = 3 and n = 5 programs at g = 1 and 0.8, run interleaved, matches expm.

        Each program keeps the ideal unitaries it builds; a memo shared by the
        window instance, the register size or the pair would give a later
        program an earlier one's unitaries.
        """
        rng = np.random.default_rng(53)
        dt = 0.21
        window = BangedWindow(dt, (1, 3))
        programs = [
            Program(n, (window,), resource=IsingSpec.homogeneous(n, g))
            for n in (3, 5)
            for g in (1.0, 0.8)
        ]
        for _ in range(2):
            for program in programs:
                n = program.n_qubits
                ham = np.diag(coupling_diagonal(program.resource)).astype(complex)
                for q in window.qubits:
                    ham += (np.pi / (2 * dt)) * kron_lift(n, q, PAULI_X)
                state = random_state(n, rng)
                fast = execute_program(state, program)
                slow = expm_evolve(ham, dt, state.amplitudes)
                assert np.max(np.abs(fast.amplitudes - slow)) <= 1e-13, (n, program.resource)

    def test_window_memo_equals_uncached_kernel(self):
        """The bDAQC n = 5 unitary equals, bit for bit, runs that build every window afresh.

        A sampler returning unit drives for each window takes the noisy kernel
        path, which builds the unitaries on every call.
        """
        program = compile_qft_daqc(5, "banged")

        def sampler(instr):
            return np.ones(len(instr.qubits)) if isinstance(instr, BangedWindow) else None

        columns = [
            execute_program(basis_state(5, index), program, sampler).amplitudes
            for index in range(2 ** 5)
        ]
        assert np.array_equal(program_unitary(program), np.stack(columns, axis=1))

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
