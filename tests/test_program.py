"""Tests for circuit instructions and program execution."""

import ast
import gc
import importlib
import inspect
import itertools
import json
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import daqft.program as program_module
from daqft.daqc import compile_qft_daqc
from daqft.ising import MAX_QUBITS, IsingSpec, all_pairs, coupling_diagonal
from daqft.noise import PROTOCOLS, NoiseConfig, NoiseSites, build_protocol_program, sample_noise
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
from daqft.qft import readout_instruction
from daqft.statevector import PAULI_X, PAULI_Y, Statevector, pauli
from oracles import (
    expm_evolve,
    kron_lift,
    reference_sampler,
    rotation_matrix,
    run_with_draws,
    site_values,
    window_class_unitaries,
)


REPO_ROOT = Path(__file__).resolve().parents[1]


def perfbench_constant(name):
    """A literal module-level constant of perfbench/spans.py, which is parsed, not imported."""
    tree = ast.parse((REPO_ROOT / "perfbench" / "spans.py").read_text())
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == [name]
    ]
    return ast.literal_eval(value)


def random_state(n, rng):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return Statevector(n, amps / np.linalg.norm(amps))


def setdefault_energy(n):
    """The unit resource's levels and index built by one dict setdefault per basis state.

    Levels in order of first appearance, found from coupling_diagonal's
    energies rather than from Hamming weights.
    """
    values = coupling_diagonal(IsingSpec.homogeneous(n))
    first = {}
    index = np.array([first.setdefault(value, len(first)) for value in values.tolist()])
    return np.array(list(first)), index


def class_rows(n, qubits):
    """The index row of one representative per weight class of a window on ``qubits``.

    Row r of _window_structure's index has popcount(r) undriven bits set,
    so row 2^c - 1 stands for class c.
    """
    index = program_module._window_structure(n, qubits)[0]
    return index[(1 << np.arange((n - len(qubits)) // 2 + 1)) - 1]


def instruction_matrix(instr, n, value=None):
    """Dense matrix of one instruction: one run over the 2^n basis states, its draw ``value``.

    ``value`` None runs the instruction ideally.
    """
    program = Program(n, (instr,))
    if value is None:
        return program_unitary(program)
    return run_with_draws(np.eye(2 ** n, dtype=complex)[None], program, lambda _: value)[0]


# Instructions of each class that reach past a two-qubit register, each with the
# error.  An analog block names no qubit and runs on any register, so it has none.
OVER_REGISTER = {
    "Rotation": [(Rotation(3, "z", 0.1), "exceeds")],
    "HadamardGate": [(HadamardGate(3), "exceeds")],
    "XGate": [(XGate(3), "exceeds")],
    "Entangler": [(Entangler(1, 3), "exceeds"), (Entangler(3, 1), "exceeds")],
    "ControlledPhase": [(ControlledPhase(3, 1, 2), "exceeds"), (ControlledPhase(1, 3, 2), "exceeds")],
    "AnalogBlock": [],
    "BangedWindow": [(BangedWindow(0.1, (3,)), "exceeds"), (BangedWindow(0.1, (1, 3)), "exceeds")],
    "Permute": [(Permute(tuple(range(8))), "permutation size")],
}


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

    def test_over_register_cases_cover_every_class(self):
        """The over-register cases name every instruction class once."""
        assert set(OVER_REGISTER) == {cls.__name__ for cls in INSTRUCTION_CLASSES}

    @pytest.mark.parametrize("name", sorted(OVER_REGISTER))
    def test_over_register_instruction_rejected(self, name):
        """An instruction of each class that reaches past a two-qubit register is rejected.

        Every qubit field is checked, not only the first one.  The same
        instructions fit a three-qubit register.
        """
        for instr, message in OVER_REGISTER[name]:
            with pytest.raises(ValueError, match=message):
                Program(2, (XGate(1), instr))
            Program(3, (XGate(1), instr))


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
        mapped = set(perfbench_constant("KERNELS"))
        defined = {
            name
            for name, cls in vars(program_module).items()
            if inspect.isclass(cls)
            and cls.__module__ == program_module.__name__
            and "ideal_apply" in vars(cls)
        }
        assert defined == {cls.__name__ for cls in INSTRUCTION_CLASSES}
        assert mapped == defined

    def test_perfbench_function_spans_name_public_functions(self):
        """Each <layer>.<function> span in BENCHMARK.json's per-layer metrics names a public function.

        perfbench's tracer names a span after the public function of
        ``daqft.<layer>`` that it wraps, so deleting or renaming one would
        leave its metrics unmeasured.  Kernel spans are the values of
        ``KERNELS``; ``noise.sampler`` is ``make_sampler``'s closure and
        ``statevector.Statevector`` the class.  BENCHMARK.json is read, not
        imported or edited.
        """
        benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        layers = perfbench_constant("LAYERS")
        kernels = set(perfbench_constant("KERNELS").values())
        aliases = {"noise.sampler": "noise.make_sampler"}
        spans = {
            ".".join(parts[:2])
            for parts in (metric["name"].split(".") for metric in benchmark["per_layer"])
            if len(parts) >= 3 and parts[0] in layers
        }
        assert {"noise.monte_carlo", "statevector.fidelity", "noise.sampler"} <= spans
        for span in sorted(spans - kernels):
            layer, name = aliases.get(span, span).split(".")
            module = importlib.import_module(f"daqft.{layer}")
            obj = getattr(module, name, None)
            if span == "statevector.Statevector":
                assert inspect.isclass(obj), span
            else:
                assert not name.startswith("_"), span
                assert inspect.isfunction(obj) and obj.__module__ == module.__name__, span

    def test_kernel_signatures(self):
        """All eight take (amps, n, value) and (amps, n)."""
        for cls in INSTRUCTION_CLASSES:
            noisy = list(inspect.signature(vars(cls)["noisy_apply"]).parameters)
            ideal = list(inspect.signature(vars(cls)["ideal_apply"]).parameters)
            assert noisy == ["self", "amps", "n", "value"], cls.__name__
            assert ideal == ["self", "amps", "n"], cls.__name__


# One instance of each instruction class at n = 5, with its noisy operand for k
# register rows (None: the class has no noise model), built from random draws
# as the executor builds it: matrices, phases, or a window's class unitaries.
_K = 4
_RNG = np.random.default_rng(59)
_WINDOW = BangedWindow(0.01, (2, 4))
_LEVELS = program_module._energy(5)[0]
_WINDOW_ENERGIES = program_module._class_energies(5, len(_WINDOW.qubits))
BROADCAST_CASES = {
    "Rotation": (
        Rotation(2, "y", 0.4),
        Rotation._operands(_RNG.uniform(0.99, 1.01, _K), 0.4, PAULI_Y),
    ),
    "HadamardGate": (HadamardGate(1), HadamardGate._operands(_RNG.uniform(0.99, 1.01, _K))),
    "XGate": (XGate(5), XGate._operands(_RNG.uniform(0.99, 1.01, _K))),
    "Entangler": (Entangler(1, 4), Entangler._operands(_RNG.normal(0.0, 0.2, _K))),
    "ControlledPhase": (ControlledPhase(2, 3, 3), None),
    "AnalogBlock": (
        AnalogBlock(-0.37, "banged"),
        AnalogBlock._operands(_RNG.normal(0.0, 0.01, _K), -0.37, _LEVELS),
    ),
    "BangedWindow": (
        _WINDOW,
        program_module._window_unitaries(
            _WINDOW_ENERGIES, _WINDOW.duration, _RNG.uniform(0.99, 1.01, (_K, 2))
        ),
    ),
    "Permute": (Permute(tuple(_RNG.permutation(32).tolist())), None),
}


class TestBlockLayout:
    """Kernels act on (2^n, r, k) blocks: k register rows, each with r inputs sharing its draws."""

    def test_cases_cover_every_class(self):
        """The broadcast cases name every instruction class once."""
        classes = {
            name for name, cls in vars(program_module).items()
            if inspect.isclass(cls) and "noisy_apply" in vars(cls)
        }
        assert set(BROADCAST_CASES) == classes

    @pytest.mark.parametrize("name", sorted(BROADCAST_CASES))
    def test_inputs_equal_single_input_runs(self, name):
        """One (2^n, 3, k) block equals three (2^n, 1, k) runs bit for bit, noisy and ideal."""
        instr, values = BROADCAST_CASES[name]
        n = 5
        rng = np.random.default_rng(61)
        amps = rng.normal(size=(2 ** n, 3, _K)) + 1j * rng.normal(size=(2 ** n, 3, _K))
        runs = [lambda block: instr.ideal_apply(block, n)]
        if values is not None:
            runs.append(lambda block: instr.noisy_apply(block, n, values))
        for run in runs:
            together = run(amps)
            assert together.shape == amps.shape
            for j in range(3):
                alone = run(amps[:, j:j + 1])
                assert np.array_equal(together[:, j:j + 1], alone), (name, j)


# Each channel's width in a NoiseConfig.
_CHANNEL_WIDTHS = {"sqg": "sqgn", "tqg": "tqgn", "abn_s": "abn_s", "abn_b": "abn_b"}


class TestNoiseChannels:
    """Each instruction class names the noise channel it draws from, or a noisy run of it raises."""

    @pytest.mark.parametrize("name", sorted(BROADCAST_CASES))
    def test_channel_matches_reference_sampler(self, name):
        """A declared channel and site count match the reference sampler; no channel raises.

        The reference knows the classes by isinstance: an instruction's
        channel is the one whose width alone moves its draw, and its sites
        are the draw's size.  A class that declared no channel and did not
        raise, or declared None, would run noiseless.
        """
        instances = [BROADCAST_CASES[name][0]]
        if name == "AnalogBlock":
            instances.append(AnalogBlock(0.3, "stepwise"))
        zero = dict.fromkeys(_CHANNEL_WIDTHS.values(), 0.0)

        def draw(instr, **widths):
            return reference_sampler(NoiseConfig(**{**zero, **widths}), np.random.default_rng(0))(instr)

        for instr in instances:
            program = Program(5, (instr,))
            if not hasattr(instr, "channel"):
                with pytest.raises(UnsupportedGateError, match=f"no noise model for {name}"):
                    program_module._run(program, np.eye(32, dtype=complex)[None], np.ones((1, 0)))
                continue
            ideal = draw(instr)
            moved = [
                channel
                for channel, width in _CHANNEL_WIDTHS.items()
                if not np.array_equal(draw(instr, **{width: 0.1}), ideal)
            ]
            sites = 0 if ideal is None else np.size(ideal)
            assert moved == ([] if instr.channel is None else [instr.channel]), instr
            assert program._operand_layout[0] == (instr.channel,) * sites, instr


class TestIdealSemantics:
    """Ideal instruction matrices against closed forms."""

    def test_shared_constant_operands(self):
        """Shared operands (X, H, entangler, the 2x2 identity) are read-only and equal a fresh build."""
        constants = [
            (XGate._ideal, XGate._operands(np.ones(1))),
            (HadamardGate._ideal, HadamardGate._operands(np.ones(1))),
            (Entangler._ideal, Entangler._operands(np.zeros(1))),
            (program_module._I2, np.eye(2)),
        ]
        for shared, fresh in constants:
            assert np.array_equal(shared, fresh)
            assert shared.dtype == fresh.dtype and shared.shape == fresh.shape
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0.0
        assert XGate(1)._ideal is XGate(2)._ideal

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
        state = Statevector(2, np.eye(4)[1])
        program = Program(2, (Permute((3, 2, 1, 0)),))
        out = execute_program(state, program)
        assert out.amplitudes[2] == 1.0


def per_instance_unitary(program):
    """The program's dense matrix with each ideal operand built for its instruction alone.

    Each operand comes from its class's formula (``_operands``, or the
    controlled phase's closed form, or a fresh window solve), never from a
    shared one, and goes through the kernel that the ideal run uses.
    """
    n = program.n_qubits
    block = np.eye(2 ** n, dtype=complex)[:, :, None]
    for instr in program.instructions:
        if isinstance(instr, Rotation):
            operand = Rotation._operands(np.ones(1), instr.angle, pauli(instr.axis))
            block = instr.noisy_apply(block, n, operand)
        elif isinstance(instr, (HadamardGate, XGate)):
            block = instr.noisy_apply(block, n, type(instr)._operands(np.ones(1)))
        elif isinstance(instr, Entangler):
            block = instr.noisy_apply(block, n, Entangler._operands(np.zeros(1)))
        elif isinstance(instr, ControlledPhase):
            phase = np.array([[1.0], [1.0], [1.0], [np.exp(2j * np.pi / 2 ** instr.k)]])
            block = program_module._apply_diag_2q(block, n, instr.control, instr.target, phase)
        elif isinstance(instr, AnalogBlock):
            phases = AnalogBlock._operands(np.zeros(1), instr.duration, program_module._energy(n)[0])
            block = instr.noisy_apply(block, n, phases)
        elif isinstance(instr, BangedWindow):
            energies = coupling_diagonal(IsingSpec.homogeneous(n))[class_rows(n, instr.qubits)]
            drives = np.ones((1, len(instr.qubits)))
            unitaries = program_module._window_unitaries(energies, instr.duration, drives)
            block = instr.noisy_apply(block, n, unitaries)
        else:
            block = instr.ideal_apply(block, n)
    return block[:, :, 0]


def clear_ideal_caches():
    """Empty every value-keyed ideal operand cache, so the next run builds its operands."""
    for cache in (Rotation._ideal_of, program_module._ideal_window_unitaries):
        cache.cache_clear()


class TestSharedIdealOperands:
    """Ideal operands come from read-only caches keyed by value, with the bits of per-instance builds."""

    def test_equal_rotations_share_one_operand(self, monkeypatch):
        """Rotations of one angle and axis share one read-only operand; -0.0 shares with 0.0."""
        seen = []
        original = program_module._apply_matrix_1q

        def spy(amps, target, matrices):
            seen.append(matrices)
            return original(amps, target, matrices)

        monkeypatch.setattr(program_module, "_apply_matrix_1q", spy)
        angles = [
            (1, "y", 0.4), (3, "y", 0.4), (2, "x", 0.4), (2, "y", 0.5), (1, "z", 0.0), (2, "z", -0.0)
        ]
        program_unitary(Program(3, tuple(Rotation(*args) for args in angles)))
        assert seen[0] is seen[1]
        assert len({id(operand) for operand in seen[1:4]}) == 3
        assert seen[4] is seen[5]
        for operand, (_, axis, angle) in zip(seen, angles):
            fresh = Rotation._operands(np.ones(1), angle, pauli(axis))
            assert operand.tobytes() == fresh.tobytes() and operand.shape == fresh.shape
            with pytest.raises(ValueError, match="read-only"):
                operand[0, 0, 0] = 0.0

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("protocol", ["dqc", "sdaqc", "bdaqc", "controlled-phase"])
    def test_program_unitary_equals_per_instance_operands(self, protocol, n):
        """Cold caches and warm ones give the bits of operands built per instance."""
        if protocol == "controlled-phase":
            phases = (ControlledPhase(q, 1, q) for q in range(2, n + 1))
            program = Program(n, (HadamardGate(1), *phases, readout_instruction(n)))
        else:
            program = build_protocol_program(protocol, n)
        expected = per_instance_unitary(program).tobytes()
        clear_ideal_caches()
        assert program_unitary(program).tobytes() == expected
        assert program_unitary(program).tobytes() == expected


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


def broadcast_rotations(theta, axis):
    """cos(t)*1 + i*sin(t)*P as one broadcast over (..., k, 2, 2), register rows moved last.

    The bits and the (..., 2, 2, k) layout the builders must give.
    """
    theta = theta[..., None, None]
    return np.moveaxis(np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * axis, -3, -1)


def broadcast_entangler_phases(values):
    """exp(+-i phi) stacked on a second-to-last axis of 4: the bits Entangler._operands must give."""
    phi = (np.pi / 4.0) * (1.0 + values)
    up, down = np.exp(1j * phi), np.exp(-1j * phi)
    return np.stack([up, down, down, up], axis=-2)


# (J instructions, k register rows); (1, 5000) is one instruction wider
# than the 4,096 rows of a one-qubit build chunk.
OPERAND_SHAPES = [(1, 1), (7, 16), (504, 16), (1, 5000)]


def operand_draws(shape, rng):
    """Draws around 1 with the signed zeros and negative values a build must carry through."""
    values = rng.normal(1.0, 0.5, shape)
    values.flat[:3] = [-0.0, 0.0, -1.5][: values.size]
    return values


class TestOperandBits:
    """Rotation and entangler operands, written entry by entry, have the broadcast formula's bytes."""

    @pytest.mark.parametrize("shape", OPERAND_SHAPES, ids="{0[0]}x{0[1]}".format)
    @pytest.mark.parametrize("axes", ["x", "y", "z", "mixed"])
    def test_rotations(self, shape, axes):
        rng = np.random.default_rng(sum(shape))
        values = operand_draws(shape, rng)
        names = [axes] * shape[0] if axes != "mixed" else ["xyz"[j % 3] for j in range(shape[0])]
        angles = rng.normal(0.0, 2.0, (shape[0], 1))
        axis = np.stack([pauli(name) for name in names])[:, None]
        got = Rotation._operands(values, angles, axis)
        assert got.shape == shape[:1] + (2, 2) + shape[1:]
        assert got.tobytes() == broadcast_rotations(angles * values, axis).tobytes()

    @pytest.mark.parametrize("shape", OPERAND_SHAPES, ids="{0[0]}x{0[1]}".format)
    def test_x_gates(self, shape):
        values = operand_draws(shape, np.random.default_rng(sum(shape)))
        got = XGate._operands(values)
        assert got.shape == shape[:1] + (2, 2) + shape[1:]
        assert got.tobytes() == broadcast_rotations(np.pi * values / 2.0, PAULI_X).tobytes()

    @pytest.mark.parametrize("shape", OPERAND_SHAPES, ids="{0[0]}x{0[1]}".format)
    def test_entanglers(self, shape):
        values = operand_draws(shape, np.random.default_rng(sum(shape))) - 1.0
        got = Entangler._operands(values)
        assert got.shape == shape[:1] + (4,) + shape[1:]
        assert got.tobytes() == broadcast_entangler_phases(values).tobytes()

    def test_ideal_operands(self):
        """The shared ideal operands are the one-row case of the same formulas."""
        assert XGate._ideal.tobytes() == broadcast_rotations(np.pi * np.ones(1) / 2.0, PAULI_X).tobytes()
        assert Entangler._ideal.tobytes() == broadcast_entangler_phases(np.zeros(1)).tobytes()
        for angle, axis in itertools.product((-2.5, -0.0, 0.3, np.pi / 8), "xyz"):
            expected = broadcast_rotations(angle * np.ones(1), pauli(axis))
            assert Rotation._ideal_of(angle, axis).tobytes() == expected.tobytes(), (angle, axis)


class TestAnalogExecution:
    """Analog blocks and banged windows against dense oracles."""

    def test_analog_block_phases(self):
        """A block multiplies amplitudes by exp(i t E)."""
        rng = np.random.default_rng(31)
        state = random_state(3, rng)
        out = execute_program(state, Program(3, (AnalogBlock(-0.62),)))
        expected = state.amplitudes * np.exp(-0.62j * coupling_diagonal(IsingSpec.homogeneous(3)))
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_resource_energy_matches_setdefault_construction(self):
        """Levels in order of first appearance, and index, equal the setdefault build's bits.

        The unit resource at n = 3..7.
        """
        for n in range(3, 8):
            for got, expected in zip(program_module._energy(n), setdefault_energy(n), strict=True):
                assert got.dtype == expected.dtype and got.shape == expected.shape, n
                assert got.tobytes() == expected.tobytes(), n

    def test_energy_per_register_size(self):
        """One read-only pair of levels and index per register size, n = 1..14, with floor(n/2)+1 levels.

        The levels gathered by the index have the bits of coupling_diagonal
        on the unit resource, and both arrays those of the setdefault
        construction.
        """
        for n in range(1, MAX_QUBITS + 1):
            energy = program_module._energy(n)
            assert program_module._energy(n) is energy
            levels, index = energy
            diagonal = coupling_diagonal(IsingSpec.homogeneous(n))
            assert levels[index].tobytes() == diagonal.tobytes(), n
            for got, expected in zip(energy, setdefault_energy(n), strict=True):
                assert got.dtype == expected.dtype and got.shape == expected.shape, n
                assert got.tobytes() == expected.tobytes(), n
            assert len(levels) == n // 2 + 1, n
            for array in energy:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    def test_level_indexed_phase_is_exact(self):
        """Phases gathered from the resource's distinct levels equal amps * exp(1j t E) bit for bit.

        The unit resource at n = 3, 5, 6, 7 and 10 has floor(n/2)+1 levels:
        one energy per Hamming weight up to the flip of every qubit.
        """
        rng = np.random.default_rng(47)
        for n in (3, 5, 6, 7, 10):
            levels, index = program_module._energy(n)
            diagonal = coupling_diagonal(IsingSpec.homogeneous(n))
            assert np.array_equal(levels[index], diagonal)
            assert len(levels) == n // 2 + 1
            shape = (4, 2 ** n, 3)
            amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            values = rng.normal(scale=0.02, size=4)
            for block in (AnalogBlock(-0.62), AnalogBlock(1.37, "banged")):
                program = Program(n, (block,))
                noisy = program_module._run(program, amps, values[:, None])
                phases = np.exp(1j * (block.duration + values)[:, None] * diagonal)
                assert np.array_equal(noisy, amps * phases[:, :, None]), (n, block)
                kernel_amps = np.moveaxis(amps, 0, -1)  # the executor's (2^n, r, k) layout
                ideal = block.ideal_apply(kernel_amps, n)
                phases = np.exp(1j * block.duration * diagonal)
                assert np.array_equal(ideal, kernel_amps * phases[:, None, None])

    def test_analog_block_noise_shifts_duration(self):
        """A draw of delta evolves for duration + delta."""
        state = Statevector(2, np.eye(4)[1])
        program = Program(2, (AnalogBlock(0.5),))
        out = run_with_draws(state, program, lambda instr: 0.125)
        expected = state.amplitudes * np.exp(1j * 0.625 * coupling_diagonal(IsingSpec.homogeneous(2)))
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_banged_window_matches_dense_expm(self):
        """Window evolution equals exp(i dt (H_res + sum_q (pi/2dt) X_q))."""
        rng = np.random.default_rng(37)
        dt = 0.21
        for qubits in ((1,), (2,), (1, 3), (2, 3), (1, 2, 3)):
            window = BangedWindow(dt, qubits)
            state = random_state(3, rng)
            fast = execute_program(state, Program(3, (window,)))

            ham = np.diag(coupling_diagonal(IsingSpec.homogeneous(3))).astype(complex)
            for q in qubits:
                ham += (np.pi / (2 * dt)) * kron_lift(3, q, PAULI_X)
            slow = expm_evolve(ham, dt, state.amplitudes)
            assert np.allclose(fast.amplitudes, slow, atol=1e-10)

    def test_banged_window_matches_oracle_on_every_pair(self):
        """Noisy windows on every driven pair at n = 3, 5, 6, 7 match the dense exponential."""
        rng = np.random.default_rng(43)
        for n in (3, 5, 6, 7):
            diagonal = np.diag(coupling_diagonal(IsingSpec.homogeneous(n))).astype(complex)
            for pair in all_pairs(n):
                for dt in (1e-4, 0.21):
                    values = rng.uniform(0.99, 1.01, size=2)
                    state = random_state(n, rng)
                    program = Program(n, (BangedWindow(dt, pair),))
                    fast = run_with_draws(state, program, lambda _: values)
                    ham = diagonal.copy()
                    for q, value in zip(pair, values):
                        ham += (np.pi / (2 * dt)) * value * kron_lift(n, q, PAULI_X)
                    slow = expm_evolve(ham, dt, state.amplitudes)
                    assert np.max(np.abs(fast.amplitudes - slow)) <= 1e-13, (n, pair, dt)

    def test_window_memo_stays_with_its_program(self):
        """One window in n = 3, 5, 6 and 7 programs, run interleaved, matches expm.

        The ideal unitaries are cached by width, register size and
        driven-qubit count; a cache keyed by the window instance or the pair
        would give a later program an earlier one's unitaries.
        """
        rng = np.random.default_rng(53)
        dt = 0.21
        window = BangedWindow(dt, (1, 3))
        programs = [Program(n, (window,)) for n in (3, 5, 6, 7)]
        for _ in range(2):
            for program in programs:
                n = program.n_qubits
                ham = np.diag(coupling_diagonal(IsingSpec.homogeneous(n))).astype(complex)
                for q in window.qubits:
                    ham += (np.pi / (2 * dt)) * kron_lift(n, q, PAULI_X)
                state = random_state(n, rng)
                fast = execute_program(state, program)
                slow = expm_evolve(ham, dt, state.amplitudes)
                assert np.max(np.abs(fast.amplitudes - slow)) <= 1e-13, n

    def test_window_memo_equals_uncached_kernel(self):
        """The bDAQC n = 5 unitary equals, bit for bit, runs that build every window afresh.

        Unit drive draws for each window take the noisy kernel path, which
        builds the unitaries on every call; one run covers the 2^5 basis states.
        """
        program = compile_qft_daqc(5, "banged")

        def unit_drives(instr):
            return np.ones(len(instr.qubits)) if isinstance(instr, BangedWindow) else None

        noisy = run_with_draws(np.eye(2 ** 5, dtype=complex)[None], program, unit_drives)[0]
        assert np.array_equal(program_unitary(program), noisy)

    def test_banged_window_noise_scales_drives(self):
        """Per-qubit draws rescale each drive amplitude independently.

        The window is short enough that the resource barely acts during it.
        """
        dt = 1e-4
        window = BangedWindow(dt, (1, 2))
        state = Statevector(2, np.eye(4)[0])
        program = Program(2, (window,))
        # drive qubit 1 at half amplitude: a pi/2 pulse becomes pi/4
        out = run_with_draws(state, program, lambda instr: np.array([0.5, 1.0]))
        # qubit 2 flips fully, qubit 1 splits between 0 and 1
        probs = np.abs(out.amplitudes) ** 2
        assert probs[1] == pytest.approx(0.5, abs=1e-3)
        assert probs[3] == pytest.approx(0.5, abs=1e-3)


class TestWindowSolver:
    """The Jacobi window solve against numpy's eigh."""

    def test_matches_eigh_oracle(self):
        """Class unitaries equal the eigh build within 1e-12 across sizes, widths and drive spreads.

        Every block of the grid also solves to the same bits alone as in its
        stack of drive rows.
        """
        rng = np.random.default_rng(67)
        for n in (3, 8, 10, 14):
            for m in (1, 2, 3):
                energies = program_module._class_energies(n, m)
                for dt in (1e-5, 1e-4, 0.21, 2.0):
                    for spread in (0.0, 5e-4, 0.05, 1.0):
                        drives = rng.uniform(1 - spread, 1 + spread, (4, m))
                        u = program_module._window_unitaries(energies, dt, drives)
                        oracle = window_class_unitaries(energies, dt, drives).transpose(2, 3, 1, 0)
                        error = np.max(np.abs(u - oracle))
                        assert error <= 1e-12, (n, m, dt, spread, error)
                        for row in range(len(drives)):
                            alone = program_module._window_unitaries(energies, dt, drives[row:row + 1])
                            assert np.array_equal(alone[..., 0], u[..., row]), (n, m, dt, spread, row)

    def test_matches_eigh_oracle_at_other_strengths(self):
        """The kernel on the class energies of the all-to-all resource at g = 0.3, 0.8 and 1e-4.

        Programs run the unit resource only; the kernel takes any class
        energies, and g times the unit ones are those of strength g.
        """
        rng = np.random.default_rng(71)
        for n in (3, 5, 6, 7):
            for m in (1, 2, 3):
                for g in (0.3, 0.8, 1e-4):
                    energies = g * program_module._class_energies(n, m)
                    for dt in (1e-4, 0.21, 0.5):
                        drives = rng.uniform(0.5, 1.01, (4, m))
                        u = program_module._window_unitaries(energies, dt, drives)
                        oracle = window_class_unitaries(energies, dt, drives).transpose(2, 3, 1, 0)
                        error = np.max(np.abs(u - oracle))
                        assert error <= 1e-12, (n, m, g, dt, error)

    def test_blocks_solve_alone_as_in_a_stack(self):
        """Eigenvalues and vectors of each block equal, bit for bit, those of its stack."""
        rng = np.random.default_rng(73)
        for dim in (2, 4, 8):
            h = rng.normal(size=(dim, dim, 9))
            h = h + h.transpose(1, 0, 2)
            basis = np.eye(dim)
            values, vectors = program_module._jacobi(h, basis)
            for block in range(h.shape[-1]):
                alone = program_module._jacobi(h[..., block:block + 1], basis)
                assert np.array_equal(alone[0][:, 0], values[:, block]), (dim, block)
                assert np.array_equal(alone[1][..., 0], vectors[..., block]), (dim, block)
            rebuilt = np.einsum("ikb,kb,jkb->ijb", vectors, values, vectors)
            assert np.allclose(rebuilt, h, atol=1e-12)

    def test_class_energies_depend_on_driven_count_only(self):
        """Every window of m driven qubits sees the same class energies, bit for bit, at any g.

        The executor stacks a schedule's windows of one width and
        driven-qubit count into one solve on the class energies of the
        first m qubits.  At g = 1 they are _class_energies's, for every m-subset.
        """
        for n in (5, 7):
            for g in (1.0, 0.3, 0.8):
                values = coupling_diagonal(IsingSpec(n, dict.fromkeys(all_pairs(n), g)))
                for m in (1, 2, 3):
                    tables = [
                        values[class_rows(n, qubits)]
                        for qubits in itertools.combinations(range(1, n + 1), m)
                    ]
                    assert all(np.array_equal(table, tables[0]) for table in tables), (n, g, m)
                    if g == 1.0:
                        energies = program_module._class_energies(n, m)
                        assert all(np.array_equal(energies, table) for table in tables), (n, m)

    def test_mixed_windows_equal_one_instruction_programs(self):
        """A run of windows of several widths and sizes equals running each instruction alone, bit for bit."""
        instructions = (
            BangedWindow(0.01, (1, 2)),
            AnalogBlock(0.3, "banged"),
            BangedWindow(0.01, (3, 5)),
            BangedWindow(0.02, (2, 4)),
            BangedWindow(0.02, (1, 3, 4)),
            AnalogBlock(-0.1, "banged"),
            BangedWindow(0.02, (5,)),
            BangedWindow(0.02, (1, 4)),
        )
        rng = np.random.default_rng(79)
        values = {
            instr: rng.uniform(0.99, 1.01, len(instr.qubits))
            for instr in instructions
            if isinstance(instr, BangedWindow)
        }
        state = random_state(5, rng)
        together = run_with_draws(state, Program(5, instructions), values.get)
        alone = state
        for instr in instructions:
            alone = run_with_draws(alone, Program(5, (instr,)), values.get)
        assert np.array_equal(together.amplitudes, alone.amplitudes)

    def test_unitaries_are_symmetric(self):
        """Each class unitary equals its transpose bit for bit, as the solve forms only its upper entries.

        exp(i dt H) of a real symmetric H is symmetric; the build sums
        (v_a v_b) e^{i dt w} over the eigenvectors and reads entry (b, a)
        from entry (a, b).  672 drive rows at n = 7 are one mc-paper chunk.
        """
        rng = np.random.default_rng(83)
        for n, rows in ((3, 40), (7, 672)):
            for m in (1, 2, 3):
                energies = program_module._class_energies(n, m)
                for dt in (1e-4, 0.21):
                    u = program_module._window_unitaries(energies, dt, rng.uniform(0.99, 1.01, (rows, m)))
                    assert np.array_equal(u, u.swapaxes(0, 1)), (n, m, dt)

    def test_sweep_cap_raises(self, monkeypatch):
        """A solve that needs more sweeps than the cap raises instead of returning."""
        monkeypatch.setattr(program_module, "_JACOBI_SWEEPS", 1)
        h = np.array([[1.0, 2.0, 0.5], [2.0, -1.0, 3.0], [0.5, 3.0, 0.25]])[:, :, None]
        with pytest.raises(RuntimeError, match="did not converge in 1 sweeps"):
            program_module._jacobi(h, np.eye(3))


def random_draws(program, rows, rng, none_share=0.0):
    """Per-instruction draws for ``rows`` register rows, each None with probability ``none_share``.

    Gates draw amplitude factors near 1, entanglers and analog blocks
    offsets near 0, a window one factor per driven qubit; instructions
    with no noise model draw None.  ``site_values`` lays them out as the
    (rows, sites) matrix that ``_run`` takes, a None as ideal values.
    """
    draws = []
    for instr in program.instructions:
        if isinstance(instr, (Permute, ControlledPhase)) or rng.random() < none_share:
            draws.append(None)
        elif isinstance(instr, BangedWindow):
            draws.append(rng.uniform(0.98, 1.02, (rows, len(instr.qubits))))
        elif isinstance(instr, (Entangler, AnalogBlock)):
            draws.append(rng.normal(0.0, 0.05, rows))
        else:
            draws.append(rng.uniform(0.98, 1.02, rows))
    return draws


class TestOperandPass:
    """The executor builds the noisy operands of each instruction class together, in bounded chunks."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_equals_each_instruction_alone(self, protocol):
        """Random draws, some ideal values, give the bits of each instruction alone and each row alone.

        Alone, an instruction is a one-instruction program whose operand is
        built for it only; together, its class's operands are built in one
        call.  A register row alone is a one-row block, whose kernels loop
        over its own amplitudes, where rows together share each loop's
        innermost axis; the rows run alone are the first 9, the middle one
        and the last.  At n = 2, 3, 5 and 7, k = 1, 16 and 200 register rows
        of r = 1 and 2 inputs, and the dense block of k = 1 and r = 2^n.
        """
        rng = np.random.default_rng(89)
        for n in (2, 3, 5, 7):
            program = build_protocol_program(protocol, n)
            for rows, inputs in [(1, 1), (1, 2), (16, 1), (16, 2), (200, 1), (200, 2), (1, 2 ** n)]:
                draws = random_draws(program, rows, rng, none_share=0.2)
                assert any(draw is None for draw in draws) and any(draw is not None for draw in draws)
                values = site_values(program, draws, rows)
                shape = (rows, 2 ** n, inputs)
                block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                together = program_module._run(program, block, values)
                assert together.shape == shape
                alone = block
                for instr, draw in zip(program.instructions, draws):
                    single = Program(n, (instr,))
                    alone = program_module._run(single, alone, site_values(single, [draw], rows))
                case = (protocol, n, rows, inputs)
                assert np.array_equal(together, alone), case
                for row in sorted(set(range(min(rows, 9))) | {rows // 2, rows - 1}):
                    alone = program_module._run(program, block[row:row + 1], values[row:row + 1])
                    assert np.array_equal(together[row:row + 1], alone), case + (row,)

    def test_chunks_stay_within_cap(self, monkeypatch):
        """No chunk passes its cap unless it is one instruction, and the bits do not move.

        With the caps cut to 96 operand entries and 40 window blocks, 8
        register rows of a one-qubit gate (32 entries each) go three to a
        chunk, and n = 5 windows (8 rows of 2 class blocks each) two.
        """
        rng = np.random.default_rng(97)
        build = program_module._operand_chunk
        chunks = []

        def spy(group, positions, values):
            chunk = build(group, positions, values)
            chunks.append(list(chunk.values()))
            return chunk

        for protocol in PROTOCOLS:
            program = build_protocol_program(protocol, 5)
            draws = site_values(program, random_draws(program, 8, rng), 8)
            block = np.broadcast_to(np.eye(2 ** 5, dtype=complex)[:, :2], (8, 2 ** 5, 2))
            expected = program_module._run(program, block, draws)
            monkeypatch.setattr(program_module, "_OPERAND_ENTRIES", 96)
            monkeypatch.setattr(program_module, "_WINDOW_BLOCKS", 40)
            monkeypatch.setattr(program_module, "_operand_chunk", spy)
            chunks.clear()
            fresh = build_protocol_program(protocol, 5)  # its layout takes the cut caps
            assert np.array_equal(program_module._run(fresh, block, draws), expected), protocol
            monkeypatch.undo()
            assert any(len(operands) > 1 for operands in chunks), protocol
            for operands in chunks:
                if operands[0].ndim == 4:  # window class unitaries (k, C, 4, 4)
                    size, cap = sum(u.shape[0] * u.shape[1] for u in operands), 40
                else:
                    size, cap = sum(operand.size for operand in operands), 96
                assert len(operands) == 1 or size <= cap, (protocol, len(operands), size)
            if protocol == "bdaqc":
                assert any(operands[0].ndim == 4 and len(operands) == 2 for operands in chunks)

    def test_layout_dies_with_its_program(self):
        """A program's operand layout is kept on it, and the program is freed after a noisy run.

        A module-level table keyed by the program would keep every compiled
        program's layout, and a Monte-Carlo sweep compiles one per cell.
        """
        program = build_protocol_program("bdaqc", 3)
        sites = NoiseSites.for_program(program)
        standard = sample_noise(sites, np.random.default_rng(101))[None]
        draws = sites.draws(standard, [NoiseConfig()])
        program_module._run(program, np.eye(8, dtype=complex)[None], draws)
        assert "_operand_layout" in vars(program)
        ref = weakref.ref(program)
        del program
        gc.collect()
        assert ref() is None


class TestProgramExecution:
    """Whole-program behavior."""

    def test_unitary_matches_execution(self):
        """program_unitary times the input equals executing the program."""
        rng = np.random.default_rng(41)
        instructions = (
            HadamardGate(1),
            Rotation(2, "z", 0.3),
            Entangler(1, 3),
            AnalogBlock(0.4),
            XGate(3),
        )
        program = Program(3, instructions)
        state = random_state(3, rng)
        direct = execute_program(state, program)
        via_matrix = program_unitary(program) @ state.amplitudes
        assert np.allclose(direct.amplitudes, via_matrix, atol=1e-10)

    def test_register_mismatch(self):
        """State and program sizes must agree."""
        with pytest.raises(ValueError, match="disagree"):
            execute_program(Statevector(2, np.eye(4)[0]), Program(3, (HadamardGate(1),)))

    def test_execute_program_is_ideal_only(self):
        """execute_program takes a state and a program and nothing else."""
        assert list(inspect.signature(execute_program).parameters) == ["state", "program"]

    def test_none_draws_are_ideal(self):
        """Ideal site values, the oracle's None draws, give the ideal run bit for bit.

        A controlled phase has no noise model: a noisy run of a program
        holding one raises, whatever its draws.
        """
        instructions = (
            HadamardGate(1),
            Rotation(2, "y", 0.3),
            XGate(3),
            Entangler(1, 3),
            AnalogBlock(0.4),
            BangedWindow(0.01, (1, 2)),
            Permute((7, 6, 5, 4, 3, 2, 1, 0)),
        )
        program = Program(3, instructions)
        block = np.eye(8, dtype=complex)[None]
        noisy = run_with_draws(block, program, lambda instr: None)
        assert np.array_equal(noisy, program_module._run(program, block))
        with_phase = Program(3, instructions + (ControlledPhase(2, 1, 3),))
        with pytest.raises(UnsupportedGateError, match="no noise model for ControlledPhase"):
            run_with_draws(block, with_phase, lambda instr: None)

    def test_draws_must_match_rows_and_sites(self):
        """A value matrix without one row per register row and one column per site raises."""
        instructions = (HadamardGate(1), BangedWindow(0.01, (1, 2)))
        program = Program(2, instructions)
        block = np.eye(4, dtype=complex)[None]
        for draws in (np.ones((1, 2)), np.ones((1, 4)), np.ones(3), np.ones((2, 3))):
            with pytest.raises(ValueError, match=r"expected draws of shape \(1, 3\)"):
                program_module._run(program, block, draws)
        assert program_module._run(program, block, np.ones((1, 3))).shape == block.shape


def test_numpy_floor_has_bitwise_count():
    """pyproject.toml requires numpy >= 2.0, the first release with np.bitwise_count.

    ``_window_structure``, ``_energy`` and ``_class_energies`` count set
    bits with it.  The file is parsed with
    tomllib, or, on Python 3.10, which has none, its dependency list is read
    as a literal.
    """
    text = (REPO_ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ImportError:  # Python 3.10
        listed = re.search(r"^dependencies = (\[.*?\])", text, re.MULTILINE | re.DOTALL)
        dependencies = ast.literal_eval(listed.group(1))
    else:
        dependencies = tomllib.loads(text)["project"]["dependencies"]
    (numpy,) = [dependency for dependency in dependencies if re.match(r"numpy\b", dependency)]
    floor = re.fullmatch(r"numpy>=(\d+)\.(\d+)", numpy.replace(" ", ""))
    assert floor and tuple(map(int, floor.groups())) >= (2, 0), numpy
    assert hasattr(np, "bitwise_count")
