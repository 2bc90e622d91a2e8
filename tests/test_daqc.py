"""Tests for the analog-schedule compiler and its execution."""

import numpy as np
import pytest

from daqft.daqc import (
    DaqcSchedule,
    SingularSignMatrixError,
    banged_segment_durations,
    build_bdaqc_schedule,
    build_sdaqc_schedule,
    compile_qft_daqc,
    schedule_dump,
    schedule_instructions,
    schedule_program,
    sign_matrix,
    solve_residual,
    solve_times,
    vectorize_pair,
)
from daqft.ising import IsingSpec, all_pairs, coupling_diagonal
from daqft.program import AnalogBlock, BangedWindow, XGate, execute_program, program_unitary
from daqft.qft import build_qft_plan, exact_qft
from daqft.statevector import Statevector, fidelity, phase_insensitive_distance


def random_state(n, rng):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return Statevector(n, amps / np.linalg.norm(amps))


def random_target(n, rng):
    couplings = {pair: float(rng.normal()) for pair in all_pairs(n)}
    return IsingSpec(n, couplings, target_time=float(rng.uniform(0.2, 2.0)))


class TestVectorization:
    """Pair <-> alpha-index bookkeeping."""

    def test_roundtrip(self):
        """vectorize_pair numbers the pairs 1..N(N-1)/2 in all_pairs order."""
        for n in (2, 3, 5, 7):
            for idx, pair in enumerate(all_pairs(n), start=1):
                assert vectorize_pair(*pair, n) == idx

    def test_rejects_bad_pairs(self):
        """Only ordered in-range pairs vectorize."""
        with pytest.raises(ValueError):
            vectorize_pair(2, 2, 3)
        with pytest.raises(ValueError):
            vectorize_pair(3, 1, 3)


class TestSignMatrix:
    """The conjugation-parity matrix."""

    def test_entries(self):
        """Entries are -1 iff the pairs share exactly one qubit."""
        m = sign_matrix(3)
        pairs = all_pairs(3)
        for a, pa in enumerate(pairs):
            for b, pb in enumerate(pairs):
                shared = len(set(pa) & set(pb))
                expected = -1 if shared == 1 else 1
                assert m[a, b] == expected

    def test_singular_only_at_four(self):
        """det vanishes at N=4 and nowhere else in 2..10."""
        assert np.linalg.det(sign_matrix(4)) == pytest.approx(0.0, abs=1e-9)
        for n in (2, 3, 5, 6, 7, 8, 9, 10):
            assert abs(np.linalg.det(sign_matrix(n))) > 0.5


class TestSolveTimes:
    """Duration solving against hand-checked cases."""

    def test_qft_block_example(self):
        """First block of the 3-qubit transform gives the known durations."""
        plan = build_qft_plan(3)
        times = solve_times(plan.blocks[0].ising_block)
        expected = [-np.pi / 32, -np.pi / 16, -3 * np.pi / 32]
        assert np.allclose(times, expected, atol=1e-12)

    def test_homogeneous_target(self):
        """A uniform target with unit coupling needs -t_F on every block."""
        target = IsingSpec.homogeneous(3, 1.0, target_time=0.7)
        assert np.allclose(solve_times(target), [-0.7, -0.7, -0.7], atol=1e-12)

    def test_zero_target(self):
        """No couplings means no evolution."""
        target = IsingSpec(5, {})
        assert np.allclose(solve_times(target), 0.0)

    def test_n4_is_singular(self):
        """The 4-qubit system has no duration solution."""
        with pytest.raises(SingularSignMatrixError, match="singular sign matrix for N=4"):
            solve_times(IsingSpec.homogeneous(4))

    def test_residual_is_tiny(self):
        """Solutions reproduce the target couplings to solver precision."""
        rng = np.random.default_rng(19)
        for n in (2, 3, 5, 6):
            target = random_target(n, rng)
            times = solve_times(target)
            assert solve_residual(target, times) < 1e-10


class TestScheduleConstruction:
    """Schedule shapes and the window/segment timing rule."""

    def test_items_cover_pairs_in_order(self):
        """Items follow the alpha order of the pair list."""
        times = np.arange(1.0, 7.0)
        schedule = build_sdaqc_schedule(times)
        assert schedule.n_qubits == 4
        assert [item.pair for item in schedule.items] == list(all_pairs(4))
        assert [item.duration for item in schedule.items] == list(times)

    def test_banged_needs_delta_t(self):
        """Banged schedules validate the window width."""
        with pytest.raises(ValueError, match="delta_t"):
            build_bdaqc_schedule(np.ones(3), 0.0)
        with pytest.raises(ValueError, match="delta_t"):
            DaqcSchedule("banged", build_sdaqc_schedule(np.ones(3)).items, IsingSpec.homogeneous(3))

    def test_segment_charges(self):
        """First/last blocks lose 3/2 windows, interiors one, singletons two."""
        dt = 0.1
        assert banged_segment_durations([1.0], dt) == [pytest.approx(0.8)]
        assert banged_segment_durations([1.0, 2.0], dt) == [
            pytest.approx(0.85),
            pytest.approx(1.85),
        ]
        assert banged_segment_durations([1.0, 2.0, 3.0], dt) == [
            pytest.approx(0.85),
            pytest.approx(1.9),
            pytest.approx(2.85),
        ]

    def test_negative_durations_survive(self):
        """Negative analog times are kept, not clipped."""
        segments = banged_segment_durations([0.05], 0.1)
        assert segments[0] == pytest.approx(-0.15)

    def test_stepwise_lowering(self):
        """Each stepwise item becomes an X-sandwiched analog block."""
        schedule = build_sdaqc_schedule(np.array([0.3]))
        instrs = schedule_instructions(schedule)
        assert [type(i) for i in instrs] == [XGate, XGate, AnalogBlock, XGate, XGate]
        assert instrs[0].qubit == 1 and instrs[1].qubit == 2
        assert instrs[2].duration == pytest.approx(0.3)

    def test_banged_lowering(self):
        """Each banged item becomes window, segment, window on its pair."""
        schedule = build_bdaqc_schedule(np.array([0.3, 0.4, 0.5]), 0.01)
        instrs = schedule_instructions(schedule)
        assert [type(i) for i in instrs[:3]] == [BangedWindow, AnalogBlock, BangedWindow]
        assert instrs[0].qubits == (1, 2)
        assert instrs[0].duration == pytest.approx(0.01)
        assert instrs[1].kind == "banged"


class TestStepwiseExactness:
    """Ideal stepwise execution reproduces the dense target evolution."""

    def test_random_targets(self):
        """Sign-solved schedules equal exp(i t_F H_target) exactly."""
        rng = np.random.default_rng(23)
        for n in (2, 3, 5):
            for _ in range(5):
                target = random_target(n, rng)
                schedule = build_sdaqc_schedule(solve_times(target))
                built = program_unitary(schedule_program(schedule))
                ideal = np.diag(np.exp(1j * target.target_time * coupling_diagonal(target)))
                assert phase_insensitive_distance(built, ideal) < 1e-9

    def test_execute_schedule_runs(self):
        """Running a schedule's program on a state equals applying its unitary."""
        rng = np.random.default_rng(29)
        target = random_target(3, rng)
        times = solve_times(target)
        for schedule in (build_sdaqc_schedule(times), build_bdaqc_schedule(times, 0.01)):
            program = schedule_program(schedule)
            state = random_state(3, rng)
            direct = execute_program(state, program)
            via_unitary = program_unitary(program) @ state.amplitudes
            assert np.allclose(direct.amplitudes, via_unitary, atol=1e-12)


class TestCompileQft:
    """Whole-transform compilation."""

    def test_stepwise_is_exact(self):
        """Stepwise compilation reproduces the transform on random states."""
        rng = np.random.default_rng(31)
        for n in (2, 3, 5):
            program = compile_qft_daqc(n, "stepwise")
            for _ in range(3):
                state = random_state(n, rng)
                out = execute_program(state, program)
                assert fidelity(exact_qft(state), out) == pytest.approx(1.0, abs=1e-11)

    def test_banged_converges_to_stepwise(self):
        """Shrinking the window width drives the banged program to the stepwise one."""
        stepwise = program_unitary(compile_qft_daqc(3, "stepwise"))
        previous = None
        for dt in (1e-2, 1e-3, 1e-4):
            banged = program_unitary(compile_qft_daqc(3, "banged", dt))
            distance = phase_insensitive_distance(banged, stepwise)
            if previous is not None:
                assert distance < previous / 3
            previous = distance
        assert previous < 1e-2

    def test_n4_rejected(self):
        """Compilation refuses the singular register size."""
        with pytest.raises(SingularSignMatrixError, match="singular sign matrix for N=4"):
            compile_qft_daqc(4, "stepwise")

    def test_bad_mode(self):
        """Modes other than stepwise/banged are rejected."""
        with pytest.raises(ValueError, match="mode"):
            compile_qft_daqc(3, "diagonal")

    def test_negative_segment_count(self):
        """negative_segments counts the banged analog blocks of negative duration."""
        for n, count in ((3, 6), (5, 28), (6, 75), (7, 21)):
            program = compile_qft_daqc(n, "banged")
            durations = [
                instr.duration for instr in program.instructions if isinstance(instr, AnalogBlock)
            ]
            assert program.metadata["negative_segments"] == count
            assert sum(1 for d in durations if d < 0) == count
        assert compile_qft_daqc(3, "stepwise").metadata["negative_segments"] == 0

    def test_metadata(self):
        """Compilation records mode, window width, and per-block durations."""
        program = compile_qft_daqc(3, "banged", 0.001)
        assert program.metadata["mode"] == "banged"
        assert program.metadata["delta_t"] == pytest.approx(0.001)
        assert len(program.metadata["block_times"]) == 2
        assert np.allclose(
            program.metadata["block_times"][0],
            [-np.pi / 32, -np.pi / 16, -3 * np.pi / 32],
        )


class TestScheduleDump:
    """The text form of a schedule."""

    def test_line_format(self):
        """Lines read `alpha j k duration` with alpha in order."""
        schedule = build_sdaqc_schedule(np.array([0.25, -0.5, 0.75]))
        lines = schedule_dump(schedule).strip().splitlines()
        assert len(lines) == 3
        first = lines[0].split()
        assert first[:3] == ["1", "1", "2"]
        assert float(first[3]) == pytest.approx(0.25)
        assert float(lines[1].split()[3]) == pytest.approx(-0.5)
