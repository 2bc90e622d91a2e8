"""Tests for the analog-schedule compiler and its execution."""

import numpy as np
import pytest

from daqft import daqc
from daqft.daqc import (
    DEFAULT_DELTA_T,
    DaqcSchedule,
    SingularSignMatrixError,
    banged_segment_durations,
    build_bdaqc_schedule,
    build_sdaqc_schedule,
    compile_qft_daqc,
    schedule_dump,
    schedule_program,
    sign_matrix,
    solve_residual,
    solve_times,
)
from daqft.ising import MAX_QUBITS, IsingSpec, all_pairs, coupling_diagonal
from daqft.program import (
    AnalogBlock,
    BangedWindow,
    HadamardGate,
    Program,
    Rotation,
    XGate,
    execute_program,
    program_unitary,
)
from daqft.qft import exact_qft, qft_block_target, readout_instruction
from daqft.statevector import Statevector, fidelity, phase_insensitive_distance


def random_state(n, rng):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return Statevector(n, amps / np.linalg.norm(amps))


def random_target(n, rng):
    couplings = {pair: float(rng.normal()) for pair in all_pairs(n)}
    return IsingSpec(n, couplings, target_time=float(rng.uniform(0.2, 2.0)))


def per_block_segments(times, delta_t):
    """Banged segment durations charged block by block, the loop banged_segment_durations replaced."""
    count = len(times)
    segments = []
    for i, t in enumerate(times):
        if count == 1:
            charge = 2.0 * delta_t
        elif i in (0, count - 1):
            charge = 1.5 * delta_t
        else:
            charge = delta_t
        segments.append(float(t) - charge)
    return segments


def per_block_instructions(schedule):
    """A schedule lowered block by block, the loop schedule_program's lowering replaced."""
    instructions = []
    if schedule.mode == "stepwise":
        x = {q: XGate(q) for q in range(1, schedule.n_qubits + 1)}
        for qubits, duration in schedule.blocks:
            pulse = [x[q] for q in qubits]
            instructions.extend((*pulse, AnalogBlock(duration, "stepwise"), *pulse))
    else:
        durations = [duration for _, duration in schedule.blocks]
        segments = per_block_segments(durations, schedule.delta_t)
        for (qubits, _), segment in zip(schedule.blocks, segments):
            window = BangedWindow(schedule.delta_t, qubits)
            instructions.extend((window, AnalogBlock(segment, "banged"), window))
    return tuple(instructions)


def flipped_resource_diagonal(resource, flip_set):
    """Energies of X_S H X_S: every coupling with exactly one end in S changes sign."""
    couplings = {
        (j, k): -g if (j in flip_set) != (k in flip_set) else g
        for (j, k), g in resource.couplings.items()
    }
    return coupling_diagonal(IsingSpec(resource.n_qubits, couplings))


def schedule_built_qft(n, mode, delta_t=DEFAULT_DELTA_T):
    """The QFT program built from solve_times, DaqcSchedule and schedule_program.

    The construction compile_qft_daqc replaced: one checked schedule per
    block, its blocks the solved durations on all_pairs in order, lowered on
    its own, and the negative analog blocks counted over the finished
    instruction list.  Each block's lowering is also checked against the
    block-by-block loop.
    """
    window = delta_t if mode == "banged" else None
    instructions, block_times = [], []
    for m in range(1, n):
        target = qft_block_target(n, m)
        instructions.append(HadamardGate(m))
        for (_, q), angle in target.couplings.items():
            instructions.extend((Rotation(m, "z", -angle), Rotation(q, "z", -angle)))
        blocks = tuple(zip(all_pairs(n), solve_times(target)))
        schedule = DaqcSchedule(mode, blocks, n, window)
        block_times.append(tuple(duration for _, duration in schedule.blocks))
        lowered = schedule_program(schedule).instructions
        assert repr(lowered) == repr(per_block_instructions(schedule))
        instructions.extend(lowered)
    instructions += [HadamardGate(n), readout_instruction(n)]
    negative = sum(1 for i in instructions if isinstance(i, AnalogBlock) and i.duration < 0)
    metadata = {
        "mode": mode,
        "delta_t": window,
        "block_times": tuple(block_times),
        "negative_segments": negative,
    }
    return Program(n, tuple(instructions), metadata)


class TestVectorization:
    """Pair <-> alpha-index bookkeeping."""

    def test_roundtrip(self):
        """The dump numbers the pairs 1..N(N-1)/2 in all_pairs order."""
        for n in (2, 3, 5, 7):
            pairs = all_pairs(n)
            lines = schedule_dump(build_sdaqc_schedule(np.zeros(len(pairs)))).splitlines()
            for idx, (pair, line) in enumerate(zip(pairs, lines, strict=True), start=1):
                assert line.split()[:3] == [str(idx), str(pair[0]), str(pair[1])]

    def test_rejects_bad_pairs(self):
        """Durations that do not cover the pair set exactly are refused."""
        with pytest.raises(ValueError, match="2 durations do not form a full pair set"):
            build_sdaqc_schedule(np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="2 durations do not form a full pair set"):
            build_bdaqc_schedule(np.array([0.1, 0.2]), 0.01)
        with pytest.raises(ValueError, match="full pair set"):
            build_sdaqc_schedule(np.ones(4))

    def test_rejects_bad_flip_sets(self):
        """A flip set is a non-empty ascending tuple of distinct register qubits."""
        for qubits in ((), (2, 1), (1, 1), (0, 2), (2, 4)):
            with pytest.raises(ValueError, match="flip set"):
                DaqcSchedule("stepwise", ((qubits, 0.1),), 3)
        schedule = DaqcSchedule("stepwise", [([1, 3], np.float64(0.1)), ((2,), 1)], 3)
        assert schedule.blocks == (((1, 3), 0.1), ((2,), 1.0))
        assert all(type(duration) is float for _, duration in schedule.blocks)

    def test_rejects_bad_register_size(self):
        """A schedule's register holds 1..MAX_QUBITS qubits, as a program's does."""
        for n in (0, MAX_QUBITS + 1):
            with pytest.raises(ValueError, match="n_qubits must be in"):
                DaqcSchedule("stepwise", (), n)
        with pytest.raises(ValueError, match="n_qubits must be in"):
            build_sdaqc_schedule(np.zeros(len(all_pairs(MAX_QUBITS + 1))))


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

    def test_built_once_per_register_size(self):
        """Each size's matrix is read-only, follows the pair-overlap rule, and is built once."""
        for n in range(2, 11):
            m = sign_matrix(n)
            assert sign_matrix(n) is m
            assert not m.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 0
            pairs = all_pairs(n)
            expected = [[-1 if len(set(a) & set(b)) == 1 else 1 for b in pairs] for a in pairs]
            assert m.dtype == np.array(expected).dtype and np.array_equal(m, expected)

    def test_singular_only_at_four(self):
        """det vanishes at N=4 and nowhere else in 2..10."""
        assert np.linalg.det(sign_matrix(4)) == pytest.approx(0.0, abs=1e-9)
        for n in (2, 3, 5, 6, 7, 8, 9, 10):
            assert abs(np.linalg.det(sign_matrix(n))) > 0.5


class TestSolveTimes:
    """Duration solving against hand-checked cases."""

    def test_zero_target_time_rejected(self):
        """No durations realize a coupling in zero time: solving and checking raise ValueError.

        A subnormal time is rejected too, because 1 / t overflows.
        """
        for target_time in (0.0, -1e-320):
            target = IsingSpec(3, {(1, 2): 0.5}, target_time=target_time)
            with pytest.raises(ValueError, match=f"target_time must be nonzero.*got {target_time!r}"):
                solve_times(target)
            with pytest.raises(ValueError, match=f"target_time must be nonzero.*got {target_time!r}"):
                solve_residual(target, np.zeros(3))

    def test_nan_residual_fails(self, monkeypatch):
        """A NaN residual does not pass the tolerance test."""
        monkeypatch.setattr(daqc, "_residual", lambda *args: float("nan"))
        with pytest.raises(RuntimeError, match="residual nan"):
            solve_times(qft_block_target(3, 1))

    def test_qft_block_example(self):
        """First block of the 3-qubit transform gives the known durations."""
        times = solve_times(qft_block_target(3, 1))
        expected = [-np.pi / 32, -np.pi / 16, -3 * np.pi / 32]
        assert np.allclose(times, expected, atol=1e-12)

    def test_homogeneous_target(self):
        """A uniform target with unit coupling needs -t_F on every block."""
        target = IsingSpec(3, dict.fromkeys(all_pairs(3), 1.0), target_time=0.7)
        assert np.allclose(solve_times(target), [-0.7, -0.7, -0.7], atol=1e-12)

    def test_zero_target(self):
        """No couplings means no evolution."""
        target = IsingSpec(5, {})
        assert np.allclose(solve_times(target), 0.0)

    def test_n4_is_singular(self):
        """The 4-qubit system has no duration solution."""
        with pytest.raises(SingularSignMatrixError, match="singular sign matrix for N=4"):
            solve_times(IsingSpec.homogeneous(4))

    def test_sign_matrix_built_once_per_solve(self, monkeypatch):
        """Solving and checking the residual share one sign matrix."""
        built = []

        def counting(n_qubits):
            built.append(n_qubits)
            return sign_matrix(n_qubits)

        monkeypatch.setattr(daqc, "sign_matrix", counting)
        solve_times(qft_block_target(5, 1))
        assert built == [5]

    def test_residual_is_tiny(self):
        """Solutions reproduce the target couplings to solver precision."""
        rng = np.random.default_rng(19)
        for n in (2, 3, 5, 6):
            target = random_target(n, rng)
            times = solve_times(target)
            assert solve_residual(target, times) < 1e-10


class TestScheduleConstruction:
    """Schedule shapes and the window/segment timing rule."""

    def test_times_cover_pairs_in_order(self):
        """Durations are kept as floats and lowered onto the pairs in alpha order."""
        times = np.arange(1.0, 7.0)
        schedule = build_sdaqc_schedule(times)
        assert schedule.n_qubits == 4
        assert schedule.blocks == tuple(zip(all_pairs(4), times.tolist()))
        assert all(type(duration) is float for _, duration in schedule.blocks)
        instrs = schedule_program(schedule).instructions
        pairs = [(instrs[i].qubit, instrs[i + 1].qubit) for i in range(0, len(instrs), 5)]
        assert pairs == all_pairs(4)
        assert [instrs[i].duration for i in range(2, len(instrs), 5)] == list(times)

    def test_banged_needs_delta_t(self):
        """Banged schedules need a finite, positive, normal window width."""
        for delta_t in (0.0, -1e-3, float("nan"), float("inf"), None, 1e-320):
            with pytest.raises(ValueError, match="finite delta_t > 0"):
                build_bdaqc_schedule(np.ones(3), delta_t)
            with pytest.raises(ValueError, match="finite delta_t > 0"):
                blocks = tuple(zip(all_pairs(3), np.ones(3)))
                DaqcSchedule("banged", blocks, 3, delta_t)

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

    def test_segment_charges_match_per_block_loop(self):
        """Segments of 0..12 blocks, from arrays, tuples and lists, equal the per-block loop's bits."""
        rng = np.random.default_rng(61)
        for count in range(13):
            for delta_t in (1e-4, 0.01, 0.3):
                times = rng.normal(size=count)
                for given in (times, tuple(times.tolist()), list(times)):
                    segments = banged_segment_durations(given, delta_t)
                    assert repr(segments) == repr(per_block_segments(given, delta_t))

    def test_negative_durations_survive(self):
        """Negative analog times are kept, not clipped."""
        segments = banged_segment_durations([0.05], 0.1)
        assert segments[0] == pytest.approx(-0.15)

    def test_stepwise_lowering(self):
        """Each stepwise item becomes an X-sandwiched analog block."""
        schedule = build_sdaqc_schedule(np.array([0.3]))
        instrs = schedule_program(schedule).instructions
        assert [type(i) for i in instrs] == [XGate, XGate, AnalogBlock, XGate, XGate]
        assert instrs[0].qubit == 1 and instrs[1].qubit == 2
        assert instrs[2].duration == pytest.approx(0.3)

    def test_banged_lowering(self):
        """Each banged item becomes window, segment, window on its pair."""
        schedule = build_bdaqc_schedule(np.array([0.3, 0.4, 0.5]), 0.01)
        instrs = schedule_program(schedule).instructions
        assert [type(i) for i in instrs[:3]] == [BangedWindow, AnalogBlock, BangedWindow]
        assert instrs[0].qubits == (1, 2)
        assert instrs[0].duration == pytest.approx(0.01)
        assert instrs[1].kind == "banged"

    def test_banged_reordered_blocks(self):
        """Blocks run in their own order, one window per flip set, 1.5 windows charged at both ends."""
        dt = 0.01
        blocks = (((2, 3), 0.3), ((1,), 0.4), ((1, 2, 3), 0.5), ((2, 3), 0.6))
        schedule = DaqcSchedule("banged", blocks, 3, dt)
        instrs = schedule_program(schedule).instructions
        assert repr(instrs) == repr(per_block_instructions(schedule))
        opening, segments, closing = instrs[0::3], instrs[1::3], instrs[2::3]
        assert all(a is b for a, b in zip(opening, closing, strict=True))
        assert [w.qubits for w in opening] == [qubits for qubits, _ in blocks]
        assert all(type(w) is BangedWindow and w.duration == dt for w in opening)
        assert instrs[0] is instrs[2] is instrs[9] is instrs[11]
        assert [a.duration for a in segments] == [0.3 - 1.5 * dt, 0.4 - dt, 0.5 - dt, 0.6 - 1.5 * dt]
        assert all(a.kind == "banged" for a in segments)


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

    def test_any_flip_sets_match_dense_oracle(self):
        """Blocks out of pair order, a repeated flip set, and 1- and 3-qubit flip sets.

        The schedule equals exp(i sum_b t_b H_b), H_b the unit resource with
        the sign of every coupling with exactly one end in S_b flipped.
        """
        resource = IsingSpec.homogeneous(5)
        blocks = (
            ((2, 4), 0.31),
            ((1,), -0.27),
            ((1, 3, 5), 0.44),
            ((2, 4), -0.12),
            ((3, 4), 0.58),
            ((1, 2), 0.05),
            ((2, 3, 4), -0.36),
        )
        program = schedule_program(DaqcSchedule("stepwise", blocks, 5))
        xs = [instr for instr in program.instructions if isinstance(instr, XGate)]
        assert [x.qubit for x in xs] == [q for qubits, _ in blocks for _ in range(2) for q in qubits]
        assert len({id(x) for x in xs}) == 5  # one X gate per qubit
        phase = sum(t * flipped_resource_diagonal(resource, set(s)) for s, t in blocks)
        ideal = np.diag(np.exp(1j * phase))
        assert phase_insensitive_distance(program_unitary(program), ideal) < 1e-12

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

    def test_bad_delta_t_rejected(self):
        """A banged width is checked before any block is built, also at n = 1."""
        for n in (1, 3):
            for delta_t in (float("nan"), float("inf"), 0.0, -1e-4, 1e-320):
                with pytest.raises(ValueError, match="finite delta_t > 0"):
                    compile_qft_daqc(n, "banged", delta_t)

    @pytest.mark.parametrize("mode", ["stepwise", "banged"])
    @pytest.mark.parametrize("n", [3, 5, 6, 7])
    def test_matches_schedule_built_program(self, n, mode):
        """Instructions and metadata equal the schedule-built program's, bit for bit."""
        program = compile_qft_daqc(n, mode)
        expected = schedule_built_qft(n, mode)
        assert len(program.instructions) == len(expected.instructions)
        for got, want in zip(program.instructions, expected.instructions):
            assert type(got) is type(want) and repr(got) == repr(want)
        assert repr(program.metadata) == repr(expected.metadata)

    @pytest.mark.parametrize("mode", ["stepwise", "banged"])
    def test_program_shares_pulses(self, mode):
        """A compiled program holds one X gate per qubit or one drive window per pair."""
        for n in (3, 5, 7):
            instructions = compile_qft_daqc(n, mode).instructions
            pulses = {id(i): i for i in instructions if isinstance(i, (XGate, BangedWindow))}.values()
            if mode == "stepwise":
                assert sorted(x.qubit for x in pulses) == list(range(1, n + 1))
            else:
                assert sorted(w.qubits for w in pulses) == all_pairs(n)

    def test_negative_segment_count(self):
        """negative_segments counts the analog blocks of negative duration in either mode."""
        counts = {"stepwise": (5, 28, 69, 4), "banged": (6, 28, 75, 21)}
        for mode, mode_counts in counts.items():
            for n, count in zip((3, 5, 6, 7), mode_counts):
                program = compile_qft_daqc(n, mode)
                durations = [
                    instr.duration for instr in program.instructions if isinstance(instr, AnalogBlock)
                ]
                assert program.metadata["negative_segments"] == count, (mode, n)
                assert sum(1 for d in durations if d < 0) == count, (mode, n)

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

    def test_any_flip_set_line(self):
        """Lines read `alpha <flip-set qubits> duration`, blocks in their own order."""
        blocks = (((1, 2, 3), 0.25), ((2,), -0.5), ((1, 3), 0.0))
        schedule = DaqcSchedule("stepwise", blocks, 3)
        assert schedule_dump(schedule) == (
            "1 1 2 3 2.500000000000e-01\n2 2 -5.000000000000e-01\n3 1 3 0.000000000000e+00\n"
        )
