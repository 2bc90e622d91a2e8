"""Tests for the coherent-noise model and Monte-Carlo experiment layer."""

import copy
import itertools
import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

from daqft import noise
from daqft import program as program_module
from daqft.daqc import compile_qft_daqc
from daqft.noise import (
    CONFIG_FILE_KEYS,
    CSV_HEADER,
    PROTOCOLS,
    BetaSummary,
    ExperimentRecord,
    NoiseConfig,
    NoiseSites,
    beta_average,
    build_protocol_program,
    config_to_dict,
    default_beta_grid,
    load_noise_config,
    make_sampler,
    monte_carlo,
    records_to_csv,
    sample_noise,
    sweep_beta,
    sweep_error_scale,
)
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
)
from daqft.qft import beta_state, exact_qft
from daqft.statevector import Statevector, fidelity
from oracles import reference_sampler, run_with_draws, site_values

CHANNEL_CONFIGS = pytest.mark.parametrize(
    "config",
    # The last one's entangler phase variance is 0.2, given as its std.
    [NoiseConfig(), NoiseConfig(error_scale=0.0), NoiseConfig(error_scale=1.7, tqgn=math.sqrt(0.2))],
    ids=["default", "scale-0", "scale-1.7-variance"],
)
ZERO_WIDTHS = NoiseConfig(sqgn=0.0, tqgn=0.0, abn_s=0.0, abn_b=0.0)


def counting(counts, name, fn):
    """fn, counting each call in counts[name]."""

    def wrapped(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapped


def every_channel_program(n=3):
    """A program with one instruction of each noise channel, a window and a readout."""
    instructions = (
        Rotation(1, "z", 0.3),
        XGate(2),
        HadamardGate(1),
        Entangler(1, 2),
        AnalogBlock(0.5, kind="stepwise"),
        AnalogBlock(0.5, kind="banged"),
        BangedWindow(0.01, (1, 3)),
        Permute(tuple(range(2 ** n))),
    )
    return Program(n, instructions)


def statistics_bits(record):
    """The bytes of a record's mean and standard deviation, which the CSV rounds."""
    return np.array([record.mean_fidelity, record.std_fidelity]).tobytes()


def reference_values(program, samplers):
    """The (rows, sites) values of one reference sampler per register row, called in program order."""
    serial = [[sampler(instr) for sampler in samplers] for instr in program.instructions]
    draws = [None if column[0] is None else np.array(column) for column in serial]
    return site_values(program, draws, rows=len(samplers))


class TestNoiseConfig:
    """Width validation and the std reading of the entangler noise."""

    def test_defaults(self):
        """Default widths match the reference noise model."""
        config = NoiseConfig()
        assert config.sqgn == pytest.approx(5e-4)
        assert config.tqgn == pytest.approx(0.2)
        assert config.abn_s == pytest.approx(0.02)
        assert config.abn_b == pytest.approx(0.01)
        assert config.abn_s == pytest.approx(2 * config.abn_b)
        assert config.error_scale == 1.0
        assert config.seed == 0

    def test_tqg_std_readings(self):
        """tqgn is the std of the entangler phase draws, scaled by error_scale; a variance v is tqgn = sqrt(v)."""

        def tqg_std(config):
            return noise._channel_maps(config)[1][noise._CHANNELS.index("tqg")]

        assert tqg_std(NoiseConfig(tqgn=0.2)) == 0.2
        assert tqg_std(NoiseConfig(tqgn=math.sqrt(0.04))) == pytest.approx(0.2)
        assert tqg_std(NoiseConfig(tqgn=0.2, error_scale=0.5)) == 0.2 * 0.5
        assert "tqg_std" not in dir(NoiseConfig)

    def test_no_variance_reading(self):
        """NoiseConfig has one entangler width, tqgn; the removed tqgn_is_std switch is not a field."""
        assert [f.name for f in fields(NoiseConfig)] == [
            "sqgn", "tqgn", "abn_s", "abn_b", "error_scale", "seed"
        ]
        with pytest.raises(TypeError, match="tqgn_is_std"):
            NoiseConfig(tqgn_is_std=True)

    def test_validation(self):
        """Negative or non-numeric widths and bad seeds are rejected."""
        with pytest.raises(ValueError, match="sqgn"):
            NoiseConfig(sqgn=-1e-3)
        with pytest.raises(ValueError, match="abn_b"):
            NoiseConfig(abn_b=float("nan"))
        with pytest.raises(ValueError, match="seed"):
            NoiseConfig(seed=-1)
        with pytest.raises(ValueError, match="sqgn"):
            NoiseConfig(sqgn="0.1")
        with pytest.raises(ValueError, match="tqgn"):
            NoiseConfig(tqgn=True)
        with pytest.raises(ValueError, match="seed"):
            NoiseConfig(seed=True)

    def test_negative_zero_widths_are_zero(self):
        """A width or scale of -0.0 is stored as 0.0, so CSVs and manifests print no sign."""
        for name in ("sqgn", "tqgn", "abn_s", "abn_b", "error_scale"):
            value = getattr(NoiseConfig(**{name: -0.0}), name)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, name


class TestSampling:
    """Site-table draws, each config's channel maps, and the sampler."""

    def test_ranges_and_determinism(self):
        """Draws stay in range and repeat under the same seed."""
        config = NoiseConfig()
        sites = NoiseSites.for_program(Program(1, (Rotation(1, "z", 0.3),) * 50))
        standard = sample_noise(sites, np.random.default_rng(5))
        again = sample_noise(sites, np.random.default_rng(5))
        assert np.array_equal(standard, again)
        draws = np.concatenate(sites.draws(standard[None], [config]))
        assert draws.shape == (50,)
        assert np.all((1 - 5e-4 <= draws) & (draws <= 1 + 5e-4))

    def test_zero_widths_are_exact(self):
        """Zero-width channels return the ideal values bit-exactly."""
        sites = NoiseSites.for_program(every_channel_program())
        standard = sample_noise(sites, np.random.default_rng(0))
        values = sites.draws(standard[None], [ZERO_WIDTHS])
        assert values.tolist() == [[1.0] * 3 + [0.0] * 3 + [1.0, 1.0]]  # the readout draws nothing

    @CHANNEL_CONFIGS
    def test_draws_equal_numpy_samplers(self, config):
        """Each channel equals rng.uniform / rng.normal on a cloned generator, bit for bit."""
        program = every_channel_program()
        sites = NoiseSites.for_program(program)
        rng = np.random.default_rng([3, 1])
        for _ in range(25):
            clone = copy.deepcopy(rng)
            values = sites.draws(make_sampler(rng)(sites)[None], [config])
            expected = reference_values(program, [reference_sampler(config, clone)])
            assert np.array_equal(values, expected), (values, expected)
            assert rng.bit_generator.state == clone.bit_generator.state

    @CHANNEL_CONFIGS
    def test_site_table_draws_equal_per_instruction_draws(self, config):
        """One table call per shot equals per-instruction rng.uniform/rng.normal calls, bit for bit.

        Each shot's generator also ends in the same state.
        """
        for protocol in PROTOCOLS:
            for n in (3, 5):
                program = build_protocol_program(protocol, n)
                rngs = [np.random.default_rng([config.seed, i]) for i in range(4)]
                clones = copy.deepcopy(rngs)
                sites = NoiseSites.for_program(program)
                standard = np.array([make_sampler(rng)(sites) for rng in rngs])
                batch = sites.draws(standard, [config])
                samplers = [reference_sampler(config, rng) for rng in clones]
                assert batch.shape == (4, len(sites.channels))
                assert np.array_equal(batch, reference_values(program, samplers)), (protocol, n)
                for rng, clone in zip(rngs, clones):
                    assert rng.bit_generator.state == clone.bit_generator.state

    def test_site_table_maps_each_config(self):
        """One shot's standard draws map to each config's reference draws, in block order.

        The block's rows run (config, shot), so the rows of config c are rows
        c * k ... (c + 1) * k - 1.
        """
        configs = [NoiseConfig(seed=5, error_scale=scale) for scale in (1.3, 0.0, 0.4)]
        program = build_protocol_program("bdaqc", 3)
        sites = NoiseSites.for_program(program)
        k = 3
        standard = np.array([make_sampler(np.random.default_rng([5, i]))(sites) for i in range(k)])
        batch = sites.draws(standard, configs)
        assert batch.shape == (len(configs) * k, len(sites.channels))
        for c, config in enumerate(configs):
            samplers = [reference_sampler(config, np.random.default_rng([5, i])) for i in range(k)]
            assert np.array_equal(batch[c * k:(c + 1) * k], reference_values(program, samplers)), c

    def test_site_table_layout(self):
        """Sites follow program order in runs of one distribution; a window has one per driven qubit."""
        program = Program(
            2,
            (
                HadamardGate(1),
                Rotation(2, "z", 0.3),
                Entangler(1, 2),
                AnalogBlock(0.5, kind="banged"),
                BangedWindow(0.01, (1, 2)),
                Permute((0, 1, 2, 3)),
            ),
        )
        sites = NoiseSites.for_program(program)
        assert sites.channels.tolist() == [0, 0, 1, 3, 0, 0]
        assert sites.runs == ((True, slice(0, 2)), (False, slice(2, 4)), (True, slice(4, 6)))
        channels, groups = program._operand_layout
        assert channels == ("sqg", "sqg", "tqg", "abn_b", "sqg", "sqg")
        columns = {
            index: column.tolist()
            for group in groups
            for index, column in zip(group.indices, group.columns)
        }
        assert columns == {0: 0, 1: 1, 2: 2, 3: 3, 4: [4, 5]}  # the readout has none
        standard = make_sampler(np.random.default_rng(3))(sites)
        assert standard.shape == (6,)
        assert sites.draws(standard[None], [NoiseConfig()]).shape == (1, 6)

    def test_site_table_unsupported_gate(self):
        """A table over a raw controlled phase raises: it has no noise channel."""
        with pytest.raises(UnsupportedGateError):
            NoiseSites.for_program(Program(2, (ControlledPhase(1, 2, 2),)))

    def test_unknown_kind(self):
        """A type outside the instruction set never reaches the noise model: Program rejects it by name.

        A program holds only the eight instruction classes, so the site
        table and the executor meet no other.
        """

        @dataclass(frozen=True)
        class Dephasing:
            qubit: int
            channel = "sqg"

        for instructions in [(Dephasing(1),), (XGate(1), Dephasing(1)), (XGate(1), "X 1")]:
            name = type(instructions[-1]).__name__
            with pytest.raises(ValueError, match=f"^{name} is not an instruction class$"):
                Program(1, instructions)

    def test_sqg_statistics(self):
        """10^5 amplitude draws: mean near one, support inside the interval."""
        config = NoiseConfig(sqgn=0.05)
        sites = NoiseSites.for_program(Program(1, (XGate(1),) * 1000))
        rng = np.random.default_rng(101)
        standard = np.array([sample_noise(sites, rng) for _ in range(100)])
        draws = np.concatenate(sites.draws(standard, [config]))
        assert draws.shape == (100_000,)
        assert abs(draws.mean() - 1.0) < 1e-3
        assert draws.min() >= 1 - 0.05 and draws.max() <= 1 + 0.05

    def test_tqg_statistics(self):
        """10^5 phase draws: empirical std within 5% of the width."""
        config = NoiseConfig(tqgn=0.2)
        sites = NoiseSites.for_program(Program(2, (Entangler(1, 2),) * 1000))
        rng = np.random.default_rng(102)
        standard = np.array([sample_noise(sites, rng) for _ in range(100)])
        draws = np.concatenate(sites.draws(standard, [config]))
        assert draws.shape == (100_000,)
        assert abs(draws.std() - 0.2) < 0.05 * 0.2

    def test_sampler_dispatch(self):
        """Each instruction type draws from its own channel."""
        config = NoiseConfig(sqgn=0.1, abn_s=0.0, abn_b=10.0)
        sites = NoiseSites.for_program(every_channel_program())
        sampler = make_sampler(np.random.default_rng(7))
        # one site each, two for the window's driven qubits, none for the readout
        rotation, x, hadamard, entangler, stepwise, banged, *window = (
            sites.draws(sampler(sites)[None], [config])[0]
        )
        for value in (rotation, x, hadamard, *window):
            assert 0.9 <= value <= 1.1
        assert len(window) == 2
        assert entangler != 0.0
        assert stepwise == 0.0
        assert banged != 0.0

    def test_controlled_phase_unsupported(self):
        """Raw controlled-phase gates have no noise channel: a noisy run of one raises."""
        program = Program(2, (ControlledPhase(1, 2, 2),))
        with pytest.raises(UnsupportedGateError):
            monte_carlo("dqc", 2, 0.3, 2, NoiseConfig(), program=program)


class TestShotGenerators:
    """Each shot draws from its own generator, keyed by (seed, shot index)."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
    @pytest.mark.parametrize(
        "shots",
        [range(0, 300), range(5, 17), range(7, 8), range(2 ** 32 - 8, 2 ** 32), range(2 ** 32 - 3, 2 ** 32 + 2)],
        ids=["0-300", "5-17", "7-8", "up-to-2^32", "across-2^32"],
    )
    def test_batch_equals_default_rng_per_shot(self, seed, shots):
        """The batch-hashed generators are default_rng([seed, i]): same state and draws."""
        rngs = noise._shot_rngs(seed, shots)
        assert len(rngs) == len(shots)
        for i, rng in zip(shots, rngs):
            reference = np.random.default_rng([seed, i])
            assert rng.bit_generator.state == reference.bit_generator.state, i
            assert rng.random(8).tobytes() == reference.random(8).tobytes(), i
            assert rng.standard_normal(8).tobytes() == reference.standard_normal(8).tobytes(), i


class TestNoisyGates:
    """Noisy gate application semantics."""

    def test_entangler_fidelity_closed_form(self):
        """A phase offset of 0.2 on |++> costs fidelity cos^2(pi*0.2/4)."""
        plus_plus = Statevector(2, np.full(4, 0.5, dtype=complex))
        program = Program(2, (Entangler(1, 2),))
        ideal = execute_program(plus_plus, program)
        noisy = run_with_draws(plus_plus, program, lambda instr: 0.2)
        assert fidelity(ideal, noisy) == pytest.approx(np.cos(np.pi * 0.2 / 4) ** 2)

    def test_apply_noisy_gate_determinism(self):
        """The same seed produces bit-identical output states."""
        state = beta_state(2, 0.8)
        program = Program(2, (Rotation(1, "z", 0.7),))
        config = NoiseConfig(sqgn=0.1)
        first, second = (
            run_with_draws(state, program, reference_sampler(config, rng))
            for rng in (np.random.default_rng(5), np.random.default_rng(5))
        )
        assert np.array_equal(first.amplitudes, second.amplitudes)

    def test_apply_noisy_gate_zero_widths(self):
        """All-zero widths reproduce the ideal gate exactly."""
        state = beta_state(2, 0.8)
        program = Program(2, (HadamardGate(2),))
        ideal = execute_program(state, program)
        sampler = reference_sampler(ZERO_WIDTHS, np.random.default_rng(0))
        noisy = run_with_draws(state, program, sampler)
        assert np.allclose(ideal.amplitudes, noisy.amplitudes, atol=1e-14)


class TestRunProtocol:
    """Single-shot fidelities."""

    def test_ideal_digital_protocols_are_exact(self):
        """DQC and sDAQC reproduce the transform without noise."""
        assert monte_carlo("dqc", 3, 0.7, 1, None).mean_fidelity == pytest.approx(1.0, abs=1e-11)
        assert monte_carlo("sdaqc", 3, 0.7, 1, None).mean_fidelity == pytest.approx(1.0, abs=1e-11)

    def test_ideal_banged_is_below_one(self):
        """Always-on windows cost a small, deterministic fidelity loss."""
        value = monte_carlo("bdaqc", 3, 0.7, 1, None).mean_fidelity
        assert 0.99 < value < 1.0

    def test_ideal_banged_floor_at_default_width(self):
        """At the default window width, ideal bDAQC (beta = 0.7) clears 0.90 at n = 9, not at 10.

        Measured: 0.980 at n = 8, 0.939 at n = 9 and 0.844 at n = 10.
        """
        fidelity = {n: monte_carlo("bdaqc", n, 0.7, 1, None).mean_fidelity for n in (8, 9, 10)}
        assert fidelity[8] > 0.90
        assert fidelity[9] > 0.90
        assert fidelity[10] < 0.90

    def test_seed_reproducibility(self):
        """The same config gives the same noisy fidelity."""
        first = monte_carlo("dqc", 3, 1.1, 1, NoiseConfig(seed=42))
        second = monte_carlo("dqc", 3, 1.1, 1, NoiseConfig(seed=42))
        other = monte_carlo("dqc", 3, 1.1, 1, NoiseConfig(seed=43))
        assert first.mean_fidelity == second.mean_fidelity
        assert first.mean_fidelity != other.mean_fidelity

    def test_zero_scale_equals_ideal(self):
        """error_scale=0 reproduces the ideal run bit-for-bit: output amplitudes and mean fidelity.

        The zero-width draws go through the executor's operand builds, the
        ideal run (draws None) through each instruction's ideal operand.
        """
        for protocol in PROTOCOLS:
            ideal = monte_carlo(protocol, 3, 0.4, 1, None)
            silenced = monte_carlo(protocol, 3, 0.4, 1, NoiseConfig(error_scale=0.0))
            assert silenced.mean_fidelity == ideal.mean_fidelity
            program = build_protocol_program(protocol, 3)
            sites = NoiseSites.for_program(program)
            standard = np.array([sample_noise(sites, np.random.default_rng([0, shot])) for shot in range(4)])
            draws = sites.draws(standard, [NoiseConfig(error_scale=0.0)])
            block = np.broadcast_to(beta_state(3, 0.4).amplitudes[:, None], (4, 8, 1))
            silenced_amps = program_module._run(program, block, draws)
            ideal_amps = program_module._run(program, block)
            assert np.array_equal(silenced_amps, ideal_amps), protocol

    def test_unknown_protocol(self):
        """Protocol names outside the supported trio raise."""
        with pytest.raises(ValueError, match="protocol"):
            build_protocol_program("adiabatic", 3)


class TestMonteCarlo:
    """Shot statistics."""

    def test_record_fields(self):
        """Records carry the display label and the experiment settings."""
        record = monte_carlo("dqc", 2, 0.5, 4, NoiseConfig(seed=9))
        assert record.protocol == "DQC"
        assert record.n_qubits == 2
        assert record.shots == 4
        assert record.seed == 9
        assert 0.0 <= record.mean_fidelity <= 1.0
        assert record.std_fidelity >= 0.0

    def test_workers_do_not_change_results(self):
        """The number of shot batches, one-shot batches too, never moves a record's bits."""
        for protocol in PROTOCOLS:
            for n in (2, 3, 5, 7):
                program = build_protocol_program(protocol, n)
                records = [
                    monte_carlo(protocol, n, 1.0, 8, NoiseConfig(seed=3), workers=workers, program=program)
                    for workers in (1, 2, 3, 8)
                ]
                assert len({statistics_bits(record) for record in records}) == 1, (protocol, n)
                assert all(record == records[0] for record in records), (protocol, n)

    def test_last_instruction_does_not_move_the_scores(self):
        """A program that does not end in the readout permutation scores alike in any batch.

        every_channel_program with and without its trailing identity
        permutation, in one batch of 40 shots and in 40 batches of one,
        gives one record, bit for bit.
        """
        readout = every_channel_program()
        records = [
            monte_carlo("dqc", 3, 0.7, 40, NoiseConfig(seed=9), workers=workers, program=program)
            for program in (readout, Program(3, readout.instructions[:-1]))
            for workers in (1, 40)
        ]
        assert len({statistics_bits(record) for record in records}) == 1
        assert all(record == records[0] for record in records)

    def test_ideal_cell_equals_execute_program_fidelity(self):
        """An ideal cell's record, bit for bit, is one execute_program run scored by fidelity.

        monte_carlo takes that route; the shot executor's ideal records give the same bits.
        """
        for protocol in PROTOCOLS:
            for n in (2, 3, 5, 6):
                program = build_protocol_program(protocol, n)
                for beta in default_beta_grid(7):
                    state = beta_state(n, beta)
                    value = fidelity(exact_qft(state), execute_program(state, program))
                    for shots in (1, 5):
                        expected = noise._record(
                            protocol, n, beta, shots, None, noise.DEFAULT_DELTA_T, np.full(shots, value)
                        )
                        records = [
                            monte_carlo(protocol, n, beta, shots, None, program=program),
                            noise._cell_records(
                                protocol, n, program, [beta], shots, [None], noise.DEFAULT_DELTA_T, 1
                            )[0],
                        ]
                        for record in records:
                            assert repr(record) == repr(expected), (protocol, n, beta, shots)
                            assert records_to_csv([record]) == records_to_csv([expected])

    def test_ideal_runs_have_zero_spread(self):
        """Without a config every shot is the same deterministic value."""
        record = monte_carlo("bdaqc", 2, 0.3, 5, None)
        assert record.std_fidelity == pytest.approx(0.0, abs=1e-12)
        assert record.error_scale == 0.0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_block_matches_serial_shots(self, protocol):
        """A block of shots gives the statistics of serial one-shot runs."""
        config = NoiseConfig(seed=4)
        for n in (3, 5, 6, 7):
            program = build_protocol_program(protocol, n)
            state = beta_state(n, 0.9)
            reference = exact_qft(state)
            serial = [
                fidelity(reference, run_with_draws(state, program, reference_sampler(config, rng)))
                for rng in (np.random.default_rng([4, i]) for i in range(5))
            ]
            record = monte_carlo(protocol, n, 0.9, 5, config, program=program)
            assert record.mean_fidelity == pytest.approx(np.mean(serial), abs=1e-12)
            assert record.std_fidelity == pytest.approx(np.std(serial), abs=1e-12)

    def test_single_shot_equals_run_protocol(self):
        """shots=1 reproduces a direct run with the derived shot-0 generator."""
        config = NoiseConfig(seed=13)
        record = monte_carlo("dqc", 3, 0.6, 1, config)
        state = beta_state(3, 0.6)
        sampler = reference_sampler(config, np.random.default_rng([13, 0]))
        program = build_protocol_program("dqc", 3)
        direct = fidelity(exact_qft(state), run_with_draws(state, program, sampler))
        assert record.mean_fidelity == direct

    @pytest.mark.parametrize("config", [NoiseConfig(), None], ids=["noisy", "ideal"])
    def test_program_of_another_protocol_rejected(self, config):
        """A program compiled for another protocol is not run under this one's label."""
        program = build_protocol_program("bdaqc", 3)
        with pytest.raises(ValueError, match="bdaqc program, not dqc"):
            monte_carlo("dqc", 3, 0.3, 2, config, program=program)

    @pytest.mark.parametrize("config", [NoiseConfig(), None], ids=["noisy", "ideal"])
    def test_program_of_another_mode_or_window_rejected(self, config):
        """A record names the schedule mode and window width its program was compiled with.

        An unlabelled program's mode must be the protocol's, and a banged
        program's window width the run's delta_t.
        """
        dt = noise.DEFAULT_DELTA_T
        mismatches = [
            ("sdaqc", compile_qft_daqc(3, "banged"), dt, "mode 'banged', not sdaqc"),
            ("bdaqc", compile_qft_daqc(3, "stepwise"), dt, "'stepwise', not bdaqc"),
            ("dqc", compile_qft_daqc(3, "stepwise"), dt, "'stepwise', not dqc"),
            ("sdaqc", Program(3, (XGate(1),)), dt, "mode None, not sdaqc"),
            ("bdaqc", build_protocol_program("bdaqc", 3), 3e-2, "delta_t 0.0001, not 0.03"),
        ]
        for protocol, program, delta_t, message in mismatches:
            with pytest.raises(ValueError, match=message):
                monte_carlo(protocol, 3, 0.3, 2, config, delta_t, program=program)
        for protocol, mode in (("sdaqc", "stepwise"), ("bdaqc", "banged")):
            program = compile_qft_daqc(3, mode, 3e-2)
            record = monte_carlo(protocol, 3, 0.3, 2, config, 3e-2, program=program)
            assert record == monte_carlo(protocol, 3, 0.3, 2, config, 3e-2)

    @pytest.mark.parametrize("config", [NoiseConfig(), None], ids=["noisy", "ideal"])
    def test_unknown_protocol_rejected_before_any_shot(self, config, monkeypatch):
        """An unknown protocol raises ValueError before any compile or shot, with or without a program."""

        def unreachable(*args, **kwargs):
            raise AssertionError("an unknown protocol reached a compile or a shot")

        for name in ("build_protocol_program", "_cell_records", "execute_program"):
            monkeypatch.setattr(noise, name, unreachable)
        for program in (None, Program(3, (XGate(1),))):
            with pytest.raises(ValueError, match="unknown protocol 'foo'"):
                monte_carlo("foo", 3, 0.3, 2, config, program=program)

    @pytest.mark.parametrize("config", [NoiseConfig(), None], ids=["noisy", "ideal"])
    def test_program_of_another_size_rejected(self, config):
        """A program of another register size raises before any state is built."""
        program = build_protocol_program("dqc", 3)
        with pytest.raises(ValueError, match="program has 3 qubits, expected 5"):
            monte_carlo("dqc", 5, 0.3, 2, config, program=program)

    def test_shot_validation(self):
        """Zero shots is rejected."""
        with pytest.raises(ValueError, match="shots"):
            monte_carlo("dqc", 2, 0.0, 0, None)
        with pytest.raises(ValueError, match="shots"):
            ExperimentRecord("DQC", 2, 0.0, 0, 0, 1.0, 0.0, 0.01, 1.0)

    @pytest.mark.parametrize("std", [float("nan"), -1e-12, -np.inf])
    def test_std_not_at_least_zero_rejected(self, std):
        """NaN fails the std check as a negative spread does; no record writes nan to a CSV."""
        with pytest.raises(ValueError, match="std fidelity"):
            ExperimentRecord("DQC", 2, 0.0, 4, 0, 0.5, std, 0.01, 1.0)

    @pytest.mark.parametrize("beta", [float("nan"), np.inf, -np.inf])
    def test_non_finite_beta_rejected(self, beta):
        """A record's beta is finite."""
        with pytest.raises(ValueError, match="beta"):
            ExperimentRecord("DQC", 2, beta, 4, 0, 0.5, 0.1, 0.01, 1.0)

    def test_finite_record_accepted(self):
        """Zero spread and any finite beta pass, and the CSV row shows them."""
        record = ExperimentRecord("DQC", 2, -0.25, 4, 0, 0.5, 0.0, 0.01, 1.0)
        assert records_to_csv([record]).splitlines()[1] == (
            "DQC,2,-0.250000000,4,0,0.500000000,0.000000000,0.010000000,1.000000000"
        )


class TestSweeps:
    """Grid sweeps and their ordering guarantees."""

    def test_beta_grid(self):
        """The default grid spans [0, pi] inclusive."""
        grid = default_beta_grid(21)
        assert grid.shape == (21,)
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(np.pi)

    def test_sweep_beta_shape_and_order(self):
        """One sorted record per (protocol, n, beta) triple."""
        grid = default_beta_grid(3)
        records = sweep_beta(["sdaqc", "dqc"], [2, 3], grid, 2, NoiseConfig(seed=1))
        assert len(records) == 2 * 2 * 3
        keys = [(r.protocol, r.n_qubits, r.beta) for r in records]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("config", [NoiseConfig(seed=6), None], ids=["noisy", "ideal"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_matches_per_cell_monte_carlo(self, config, workers):
        """One run per shot for the grid gives each cell's monte_carlo statistics."""
        grid = [0.0, 0.8, 2.2]
        shots = 5
        for n in (3, 5):
            records = sweep_beta(PROTOCOLS, [n], grid, shots, config, workers=workers)
            assert len(records) == len(PROTOCOLS) * len(grid)
            for record in records:
                protocol = record.protocol.lower()
                program = build_protocol_program(protocol, n)
                cell = monte_carlo(
                    protocol, n, record.beta, shots, config, workers=workers, program=program
                )
                assert (record.protocol, record.n_qubits, record.shots) == (
                    cell.protocol, cell.n_qubits, cell.shots
                )
                assert (record.seed, record.error_scale) == (cell.seed, cell.error_scale)
                assert abs(record.mean_fidelity - cell.mean_fidelity) <= 1e-12
                assert abs(record.std_fidelity - cell.std_fidelity) <= 1e-12

    def test_one_point_grid_is_monte_carlo(self):
        """A one-point grid returns exactly the monte_carlo record."""
        config = NoiseConfig(seed=12)
        for protocol in PROTOCOLS:
            (record,) = sweep_beta([protocol], [3], [0.6], 4, config, workers=2)
            assert record == monte_carlo(protocol, 3, 0.6, 4, config, workers=2)

    @pytest.mark.parametrize("points", [1, 3])
    def test_sweep_run_validation(self, points):
        """Zero shots or workers are rejected for any grid size."""
        grid = default_beta_grid(points)
        with pytest.raises(ValueError, match="shots"):
            sweep_beta(["dqc"], [2], grid, 0, NoiseConfig())
        with pytest.raises(ValueError, match="workers"):
            sweep_beta(["dqc"], [2], grid, 2, NoiseConfig(), workers=0)
        with pytest.raises(ValueError, match="workers"):
            sweep_beta(["dqc"], [2], grid, 1, None, workers=0)

    def test_beta_grid_bounds(self, monkeypatch):
        """Angles outside [0, pi], and NaN, are rejected before anything compiles."""

        def no_compile(*args):
            raise AssertionError("a program was compiled")

        monkeypatch.setattr(noise, "build_protocol_program", no_compile)
        for grid in ([0.0, 3.5], [0.1, math.nan], [math.nan]):
            with pytest.raises(ValueError, match=r"beta grid must lie within \[0, pi\]"):
                sweep_beta(["dqc"], [2], grid, 2, NoiseConfig())

    def test_beta_reflection_symmetry(self):
        """Ideal fidelity is symmetric under beta -> pi - beta.

        Exactly so for the gate protocols; the always-on windows break the
        symmetry only at second order in the window error.
        """
        for protocol, bound in (("dqc", 1e-9), ("sdaqc", 1e-9), ("bdaqc", 1e-3)):
            for beta in (0.3, 0.9, 1.4):
                left = monte_carlo(protocol, 3, beta, 1, None).mean_fidelity
                right = monte_carlo(protocol, 3, np.pi - beta, 1, None).mean_fidelity
                assert abs(left - right) < bound

    def test_dqc_fidelity_decreases_with_size(self):
        """Noisy DQC fidelity falls monotonically with register size."""
        config = NoiseConfig(seed=8)
        means = []
        errors = []
        for n in (3, 5, 6, 7):
            record = monte_carlo("dqc", n, np.pi / 4, 100, config)
            means.append(record.mean_fidelity)
            errors.append(record.std_fidelity / np.sqrt(record.shots))
        for i in range(len(means) - 1):
            slack = 2 * np.hypot(errors[i], errors[i + 1])
            assert means[i + 1] <= means[i] + slack

    def test_sweep_error_scale(self):
        """Scale-zero rows match the ideal run; rows are sorted by scale."""
        records = sweep_error_scale(["sdaqc"], [2], [1.0, 0.0], 3, NoiseConfig(seed=2))
        assert len(records) == 2
        assert [r.error_scale for r in records] == [0.0, 1.0]
        ideal = monte_carlo("sdaqc", 2, np.pi / 4, 1, None).mean_fidelity
        assert records[0].mean_fidelity == pytest.approx(ideal, abs=1e-12)
        with pytest.raises(ValueError, match="scales"):
            sweep_error_scale(["dqc"], [2], [-0.5], 1, NoiseConfig())

    def test_sweep_error_scale_rejects_config_scale(self, monkeypatch):
        """A config error_scale other than 1, which the grid would replace, is rejected before any compile."""

        def no_compile(*args, **kwargs):
            raise AssertionError("a program was compiled")

        monkeypatch.setattr(noise, "build_protocol_program", no_compile)
        for scale in (0.5, 0.0):
            with pytest.raises(ValueError, match="error_scale .* scale grid"):
                sweep_error_scale(["dqc"], [3], [1.0], 1, NoiseConfig(error_scale=scale))

    def test_sweep_error_scale_needs_config(self):
        """The config the scales multiply is required, as in sweep_beta."""
        with pytest.raises(TypeError, match="config"):
            sweep_error_scale(["dqc"], [2], [1.0], 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_scale_grid_equals_per_scale_cells(self, workers):
        """One run per shot for the scale grid gives each scale's monte_carlo cell exactly."""
        scales = [1.5, 0.0, 0.6]
        config = NoiseConfig(seed=14)
        shots = 5
        for n in (3, 5):
            records = sweep_error_scale(PROTOCOLS, [n], scales, shots, config, workers=workers)
            assert len(records) == len(PROTOCOLS) * len(scales)
            for protocol in PROTOCOLS:
                program = build_protocol_program(protocol, n)
                for scale in scales:
                    cell = monte_carlo(
                        protocol, n, noise.ERROR_SCALE_BETA, shots,
                        replace(config, error_scale=scale), workers=workers, program=program,
                    )
                    (record,) = [
                        r for r in records
                        if r.protocol == cell.protocol and r.error_scale == scale
                    ]
                    assert record.mean_fidelity == cell.mean_fidelity, (protocol, n, scale)
                    assert record.std_fidelity == cell.std_fidelity, (protocol, n, scale)
                    assert record == cell

    @pytest.mark.parametrize("sweep", [sweep_beta, sweep_error_scale], ids=["beta", "error-scale"])
    def test_error_scale_grid_draws_once_per_shot(self, sweep, monkeypatch):
        """One generator, sampler call and sample_noise call per shot and (protocol, n).

        The counts do not depend on the size of the grid, error scales or beta points.
        """
        counts = {"rng": 0, "sampler": 0, "sample_noise": 0}
        make, shot_rngs = noise.make_sampler, noise._shot_rngs

        def counted_rngs(seed, indices):
            rngs = shot_rngs(seed, indices)
            counts["rng"] += len(rngs)
            return rngs

        monkeypatch.setattr(noise, "_shot_rngs", counted_rngs)
        monkeypatch.setattr(
            noise, "make_sampler", lambda *args: counting(counts, "sampler", make(*args))
        )
        monkeypatch.setattr(
            noise, "sample_noise", counting(counts, "sample_noise", noise.sample_noise)
        )
        shots = 3
        cells = 2 * 2  # (protocol, n)
        if sweep is sweep_error_scale:
            grids = ([1.0], [0.0, 0.5, 1.0, 2.0])
        else:
            grids = ([0.4], [0.0, 0.8, 2.2])
        for grid in grids:
            counts.update(rng=0, sampler=0, sample_noise=0)
            sweep(["dqc", "sdaqc"], [2, 3], grid, shots, NoiseConfig(seed=4))
            assert counts == {"rng": shots * cells, "sampler": shots * cells,
                              "sample_noise": shots * cells}, grid

    def test_one_cell_per_program_is_monte_carlo(self, monkeypatch):
        """A sweep with one cell per (protocol, n) makes one monte_carlo call each; a grid makes none.

        The ideal one-cell run is the sweep path that reaches the public
        execute_program and statevector.fidelity; larger grids run every
        shot once through the private executor.
        """
        names = ("monte_carlo", "execute_program", "fidelity")
        counts = dict.fromkeys(names, 0)
        for name in names:
            monkeypatch.setattr(noise, name, counting(counts, name, getattr(noise, name)))
        protocols, n_list = ["dqc", "sdaqc"], [2, 3]
        cells = len(protocols) * len(n_list)
        noisy = NoiseConfig(seed=4)
        none = dict.fromkeys(names, 0)
        runs = [
            (sweep_beta, [0.4], None, dict.fromkeys(names, cells)),
            (sweep_beta, [0.4], noisy, {**none, "monte_carlo": cells}),
            (sweep_error_scale, [0.5], noisy, {**none, "monte_carlo": cells}),
            (sweep_beta, [0.0, 0.8], None, none),
            (sweep_beta, [0.0, 0.8], noisy, none),
            (sweep_error_scale, [0.0, 1.0], noisy, none),
        ]
        for sweep, grid, config, expected in runs:
            counts.update(none)
            records = sweep(protocols, n_list, grid, 3, config)
            assert counts == expected, (sweep.__name__, grid, config)
            assert len(records) == cells * len(grid)

    def test_beta_grid_builds_one_operand_per_shot(self, monkeypatch):
        """A noisy beta grid builds each window's unitaries once per shot, not once per input.

        Its |W> and |GHZ> inputs share their shot's register row, so a batch
        of b shots solves b drive rows per window.  At n = 3 every window of
        the program, across its two DAQC schedules (runs of windows and
        analog segments), fits one call.
        """
        sizes = []
        build = program_module._window_unitaries

        def spy(energies, duration, drive_values):
            sizes.append(drive_values.shape[0])
            return build(energies, duration, drive_values)

        monkeypatch.setattr(program_module, "_window_unitaries", spy)
        sweep_beta(["bdaqc"], [3], [0.0, 0.8, 2.2], 5, NoiseConfig(seed=3), workers=2)
        program = build_protocol_program("bdaqc", 3)
        schedules = [
            sum(isinstance(instr, BangedWindow) for instr in run)
            for analog, run in itertools.groupby(
                program.instructions, lambda instr: isinstance(instr, (BangedWindow, AnalogBlock))
            )
            if analog
        ]
        assert len(schedules) == 2 and all(schedules)
        assert sizes == [3 * sum(schedules), 2 * sum(schedules)]

    def test_windows_solve_across_schedules(self, monkeypatch):
        """A 16-shot bDAQC cell solves same-width windows across its schedules, within _WINDOW_BLOCKS.

        Windows are grouped by width and driven-qubit count over the whole
        program, not per DAQC schedule, so at n = 5, 6 and 7 the cell makes
        2, 4 and 6 solves (4, 5 and 6 schedules) of at most 2,048 class
        blocks each, and its record is that of a run with one solve per window.
        """
        calls = []
        build = program_module._window_unitaries

        def spy(energies, duration, drive_values):
            calls.append(len(drive_values) * len(energies))
            return build(energies, duration, drive_values)

        expected = {5: [2048, 512], 6: [2016] * 3 + [1152], 7: [2016] * 6}
        records = {}
        for n, blocks in expected.items():
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(program_module, "_window_unitaries", spy)
                records[n] = monte_carlo("bdaqc", n, 0.7, 16, NoiseConfig(seed=2))
            assert calls == blocks, n
            assert max(calls) <= program_module._WINDOW_BLOCKS
        with monkeypatch.context() as patch:  # one window per solve: 16 rows of C class blocks
            patch.setattr(program_module, "_WINDOW_BLOCKS", 1)
            for n, record in records.items():
                assert monte_carlo("bdaqc", n, 0.7, 16, NoiseConfig(seed=2)) == record, n

    @pytest.mark.parametrize("sweep", [sweep_beta, sweep_error_scale], ids=["beta", "error-scale"])
    def test_empty_grid_rejected_before_compiling(self, sweep, monkeypatch):
        """An empty grid raises a ValueError that names it, and compiles nothing."""

        def no_compile(*args):
            raise AssertionError("a program was compiled")

        monkeypatch.setattr(noise, "build_protocol_program", no_compile)
        name = "beta" if sweep is sweep_beta else "error-scale"
        with pytest.raises(ValueError, match=f"empty {name} grid"):
            sweep(PROTOCOLS, [3], [], 2, NoiseConfig())

    def test_beta_average(self):
        """Averaging pools per-beta means and combines shot noise."""
        rows = [
            ExperimentRecord("DQC", 2, 0.0, 4, 0, 0.4, 0.2, 0.01, 1.0),
            ExperimentRecord("DQC", 2, 1.0, 4, 0, 0.6, 0.2, 0.01, 1.0),
        ]
        summary = beta_average(rows)
        cell = summary[("DQC", 2)]
        assert isinstance(cell, BetaSummary)
        assert cell.mean == pytest.approx(0.5)
        assert cell.stderr == pytest.approx(np.sqrt(2 * (0.2 ** 2 / 4)) / 2)


class TestSerialization:
    """CSV output and the JSON config file."""

    def test_csv_format(self):
        """Fixed header and 9-decimal floats."""
        record = ExperimentRecord("sDAQC", 3, np.pi / 2, 10, 7, 0.75, 0.125, 0.0001, 1.0)
        text = records_to_csv([record])
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "sDAQC,3,1.570796327,10,7,0.750000000,0.125000000,0.000100000,1.000000000"

    def test_csv_is_deterministic_across_workers(self):
        """Byte-identical output whatever the number of shot batches."""
        config = NoiseConfig(seed=11)
        grid = default_beta_grid(2)
        one = records_to_csv(sweep_beta(["dqc"], [2], grid, 6, config, workers=1))
        three = records_to_csv(sweep_beta(["dqc"], [2], grid, 6, config, workers=3))
        assert one == three

    def test_banged_csv_is_invariant_to_window_chunks(self, monkeypatch):
        """bDAQC at n = 5 gives the same records and CSV bytes for 1, 2 and 7 shot batches.

        With 60 shots in one batch a schedule's windows exceed one solve's
        block budget and are solved in several chunks; smaller batches solve
        each schedule at once.
        """
        calls = []
        build = program_module._window_unitaries

        def spy(energies, duration, drive_values):
            calls.append(len(drive_values))
            return build(energies, duration, drive_values)

        monkeypatch.setattr(program_module, "_window_unitaries", spy)
        config = NoiseConfig(seed=5)
        schedules = 4  # one per controlled-rotation block of the n = 5 QFT
        runs = {}
        for workers in (1, 2, 7):
            calls.clear()
            runs[workers] = sweep_beta(["bdaqc"], [5], [0.3, 1.2, 2.9], 60, config, workers=workers)
            if workers == 1:
                assert len(calls) > schedules
        assert runs[1] == runs[2] == runs[7]
        assert records_to_csv(runs[1]) == records_to_csv(runs[2]) == records_to_csv(runs[7])

    def test_load_noise_config(self, tmp_path):
        """Round trip through the JSON file, including the delta_t rider."""
        path = tmp_path / "noise.json"
        payload = {"sqgn": 1e-3, "tqgn": 0.1, "seed": 5, "delta_t": 0.002}
        path.write_text(json.dumps(payload))
        config, delta_t = load_noise_config(path)
        assert config.sqgn == pytest.approx(1e-3)
        assert config.tqgn == pytest.approx(0.1)
        assert config.seed == 5
        assert delta_t == pytest.approx(0.002)

    def test_load_noise_config_rejects_unknowns(self, tmp_path):
        """Misspelled keys fail loudly instead of being ignored."""
        path = tmp_path / "noise.json"
        path.write_text(json.dumps({"sqgn_width": 1e-3}))
        with pytest.raises(ValueError, match="unknown noise config keys: sqgn_width"):
            load_noise_config(path)

    def test_load_noise_config_bad_delta_t(self, tmp_path):
        """Non-positive, subnormal, non-finite and non-numeric window widths are rejected at load time."""
        path = tmp_path / "noise.json"
        for delta_t in (0.0, float("nan"), float("inf"), "0.001", True, 1e-320):
            path.write_text(json.dumps({"delta_t": delta_t}))
            with pytest.raises(ValueError, match="delta_t"):
                load_noise_config(path)

    def test_config_to_dict_covers_file_keys(self):
        """Manifest dict and file schema agree on the key set."""
        entries = config_to_dict(NoiseConfig(), 0.001)
        assert set(entries) == set(CONFIG_FILE_KEYS)
