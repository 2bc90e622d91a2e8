"""Tests for the coherent-noise model and Monte-Carlo experiment layer."""

import copy
import json
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from daqft import noise
from daqft import program as program_module
from daqft.ising import IsingSpec
from daqft.noise import (
    CONFIG_FILE_KEYS,
    CSV_HEADER,
    PROTOCOLS,
    ZERO_NOISE,
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

CHANNEL_CONFIGS = pytest.mark.parametrize(
    "config",
    [NoiseConfig(), NoiseConfig(error_scale=0.0), NoiseConfig(error_scale=1.7, tqgn_is_std=False)],
    ids=["default", "scale-0", "scale-1.7-variance"],
)


def reference_sampler(config, rng):
    """Per-instruction draws written out with rng.uniform and rng.normal, in program order.

    It shares no code with the site table, so it is an independent oracle
    for the table's draws.
    """
    half = config.sqgn * config.error_scale

    def sampler(instr):
        if isinstance(instr, (Rotation, XGate, HadamardGate)):
            return rng.uniform(1.0 - half, 1.0 + half)
        if isinstance(instr, BangedWindow):
            return np.array([rng.uniform(1.0 - half, 1.0 + half) for _ in instr.qubits])
        if isinstance(instr, Entangler):
            return rng.normal(0.0, config.tqg_std)
        if isinstance(instr, AnalogBlock):
            width = config.abn_s if instr.kind == "stepwise" else config.abn_b
            return rng.normal(0.0, width * config.error_scale)
        assert isinstance(instr, Permute), instr
        return None

    return sampler


def table_sampler(program, config, rng):
    """An execute_program sampler that hands out one shot's site-table draws in program order."""
    sites = NoiseSites.for_program(program)
    values = sites.draws(make_sampler(rng)(sites)[None], [config])
    shot = iter([None if value is None else value[0] for value in values])
    return lambda instr: next(shot)


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
    return Program(n, instructions, resource=IsingSpec.homogeneous(n))


class TestNoiseConfig:
    """Width validation and the variance/std reading of the entangler noise."""

    def test_defaults(self):
        """Default widths match the reference noise model."""
        config = NoiseConfig()
        assert config.sqgn == pytest.approx(5e-4)
        assert config.tqgn == pytest.approx(0.2)
        assert config.tqgn_is_std
        assert config.abn_s == pytest.approx(0.02)
        assert config.abn_b == pytest.approx(0.01)
        assert config.abn_s == pytest.approx(2 * config.abn_b)
        assert config.error_scale == 1.0
        assert config.seed == 0

    def test_tqg_std_readings(self):
        """tqgn is a std by default; the variance reading takes a square root."""
        assert NoiseConfig(tqgn=0.2).tqg_std == pytest.approx(0.2)
        assert NoiseConfig(tqgn=0.04, tqgn_is_std=False).tqg_std == pytest.approx(0.2)
        assert NoiseConfig(tqgn=0.2, error_scale=0.5).tqg_std == pytest.approx(0.1)

    def test_validation(self):
        """Negative or non-numeric widths, non-bool flags and bad seeds are rejected."""
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
        with pytest.raises(ValueError, match="tqgn_is_std"):
            NoiseConfig(tqgn_is_std="false")
        with pytest.raises(ValueError, match="seed"):
            NoiseConfig(seed=True)

    def test_negative_zero_widths_are_zero(self):
        """A width or scale of -0.0 is stored as 0.0, so CSVs and manifests print no sign."""
        for name in ("sqgn", "tqgn", "abn_s", "abn_b", "error_scale"):
            value = getattr(NoiseConfig(**{name: -0.0}), name)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, name

    def test_zero_noise_constant(self):
        """The zero-noise config has every width at zero."""
        assert ZERO_NOISE.sqgn == 0.0
        assert ZERO_NOISE.tqgn == 0.0
        assert ZERO_NOISE.abn_s == 0.0
        assert ZERO_NOISE.abn_b == 0.0


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
        values = sites.draws(standard[None], [ZERO_NOISE])
        assert [value.tolist() for value in values[:6]] == [[1.0]] * 3 + [[0.0]] * 3
        assert values[6].tolist() == [[1.0, 1.0]]
        assert values[7] is None

    @CHANNEL_CONFIGS
    def test_draws_equal_numpy_samplers(self, config):
        """Each channel equals rng.uniform / rng.normal on a cloned generator, bit for bit."""
        program = every_channel_program()
        sites = NoiseSites.for_program(program)
        rng = np.random.default_rng([3, 1])
        for _ in range(25):
            clone = copy.deepcopy(rng)
            values = sites.draws(make_sampler(rng)(sites)[None], [config])
            reference = reference_sampler(config, clone)
            for instr, value in zip(program.instructions, values):
                expected = reference(instr)
                if expected is None:
                    assert value is None
                else:
                    assert np.array_equal(value[0], expected), (instr, value, expected)
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
                serial = [[sampler(instr) for sampler in samplers] for instr in program.instructions]
                assert len(batch) == len(serial)
                for values, column in zip(batch, serial):
                    if column[0] is None:
                        assert values is None
                    else:
                        assert np.array_equal(values, np.array(column)), (protocol, n)
                        assert values.shape == np.shape(column)
                for rng, clone in zip(rngs, clones):
                    assert rng.bit_generator.state == clone.bit_generator.state

    def test_site_table_maps_each_config(self):
        """One shot's standard draws map to each config's per-instruction draws, in block order.

        The block's rows run (config, shot), so the rows of config c are rows
        c * k ... (c + 1) * k - 1.
        """
        configs = [NoiseConfig(seed=5, error_scale=scale) for scale in (1.3, 0.0, 0.4)]
        program = build_protocol_program("bdaqc", 3)
        sites = NoiseSites.for_program(program)
        k = 3
        standard = np.array([make_sampler(np.random.default_rng([5, i]))(sites) for i in range(k)])
        batch = sites.draws(standard, configs)
        for c, config in enumerate(configs):
            samplers = [reference_sampler(config, np.random.default_rng([5, i])) for i in range(k)]
            serial = [[sampler(instr) for sampler in samplers] for instr in program.instructions]
            for values, column in zip(batch, serial):
                if column[0] is None:
                    assert values is None
                else:
                    assert len(values) == len(configs) * k
                    assert np.array_equal(values[c * k:(c + 1) * k], np.array(column)), c

    def test_site_table_layout(self):
        """Sites follow program order in runs of one distribution; windows take a slice."""
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
            resource=IsingSpec.homogeneous(2),
        )
        sites = NoiseSites.for_program(program)
        assert sites.channels.tolist() == [0, 0, 1, 3, 0, 0]
        assert sites.runs == ((True, slice(0, 2)), (False, slice(2, 4)), (True, slice(4, 6)))
        assert sites.columns == (0, 1, 2, 3, slice(4, 6), None)
        standard = make_sampler(np.random.default_rng(3))(sites)
        assert standard.shape == (6,)
        values = sites.draws(standard[None], [NoiseConfig()])
        assert [None if value is None else value.shape for value in values] == (
            [(1,)] * 4 + [(1, 2), None]
        )

    def test_site_table_unsupported_gate(self):
        """A table over a raw controlled phase raises: it has no noise channel."""
        with pytest.raises(UnsupportedGateError):
            NoiseSites.for_program(Program(2, (ControlledPhase(1, 2, 2),)))

    def test_unknown_kind(self):
        """An instruction type the noise model does not know raises and names the type."""

        @dataclass(frozen=True)
        class Dephasing:
            qubit: int

        with pytest.raises(UnsupportedGateError, match="no noise model for Dephasing"):
            NoiseSites.for_program(Program(1, (Dephasing(1),)))

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
        rotation, x, hadamard, entangler, stepwise, banged, window, readout = (
            sites.draws(sampler(sites)[None], [config])
        )
        for value in (rotation, x, hadamard):
            assert value.shape == (1,) and 0.9 <= value[0] <= 1.1
        assert entangler.shape == (1,) and entangler[0] != 0.0
        assert stepwise.tolist() == [0.0]
        assert banged.shape == (1,) and banged[0] != 0.0
        assert window.shape == (1, 2) and np.all((0.9 <= window) & (window <= 1.1))
        assert readout is None

    def test_controlled_phase_unsupported(self):
        """Raw controlled-phase gates have no noise channel: a noisy run of one raises."""
        program = Program(2, (ControlledPhase(1, 2, 2),))
        with pytest.raises(UnsupportedGateError):
            monte_carlo("dqc", 2, 0.3, 2, NoiseConfig(), program=program)


class TestNoisyGates:
    """Noisy gate application semantics."""

    def test_entangler_fidelity_closed_form(self):
        """A phase offset of 0.2 on |++> costs fidelity cos^2(pi*0.2/4)."""
        plus_plus = Statevector(2, np.full(4, 0.5, dtype=complex))
        program = Program(2, (Entangler(1, 2),))
        ideal = execute_program(plus_plus, program)
        noisy = execute_program(plus_plus, program, lambda instr: 0.2)
        assert fidelity(ideal, noisy) == pytest.approx(np.cos(np.pi * 0.2 / 4) ** 2)

    def test_apply_noisy_gate_determinism(self):
        """The same seed produces bit-identical output states."""
        state = beta_state(2, 0.8)
        program = Program(2, (Rotation(1, "z", 0.7),))
        config = NoiseConfig(sqgn=0.1)
        first, second = (
            execute_program(state, program, table_sampler(program, config, rng))
            for rng in (np.random.default_rng(5), np.random.default_rng(5))
        )
        assert np.array_equal(first.amplitudes, second.amplitudes)

    def test_apply_noisy_gate_zero_widths(self):
        """All-zero widths reproduce the ideal gate exactly."""
        state = beta_state(2, 0.8)
        program = Program(2, (HadamardGate(2),))
        ideal = execute_program(state, program)
        sampler = table_sampler(program, ZERO_NOISE, np.random.default_rng(0))
        noisy = execute_program(state, program, sampler)
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
        """error_scale=0 reproduces the ideal run bit-for-bit."""
        for protocol in PROTOCOLS:
            ideal = monte_carlo(protocol, 3, 0.4, 1, None)
            silenced = monte_carlo(protocol, 3, 0.4, 1, NoiseConfig(error_scale=0.0))
            assert silenced.mean_fidelity == ideal.mean_fidelity

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
        """The number of shot batches never affects the statistics."""
        serial = monte_carlo("sdaqc", 2, 1.0, 8, NoiseConfig(seed=3), workers=1)
        batched = monte_carlo("sdaqc", 2, 1.0, 8, NoiseConfig(seed=3), workers=3)
        assert serial == batched

    def test_ideal_runs_have_zero_spread(self):
        """Without a config every shot is the same deterministic value."""
        record = monte_carlo("bdaqc", 2, 0.3, 5, None)
        assert record.std_fidelity == pytest.approx(0.0, abs=1e-12)
        assert record.error_scale == 0.0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_block_matches_serial_shots(self, protocol):
        """A block of shots gives the statistics of serial execute_program runs."""
        config = NoiseConfig(seed=4)
        for n in (3, 5, 6, 7):
            program = build_protocol_program(protocol, n)
            state = beta_state(n, 0.9)
            reference = exact_qft(state)
            serial = [
                fidelity(reference, execute_program(state, program, reference_sampler(config, rng)))
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
        direct = fidelity(exact_qft(state), execute_program(state, program, sampler))
        assert record.mean_fidelity == direct

    def test_shot_validation(self):
        """Zero shots is rejected."""
        with pytest.raises(ValueError, match="shots"):
            monte_carlo("dqc", 2, 0.0, 0, None)
        with pytest.raises(ValueError, match="shots"):
            ExperimentRecord("DQC", 2, 0.0, 0, 0, 1.0, 0.0, 0.01, 1.0)


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

    def test_beta_grid_bounds(self):
        """Angles outside [0, pi] are rejected."""
        with pytest.raises(ValueError, match="beta grid"):
            sweep_beta(["dqc"], [2], [0.0, 3.5], 1, None)

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

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        make = noise.make_sampler
        monkeypatch.setattr(noise, "_shot_rng", counting("rng", noise._shot_rng))
        monkeypatch.setattr(
            noise, "make_sampler", lambda *args: counting("sampler", make(*args))
        )
        monkeypatch.setattr(noise, "sample_noise", counting("sample_noise", noise.sample_noise))
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

    def test_beta_grid_builds_one_operand_per_shot(self, monkeypatch):
        """A noisy beta grid builds each window's unitaries once per shot, not once per input.

        Its |W> and |GHZ> inputs share their shot's register row, so every
        window of a batch of b shots gets b drive rows.
        """
        sizes = []
        build = program_module._window_unitaries

        def spy(n, energy, qubits, duration, drive_values):
            sizes.append(drive_values.shape[0])
            return build(n, energy, qubits, duration, drive_values)

        monkeypatch.setattr(program_module, "_window_unitaries", spy)
        sweep_beta(["bdaqc"], [3], [0.0, 0.8, 2.2], 5, NoiseConfig(seed=3), workers=2)
        program = build_protocol_program("bdaqc", 3)
        windows = sum(isinstance(instr, BangedWindow) for instr in program.instructions)
        assert windows > 0
        assert sizes == [3] * windows + [2] * windows

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
        """Non-positive, non-finite and non-numeric window widths are rejected at load time."""
        path = tmp_path / "noise.json"
        for delta_t in (0.0, float("nan"), float("inf"), "0.001", True):
            path.write_text(json.dumps({"delta_t": delta_t}))
            with pytest.raises(ValueError, match="delta_t"):
                load_noise_config(path)

    def test_config_to_dict_covers_file_keys(self):
        """Manifest dict and file schema agree on the key set."""
        entries = config_to_dict(NoiseConfig(), 0.001)
        assert set(entries) == set(CONFIG_FILE_KEYS)
