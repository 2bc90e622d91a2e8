"""Tests for the coherent-noise model and Monte-Carlo experiment layer."""

import json

import numpy as np
import pytest

from daqft.noise import (
    CONFIG_FILE_KEYS,
    CSV_HEADER,
    PROTOCOLS,
    ZERO_NOISE,
    BetaSummary,
    ExperimentRecord,
    NoiseConfig,
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

    def test_zero_noise_constant(self):
        """The zero-noise config has every width at zero."""
        assert ZERO_NOISE.sqgn == 0.0
        assert ZERO_NOISE.tqgn == 0.0
        assert ZERO_NOISE.abn_s == 0.0
        assert ZERO_NOISE.abn_b == 0.0


class TestSampling:
    """Channel draws and the per-instruction sampler."""

    def test_ranges_and_determinism(self):
        """Draws stay in range and repeat under the same seed."""
        config = NoiseConfig()
        draws = [sample_noise("sqg", config, np.random.default_rng(5)) for _ in range(50)]
        again = [sample_noise("sqg", config, np.random.default_rng(5)) for _ in range(50)]
        assert draws == again
        assert all(1 - 5e-4 <= d <= 1 + 5e-4 for d in draws)

    def test_zero_widths_are_exact(self):
        """Zero-width channels return the ideal values bit-exactly."""
        rng = np.random.default_rng(0)
        assert sample_noise("sqg", ZERO_NOISE, rng) == 1.0
        assert sample_noise("tqg", ZERO_NOISE, rng) == 0.0
        assert sample_noise("abn_s", ZERO_NOISE, rng) == 0.0
        assert sample_noise("abn_b", ZERO_NOISE, rng) == 0.0

    def test_unknown_kind(self):
        """Unrecognized channel names raise."""
        with pytest.raises(ValueError, match="noise kind"):
            sample_noise("dephasing", NoiseConfig(), np.random.default_rng(0))

    def test_sqg_statistics(self):
        """10^5 amplitude draws: mean near one, support inside the interval."""
        config = NoiseConfig(sqgn=0.05)
        rng = np.random.default_rng(101)
        draws = np.array([sample_noise("sqg", config, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 1.0) < 1e-3
        assert draws.min() >= 1 - 0.05 and draws.max() <= 1 + 0.05

    def test_tqg_statistics(self):
        """10^5 phase draws: empirical std within 5% of the width."""
        config = NoiseConfig(tqgn=0.2)
        rng = np.random.default_rng(102)
        draws = np.array([sample_noise("tqg", config, rng) for _ in range(100_000)])
        assert abs(draws.std() - 0.2) < 0.05 * 0.2

    def test_sampler_dispatch(self):
        """Each instruction type draws from its own channel."""
        config = NoiseConfig(sqgn=0.1, abn_s=0.0, abn_b=10.0)
        sampler = make_sampler(config, np.random.default_rng(7))
        assert 0.9 <= sampler(Rotation(1, "z", 0.3)) <= 1.1
        assert 0.9 <= sampler(XGate(2)) <= 1.1
        assert 0.9 <= sampler(HadamardGate(1)) <= 1.1
        assert isinstance(sampler(Entangler(1, 2)), float)
        assert sampler(AnalogBlock(0.5, kind="stepwise")) == 0.0
        assert sampler(AnalogBlock(0.5, kind="banged")) != 0.0
        window_values = sampler(BangedWindow(0.01, (1, 3)))
        assert window_values.shape == (2,)
        assert sampler(Permute((0, 1, 2, 3))) is None

    def test_controlled_phase_unsupported(self):
        """Raw controlled-phase gates have no noise channel."""
        sampler = make_sampler(NoiseConfig(), np.random.default_rng(7))
        with pytest.raises(UnsupportedGateError):
            sampler(ControlledPhase(1, 2, 2))


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
        first = execute_program(state, program, make_sampler(config, np.random.default_rng(5)))
        second = execute_program(state, program, make_sampler(config, np.random.default_rng(5)))
        assert np.array_equal(first.amplitudes, second.amplitudes)

    def test_apply_noisy_gate_zero_widths(self):
        """All-zero widths reproduce the ideal gate exactly."""
        state = beta_state(2, 0.8)
        program = Program(2, (HadamardGate(2),))
        ideal = execute_program(state, program)
        noisy = execute_program(state, program, make_sampler(ZERO_NOISE, np.random.default_rng(0)))
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
        """Thread count never affects the statistics."""
        serial = monte_carlo("sdaqc", 2, 1.0, 8, NoiseConfig(seed=3), workers=1)
        threaded = monte_carlo("sdaqc", 2, 1.0, 8, NoiseConfig(seed=3), workers=3)
        assert serial == threaded

    def test_ideal_runs_have_zero_spread(self):
        """Without a config every shot is the same deterministic value."""
        record = monte_carlo("bdaqc", 2, 0.3, 5, None)
        assert record.std_fidelity == pytest.approx(0.0, abs=1e-12)
        assert record.error_scale == 0.0

    def test_single_shot_equals_run_protocol(self):
        """shots=1 reproduces a direct run with the derived shot-0 generator."""
        config = NoiseConfig(seed=13)
        record = monte_carlo("dqc", 3, 0.6, 1, config)
        state = beta_state(3, 0.6)
        sampler = make_sampler(config, np.random.default_rng([13, 0]))
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
        """Byte-identical output whatever the thread count."""
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
