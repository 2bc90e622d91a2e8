"""End-to-end tests of the command-line interface (in-process via main)."""

import argparse
import ast
import hashlib
import importlib
import inspect
import json
import os
import platform
import re
import shlex
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

import daqft
from daqft import cli
from daqft.cli import main
from daqft.daqc import compile_qft_daqc, solve_times
from daqft.ising import IsingSpec
from daqft.qft import qft_block_target


def run(args):
    return main([str(a) for a in args])


class TestSweepBeta:
    """The fidelity-vs-beta sweep command."""

    def test_ideal_digital_sweep(self, tmp_path, capsys):
        """Noiseless gate protocols give fidelity one at every angle."""
        out = tmp_path / "ideal.csv"
        rc = run(
            [
                "sweep-beta",
                "--protocols", "dqc,sdaqc",
                "--qubits", "3",
                "--beta-points", "5",
                "--ideal",
                "--out", out,
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 5
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[5] == "1.000000000"

    def test_manifest(self, tmp_path):
        """Every CSV is accompanied by a manifest with the resolved settings."""
        out = tmp_path / "run.csv"
        rc = run(
            [
                "sweep-beta",
                "--protocols", "dqc",
                "--qubits", "2",
                "--beta-points", "2",
                "--shots", "2",
                "--seed", "7",
                "--out", out,
            ]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["command"] == "sweep-beta"
        assert manifest["seed"] == 7
        assert manifest["config"]["shots"] == 2
        assert manifest["config"]["noise"]["seed"] == 7
        assert manifest["config"]["ideal"] is False
        assert "timestamp" in manifest
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["wall_s"] > 0
        # two beta points of two shots each
        assert manifest["shots_per_s"] == pytest.approx(4 / manifest["wall_s"])

    def test_manifest_cells(self, tmp_path):
        """The manifest times each (protocol, n); DAQC cells carry negative segments and block times."""
        out = tmp_path / "run.csv"
        args = ["sweep-beta", "--protocols", "dqc,sdaqc,bdaqc", "--qubits", "3,5",
                "--beta-points", "2", "--shots", "3", "--seed", "0"]
        assert run(args + ["--out", out]) == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        cells = manifest["cells"]
        assert [(c["protocol"], c["n_qubits"]) for c in cells] == [
            ("dqc", 3), ("dqc", 5), ("sdaqc", 3), ("sdaqc", 5), ("bdaqc", 3), ("bdaqc", 5)
        ]
        negative = {("sdaqc", 3): 5, ("sdaqc", 5): 28, ("bdaqc", 3): 6, ("bdaqc", 5): 28}
        for cell in cells:
            assert cell["wall_s"] > 0
            # two beta points of three shots each
            assert cell["shots_per_s"] == pytest.approx(6 / cell["wall_s"])
            if cell["protocol"] == "dqc":
                assert "negative_segments" not in cell and "block_times" not in cell
            else:
                assert cell["negative_segments"] == negative[(cell["protocol"], cell["n_qubits"])]
                mode = {"sdaqc": "stepwise", "bdaqc": "banged"}[cell["protocol"]]
                block_times = compile_qft_daqc(cell["n_qubits"], mode).metadata["block_times"]
                assert cell["block_times"] == [list(times) for times in block_times]
        assert sum(c["wall_s"] for c in cells) <= manifest["wall_s"]
        # Timing the cells leaves the CSV as the library writes it.
        records = daqft.sweep_beta(["dqc", "sdaqc", "bdaqc"], [3, 5], daqft.default_beta_grid(2), 3,
                                   daqft.NoiseConfig())
        assert out.read_text() == daqft.records_to_csv(records)

    @pytest.mark.parametrize(
        "flag, value, repeated",
        [("--protocols", "dqc,DQC", "'dqc'"), ("--qubits", "2,3,2", "2"), ("--scales", "0.5,1,0.50", "0.5")],
    )
    def test_repeated_list_entry_rejected(self, tmp_path, capsys, flag, value, repeated):
        """A list flag naming a value twice exits 2 before any work, naming the value."""
        lists = {"--protocols": "dqc", "--qubits": "2", "--scales": "1", flag: value}
        out = tmp_path / "x.csv"
        argv = ["sweep-error-scale", "--shots", "1", "--out", out]
        assert run(argv + [item for pair in lists.items() for item in pair]) == 2
        err = capsys.readouterr().err
        assert "repeated" in err and repeated in err
        assert not out.exists()

    def test_noise_config_file(self, tmp_path):
        """A JSON config sets the widths and may carry delta_t."""
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"sqgn": 0.0, "tqgn": 0.0, "abn_s": 0.0, "abn_b": 0.0, "delta_t": 0.001}))
        out = tmp_path / "run.csv"
        rc = run(
            [
                "sweep-beta",
                "--protocols", "sdaqc",
                "--qubits", "2",
                "--beta-points", "2",
                "--shots", "2",
                "--noise-config", noise,
                "--out", out,
            ]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["config"]["delta_t"] == pytest.approx(0.001)
        assert manifest["config"]["noise"]["sqgn"] == 0.0

    def test_unknown_config_key(self, tmp_path, capsys):
        """Misspelled config keys exit with code 2."""
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"typo_key": 1}))
        rc = run(
            ["sweep-beta", "--qubits", "2", "--noise-config", noise, "--out", tmp_path / "x.csv"]
        )
        assert rc == 2
        assert "unknown noise config keys: typo_key" in capsys.readouterr().err

    def test_malformed_config_names_file(self, tmp_path, capsys):
        """A config file that is not JSON exits 2 with its path ahead of json's message."""
        noise = tmp_path / "noise.json"
        noise.write_text('{"sqgn": 0.1\n"tqgn": 0.2}\n')
        out = tmp_path / "x.csv"
        rc = run(["sweep-beta", "--qubits", "2", "--shots", "1", "--noise-config", noise, "--out", out])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"{noise}: Expecting ',' delimiter: line 2")
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"tqgn_is_std": "false"}, "unknown noise config keys: tqgn_is_std"),
            ({"tqgn_is_std": True}, "unknown noise config keys: tqgn_is_std"),
            ({"sqgn": "0.1"}, "sqgn"),
            ({"seed": True}, "seed"),
            ({"delta_t": float("nan")}, "delta_t"),
            ({"delta_t": None}, "delta_t must be a finite number > 0, got None"),
        ],
        ids=["tqgn_is_std-string", "tqgn_is_std-removed", "sqgn-string", "seed-bool", "delta_t-nan",
             "delta_t-null"],
    )
    def test_invalid_config_value(self, tmp_path, capsys, payload, key):
        """Config values of the wrong type, the removed tqgn_is_std key, or a bad delta_t exit 2.

        delta_t must be a finite number > 0; a JSON null is not "not given".
        """
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps(payload))
        out = tmp_path / "x.csv"
        rc = run(["sweep-beta", "--qubits", "2", "--shots", "1", "--noise-config", noise, "--out", out])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_subnormal_delta_t_rejected_before_any_cell(self, tmp_path, capsys, monkeypatch):
        """A subnormal delta_t exits 2 naming it before the sweep runs: its windows would be NaN."""

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "sweep_beta", no_sweep)
        noise = tmp_path / "noise.json"
        noise.write_text('{"delta_t": 1e-320}')
        out = tmp_path / "x.csv"
        args = ["--protocols", "bdaqc", "--qubits", "3", "--shots", "1", "--noise-config", noise]
        assert run(["sweep-beta", *args, "--out", out]) == 2
        assert "delta_t must be a finite number > 0, got 1e-320" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        """--workers must be at least one."""
        out = tmp_path / "x.csv"
        rc = run(["sweep-beta", "--qubits", "2", "--shots", "1", "--workers", workers, "--out", out])
        assert rc == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep-beta", "sweep-error-scale"])
    def test_bad_out_fails_before_sweep(self, tmp_path, capsys, monkeypatch, command):
        """An --out that cannot be opened exits 2 before any cell runs."""

        def no_sweep(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "sweep_beta", no_sweep)
        monkeypatch.setattr(cli, "sweep_error_scale", no_sweep)
        out = tmp_path / "missing" / "x.csv"
        args = [command, "--qubits", "3", "--shots", "2", "--out", out]
        rc = run(args + (["--scales", "1"] if command == "sweep-error-scale" else []))
        assert rc == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_out_not_a_regular_file_fails_before_sweep(self, capsys, monkeypatch):
        """An --out that exists but is no regular file, here a pipe, exits 2 naming it before any cell runs."""

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "sweep_beta", no_sweep)
        read, write = os.pipe()
        out = f"/dev/fd/{write}"
        try:
            rc = run(["sweep-beta", "--qubits", "3", "--shots", "2", "--out", out])
        finally:
            os.close(read)
            os.close(write)
        assert rc == 2
        assert f"--out {out} exists and is not a regular file" in capsys.readouterr().err

    def test_failed_sweep_keeps_existing_out(self, tmp_path):
        """A sweep that fails leaves a file already at --out as it was."""
        out = tmp_path / "x.csv"
        out.write_text("earlier run\n")
        rc = run(["sweep-beta", "--qubits", "2", "--shots", "1", "--workers", "0", "--out", out])
        assert rc == 2
        assert out.read_text() == "earlier run\n"
        assert not (tmp_path / "x.csv.manifest.json").exists()

    def test_four_qubits_rejected(self, tmp_path, capsys):
        """The singular register size is reported on stderr with exit 2."""
        rc = run(
            ["sweep-beta", "--protocols", "sdaqc", "--qubits", "4", "--ideal", "--out", tmp_path / "x.csv"]
        )
        assert rc == 2
        assert "singular sign matrix for N=4" in capsys.readouterr().err

    def test_unknown_protocol(self, tmp_path, capsys):
        """Protocol typos exit with code 2."""
        rc = run(
            ["sweep-beta", "--protocols", "dq", "--qubits", "2", "--ideal", "--out", tmp_path / "x.csv"]
        )
        assert rc == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        """Same seed twice, and any worker count, give identical CSV bytes."""
        args = [
            "sweep-beta",
            "--protocols", "dqc",
            "--qubits", "2",
            "--beta-points", "2",
            "--shots", "4",
            "--seed", "3",
        ]
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        assert run(args + ["--workers", "1", "--out", paths[0]]) == 0
        assert run(args + ["--workers", "1", "--out", paths[1]]) == 0
        assert run(args + ["--workers", "2", "--out", paths[2]]) == 0
        first = paths[0].read_bytes()
        assert first == paths[1].read_bytes()
        assert first == paths[2].read_bytes()


class TestGoldenBytes:
    """CSV and compile-dump bytes, pinned so refactors cannot change them."""

    def test_sweep_csv_digests(self, tmp_path):
        """Both sweeps at seed 0 reproduce the recorded SHA-256 of their CSV."""
        runs = {
            "08fa6e7e9805de6d8e487731f29bc3253bbf783cbebc03fe3c57fbd289bbd6ab": [
                "sweep-beta", "--qubits", "3,5", "--shots", "4", "--beta-points", "3",
            ],
            "bba7ab5adbe6991cb421a5070da90c95a8ae86788f6481f14a8b35d22335e739": [
                "sweep-error-scale", "--qubits", "3", "--scales", "0,0.5,1", "--shots", "4",
            ],
        }
        for digest, args in runs.items():
            out = tmp_path / f"{args[0]}.csv"
            assert run(args + ["--seed", "0", "--out", out]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_compile_dump_digests(self, tmp_path, capsys):
        """Compile dumps, residual line included, reproduce their recorded SHA-256.

        The dump lists durations only, so both modes of one target print the same bytes.
        Target times 0.7 and 2.5 have no exact reciprocal, so their residual lines pin
        how the residual divides by the target time.
        """
        target = tmp_path / "target.txt"
        target.write_text("1 2 0.5\n1 4 -0.75\n2 3 0.125\n2 5 1.5\n3 5 -0.3\n4 5 0.05\n")
        block = "54598978f66f87a83f90cd3584125c2c42a9ceb4237c95ec81d96088084cc3bd"
        runs = [
            (block, ["--target", "qft-block:1"]),
            (block, ["--target", "qft-block:1", "--mode", "banged"]),
            (
                "f217831ed8829d9239538f54bd339439cf6978d7c78115b92b91fcd645261e72",
                ["--target", target, "--target-time", "0.5"],
            ),
            (
                "242d537b6f469cf2dca8bfd6ac1d91d9e58e1be438b69f9cd0cc985638ffbe21",
                ["--target", target, "--target-time", "0.7"],
            ),
            (
                "8c5ec4305ecd4cd3eb6604e6fbf9e52ef61aeb77853d8bd46ec8967b9c0bc71e",
                ["--target", target, "--target-time", "2.5"],
            ),
        ]
        for digest, args in runs:
            assert run(["compile", "--qubits", "5"] + args) == 0
            dump = capsys.readouterr().out.encode()
            assert hashlib.sha256(dump).hexdigest() == digest


class TestSweepErrorScale:
    """The fidelity-vs-noise-scale sweep command."""

    def test_scale_sweep(self, tmp_path):
        """One row per (protocol, n, scale)."""
        out = tmp_path / "scale.csv"
        rc = run(
            [
                "sweep-error-scale",
                "--protocols", "dqc",
                "--qubits", "2",
                "--scales", "0,1",
                "--shots", "2",
                "--out", out,
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[8] == "0.000000000"
        assert lines[2].split(",")[8] == "1.000000000"

    def test_manifest_beta_is_records_beta(self, tmp_path, monkeypatch):
        """The manifest's beta is the one the sweep's records were run at."""
        runs = []

        def spy(*args, **kwargs):
            runs.append(daqft.sweep_error_scale(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "sweep_error_scale", spy)
        out = tmp_path / "scale.csv"
        argv = ["sweep-error-scale", "--qubits", "2,3", "--scales", "0.5,0", "--shots", "2"]
        assert run(argv + ["--out", out]) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        (records,) = runs
        assert len(records) == 3 * 2 * 2
        assert {record.beta for record in records} == {manifest["config"]["beta"]}

    def test_negative_zero_scale_is_zero(self, tmp_path):
        """--scales=-0.0,1 writes the CSV bytes and manifest scales of --scales 0,1."""
        outputs = []
        for scales in ("--scales=-0.0,1", "--scales=0,1"):
            out = tmp_path / f"scale{len(outputs)}.csv"
            argv = ["sweep-error-scale", "--qubits", "3", "--shots", "2", "--protocols", "dqc"]
            assert run(argv + [scales, "--out", out]) == 0
            manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
            outputs.append((out.read_bytes(), repr(manifest["config"]["scales"])))
        assert outputs[0] == outputs[1]
        assert outputs[0][1] == "[0.0, 1.0]"

    def test_ideal_flag_rejected(self, tmp_path, capsys):
        """Scaling noise makes no sense without noise: the command has no --ideal, so argparse exits 2."""
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run(["sweep-error-scale", "--qubits", "2", "--scales", "1", "--ideal", "--out", out])
        assert exc.value.code == 2
        assert "unrecognized arguments: --ideal" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_scale_rejected(self, tmp_path, capsys):
        """A config's own error_scale, which the --scales grid would replace, exits 2 and writes no --out."""
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"error_scale": 0.5}))
        out = tmp_path / "x.csv"
        argv = ["sweep-error-scale", "--qubits", "3", "--scales", "1", "--shots", "1"]
        assert run(argv + ["--noise-config", noise, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "error_scale 0.5" in err and "scale grid" in err
        assert not out.exists()

    def test_bad_scale_list(self, tmp_path, capsys):
        """Malformed number lists exit with code 2."""
        rc = run(
            ["sweep-error-scale", "--qubits", "2", "--scales", "1,zz", "--out", tmp_path / "x.csv"]
        )
        assert rc == 2


class TestCompile:
    """The schedule compiler command."""

    def test_qft_block_target(self, capsys):
        """The first transform block of n=3 has the known durations."""
        rc = run(["compile", "--qubits", "3", "--target", "qft-block:1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        durations = [float(line.split()[3]) for line in lines[:3]]
        assert durations == pytest.approx([-np.pi / 32, -np.pi / 16, -3 * np.pi / 32])
        assert lines[3].startswith("residual ")
        assert float(lines[3].split()[1]) < 1e-10

    def test_coupling_file_target(self, tmp_path, capsys):
        """Coupling files compile to the same durations as the direct solver."""
        target = tmp_path / "target.txt"
        target.write_text("# pair couplings\n1 2 0.5\n1 3 -0.25\n2 3 0.125\n")
        out = tmp_path / "schedule.txt"
        rc = run(
            [
                "compile",
                "--qubits", "3",
                "--target", target,
                "--target-time", "2.0",
                "--out", out,
            ]
        )
        assert rc == 0
        dumped = [float(line.split()[3]) for line in out.read_text().strip().splitlines()]
        spec = IsingSpec(3, {(1, 2): 0.5, (1, 3): -0.25, (2, 3): 0.125}, target_time=2.0)
        assert dumped == pytest.approx(list(solve_times(spec)))

    def test_zero_target_time_rejected(self, tmp_path, capsys):
        """--target-time 0 exits 2 with a message instead of a ZeroDivisionError traceback."""
        target = tmp_path / "target.txt"
        target.write_text("1 2 0.5\n1 3 -0.25\n2 3 0.125\n")
        rc = run(["compile", "--qubits", "3", "--target", target, "--target-time", "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "target_time must be nonzero" in captured.err
        assert captured.out == ""

    def test_zero_duration_under_negative_target_time(self, tmp_path, capsys):
        """A zero duration prints as 0, not -0, when the target time is negative."""
        target = tmp_path / "zero.txt"
        target.write_text("# no couplings\n")
        rc = run(["compile", "--qubits", "3", "--target", target, "--target-time", "-1.5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[3] for line in lines[:3]] == ["0.000000000000e+00"] * 3

    def test_zero_target(self, tmp_path, capsys):
        """An empty coupling target compiles to all-zero durations."""
        target = tmp_path / "zero.txt"
        target.write_text("# no couplings\n")
        rc = run(["compile", "--qubits", "3", "--target", target])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [float(line.split()[3]) for line in lines[:3]] == [0.0, 0.0, 0.0]

    def test_banged_mode(self, tmp_path):
        """Banged compilation writes one line per analog block."""
        out = tmp_path / "schedule.txt"
        rc = run(
            [
                "compile",
                "--qubits", "3",
                "--target", "qft-block:2",
                "--mode", "banged",
                "--out", out,
            ]
        )
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_qft_block_target_time(self, capsys):
        """A qft-block target honours --target-time: its durations are the solve at that time."""
        rc = run(["compile", "--qubits", "5", "--target", "qft-block:2", "--target-time", "2.5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        dumped = [float(line.split()[3]) for line in lines[:-1]]
        spec = qft_block_target(5, 2)
        expected = solve_times(IsingSpec(5, spec.couplings, target_time=2.5))
        assert dumped == pytest.approx(list(expected), rel=1e-12)
        unit = solve_times(spec)
        assert dumped == pytest.approx(list(2.5 * unit), rel=1e-12)
        assert float(lines[-1].split()[1]) < 1e-10

    @pytest.mark.parametrize(
        "target_time, message",
        [
            ("0", "target_time must be nonzero"),
            ("1e-320", "target_time must be nonzero, of magnitude >= 2.2250738585072014e-308, got 1e-320"),
            ("nan", "target_time must be finite"),
            ("inf", "target_time must be finite"),
            ("-inf", "target_time must be finite"),
        ],
    )
    def test_qft_block_bad_target_time_rejected(self, capsys, target_time, message):
        """A zero, subnormal or non-finite --target-time exits 2 for a qft-block target, with no durations.

        1 / t overflows for a subnormal t, which would give a NaN residual.
        """
        args = ["compile", "--qubits", "3", "--target", "qft-block:1"]
        assert run(args + [f"--target-time={target_time}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_overflowing_durations_rejected(self, tmp_path, capsys):
        """Durations that overflow exit 2 naming them, not an inf dump with residual nan."""
        target = tmp_path / "target.txt"
        target.write_text("1 2 1e300\n1 3 -2e300\n2 3 5e299\n")
        assert run(["compile", "--qubits", "3", "--target", target, "--target-time", "1e10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "durations [inf, -inf, inf] are not finite at target_time 10000000000.0" in captured.err

    def test_delta_t_flag_rejected(self, capsys):
        """No window width reaches the dump, so compile has no --delta-t: it exits 2 like any unknown flag."""
        with pytest.raises(SystemExit) as exc:
            run(["compile", "--qubits", "3", "--target", "qft-block:1", "--delta-t", "0.001"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --delta-t" in capsys.readouterr().err

    def test_malformed_coupling_file(self, tmp_path, capsys):
        """Bad lines are reported with their location, exit 2."""
        target = tmp_path / "bad.txt"
        target.write_text("1 2 0.5\n1 3\n")
        rc = run(["compile", "--qubits", "3", "--target", target])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

    def test_non_utf8_coupling_file_names_file_and_line(self, tmp_path, capsys):
        """A line that is not UTF-8 exits 2 with the file and line ahead of the decoder's reason."""
        target = tmp_path / "bad.txt"
        target.write_bytes(b"1 2 0.5\n1 3 0.2\xff\n2 3 0.1\n")
        rc = run(["compile", "--qubits", "3", "--target", target])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{target}:2: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 7: "
            "invalid start byte\n"
        )

    def test_coupling_file_line_endings(self, tmp_path, capsys):
        """Lines end in \\n, \\r\\n or \\r, and a bad line is counted across all three."""
        target = tmp_path / "mixed.txt"
        target.write_bytes(b"# couplings\r\n1 2 0.5\r1 3 0.25\n2 3\n")
        rc = run(["compile", "--qubits", "3", "--target", target])
        assert rc == 2
        assert capsys.readouterr().err == f"{target}:4: expected 'j k g_jk', got '2 3'\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("2 1 0.5", "coupling pair (2, 1) is not ordered within 1..3"),
            ("1 3 nan", "coupling for pair (1, 3) is not finite"),
            ("1 4 0.5", "coupling pair (1, 4) is not ordered within 1..3"),
        ],
        ids=["unordered", "nan", "past-register"],
    )
    def test_rejected_pair_names_file_and_line(self, tmp_path, capsys, line, message):
        """A pair the coupling pattern rejects exits 2 with the file and line ahead of the reason."""
        target = tmp_path / "bad.txt"
        target.write_text(f"1 2 0.5\n{line}\n")
        rc = run(["compile", "--qubits", "3", "--target", target])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{target}:2: {message}\n"

    def test_duplicate_pair(self, tmp_path, capsys):
        """Repeated pairs in a coupling file exit 2."""
        target = tmp_path / "dup.txt"
        target.write_text("1 2 0.5\n1 2 0.25\n")
        rc = run(["compile", "--qubits", "3", "--target", target])
        assert rc == 2
        assert "duplicate pair" in capsys.readouterr().err

    def test_four_qubits_rejected(self, capsys):
        """Compilation at the singular size exits 2 with the message."""
        rc = run(["compile", "--qubits", "4", "--target", "qft-block:1"])
        assert rc == 2
        assert "singular sign matrix for N=4" in capsys.readouterr().err

    def test_block_index_range(self, capsys):
        """Out-of-range block indices exit 2."""
        rc = run(["compile", "--qubits", "3", "--target", "qft-block:5"])
        assert rc == 2
        assert "outside 1..2" in capsys.readouterr().err

    def test_block_index_not_integer(self, capsys):
        """A non-integer block index names the flag and the expected form."""
        rc = run(["compile", "--qubits", "3", "--target", "qft-block:x"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--target" in err
        assert "qft-block:<m>" in err
        assert "'qft-block:x'" in err


class TestNn2ata:
    """The connectivity-compiler command."""

    def test_even_size_passes(self, capsys):
        """Even sizes cover the complete graph and verify densely."""
        rc = run(["nn2ata", "--size", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "paths 2" in out
        assert "edge-cover PASS" in out
        assert "dense-verification PASS distance" in out

    def test_odd_size_fails(self, capsys):
        """Odd sizes report the first uncovered edge and exit 1."""
        rc = run(["nn2ata", "--size", "3"])
        assert rc == 1
        assert "edge-cover FAIL offending-edge (1, 2)" in capsys.readouterr().out

    def test_large_size_skips_dense_check(self, capsys):
        """Beyond six qubits only the combinatorial check runs."""
        rc = run(["nn2ata", "--size", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "edge-cover PASS" in out
        assert "dense-verification SKIPPED (L > 6)" in out

    def test_path_file_output(self, tmp_path, capsys):
        """--out writes the path dump to a file."""
        out = tmp_path / "paths.txt"
        rc = run(["nn2ata", "--size", "4", "--out", out])
        assert rc == 0
        assert out.read_text() == "1 4 2 3\n2 1 3 4\n"


class TestPlot:
    """The SVG plot command."""

    def test_plot_sweep(self, tmp_path):
        """A sweep CSV renders one polyline per protocol."""
        csv_path = tmp_path / "sweep.csv"
        rc = run(
            [
                "sweep-beta",
                "--protocols", "dqc,sdaqc",
                "--qubits", "2",
                "--beta-points", "3",
                "--ideal",
                "--out", csv_path,
            ]
        )
        assert rc == 0
        svg_path = tmp_path / "sweep.svg"
        rc = run(["plot", "--in", csv_path, "--x", "beta", "--out", svg_path])
        assert rc == 0
        svg = svg_path.read_text()
        assert svg.count("<polyline") == 2
        assert "DQC" in svg and "sDAQC" in svg

    def test_empty_csv_rejected(self, tmp_path, capsys):
        """A header-only CSV exits 2."""
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text(
            "protocol,n_qubits,beta,shots,seed,mean_fidelity,std_fidelity,delta_t,error_scale\n"
        )
        rc = run(["plot", "--in", csv_path, "--x", "beta", "--out", tmp_path / "x.svg"])
        assert rc == 2
        assert "no data rows" in capsys.readouterr().err

    def test_foreign_csv_rejected(self, tmp_path, capsys):
        """Wrong headers exit 2."""
        csv_path = tmp_path / "foreign.csv"
        csv_path.write_text("a,b\n1,2\n")
        rc = run(["plot", "--in", csv_path, "--x", "beta", "--out", tmp_path / "x.svg"])
        assert rc == 2
        assert "unexpected CSV header" in capsys.readouterr().err

    def test_label_text_is_escaped(self, tmp_path):
        """A protocol value with markup characters gives a well-formed SVG."""
        csv_path = tmp_path / "odd.csv"
        csv_path.write_text(
            daqft.noise.CSV_HEADER + "\n"
            "A&B<x>,3,0.0,1,0,0.5,0.0,0.0001,1.0\n"
            "A&B<x>,3,1.0,1,0,0.6,0.0,0.0001,1.0\n"
        )
        svg_path = tmp_path / "odd.svg"
        assert run(["plot", "--in", csv_path, "--x", "beta", "--out", svg_path]) == 0
        document = minidom.parse(str(svg_path))
        assert "A&B<x>" in [node.firstChild.data for node in document.getElementsByTagName("text")]

    @pytest.mark.parametrize(
        "row",
        [
            "DQC,3,nan,1,0,0.6,0.0,0.0001,1.0",
            "DQC,3,1.0,1,0,nan,0.0,0.0001,1.0",
            "DQC,3,inf,1,0,0.6,0.0,0.0001,1.0",
        ],
        ids=["nan-beta", "nan-mean_fidelity", "inf-beta"],
    )
    def test_non_finite_value_rejected(self, tmp_path, capsys, row):
        """A nan or inf coordinate exits 2 as a malformed row and writes no SVG."""
        csv_path = tmp_path / "nan.csv"
        csv_path.write_text(daqft.noise.CSV_HEADER + "\nDQC,3,0.0,1,0,0.5,0.0,0.0001,1.0\n" + row + "\n")
        svg_path = tmp_path / "nan.svg"
        assert run(["plot", "--in", csv_path, "--x", "beta", "--out", svg_path]) == 2
        assert "malformed CSV row" in capsys.readouterr().err
        assert not svg_path.exists()

    def test_missing_file(self, tmp_path, capsys):
        """A nonexistent input exits 2."""
        rc = run(["plot", "--in", tmp_path / "nope.csv", "--x", "beta", "--out", tmp_path / "x.svg"])
        assert rc == 2


class TestParser:
    """Top-level parser behavior."""

    def test_version(self, capsys):
        """--version prints the program name and exits zero."""
        with pytest.raises(SystemExit) as info:
            run(["--version"])
        assert info.value.code == 0
        assert "daqft" in capsys.readouterr().out

    def test_module_entry_point(self):
        """python -m daqft runs the command line from a source checkout."""
        src = str(Path(daqft.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "daqft", "--help"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "sweep-beta" in result.stdout

    def test_readme_commands_parse(self):
        """Every daqft line of README's sh blocks, continuations joined, parses; none runs."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
        lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
        commands = [shlex.split(line) for line in lines if line.startswith("daqft ")]
        assert {argv[1] for argv in commands} == {"sweep-beta", "sweep-error-scale", "compile", "nn2ata", "plot"}
        parser = cli.build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(argv)}")


# Per text input: its file name, its contents, the argv that takes its path next, and the exit code.
BOM_INPUTS = {
    "coupling-file": (
        "target.txt", "# couplings\n1 2 0.5\n1 3 -0.25\n2 3 0.125\n",
        ["compile", "--qubits", "3", "--target"], 0,
    ),
    "coupling-file-bad-line": ("target.txt", "1 2 0.5\n1 3\n", ["compile", "--qubits", "3", "--target"], 2),
    "noise-config": (
        "noise.json", '{"sqgn": 0.01, "tqgn": 0.1, "seed": 4, "delta_t": 0.001}',
        ["sweep-beta", "--protocols", "dqc,bdaqc", "--qubits", "3", "--beta-points", "2", "--shots", "2",
         "--noise-config"], 0,
    ),
    "plot-csv": (
        "sweep.csv",
        daqft.noise.CSV_HEADER + "\ndqc,3,0.0,1,0,0.5,0.0,0.0001,1.0\ndqc,3,1.0,1,0,0.6,0.0,0.0001,1.0\n",
        ["plot", "--x", "beta", "--in"], 0,
    ),
}


class TestByteOrderMark:
    """A text input saved with one leading UTF-8 byte-order mark reads as it does without one."""

    @pytest.mark.parametrize("name", sorted(BOM_INPUTS))
    def test_same_outputs_with_and_without_bom(self, tmp_path, capsys, name):
        """Exit code, stdout, stderr (line numbers included) and output bytes are unchanged."""
        filename, text, args, code = BOM_INPUTS[name]
        path, out = tmp_path / filename, tmp_path / "out"
        outputs = []
        for mark in ("", "\ufeff"):
            path.write_text(mark + text, encoding="utf-8")
            out.unlink(missing_ok=True)
            rc = run(args + [path, "--out", out])
            captured = capsys.readouterr()
            outputs.append((rc, captured.out, captured.err, out.read_bytes() if out.exists() else None))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == code


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_daqft_uses():
    """The daqft names perfbench/workloads.py and perfbench/run.py read, and their calls.

    Returns the (module, name) pairs they read, and for each call written
    ``<module>.<name>(...)`` its (module, name, positional argument count,
    keyword names); a call with ``*`` or ``**`` arguments is left out.  The
    files are parsed, not imported.  A string literal that mentions
    ``daqft.`` and parses as Python, as run.py's set-up probe does, is
    searched as well.
    """
    modules = {"daqft": "daqft"}  # local name -> the daqft module it is bound to
    references, calls = set(), []
    pending = [ast.parse((PERFBENCH / name).read_text()) for name in ("workloads.py", "run.py")]
    while pending:
        for node in ast.walk(pending.pop()):
            if isinstance(node, ast.ImportFrom) and node.module == "daqft":
                for alias in node.names:
                    references.add(("daqft", alias.name))
                    modules[alias.asname or alias.name] = f"daqft.{alias.name}"
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                references.add((modules[node.value.id], node.attr))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and getattr(node.func.value, "id", None) in modules
            ):
                keywords = [keyword.arg for keyword in node.keywords]
                if None not in keywords and not any(isinstance(a, ast.Starred) for a in node.args):
                    module = modules[node.func.value.id]
                    calls.append((module, node.func.attr, len(node.args), tuple(keywords)))
            elif isinstance(node, ast.Constant) and "daqft." in str(node.value):
                try:
                    pending.append(ast.parse(node.value))
                except SyntaxError:
                    pass
    return references, calls


class TestBenchmarkSurface:
    """What the benchmark drives exists, so deleting it fails here and not only in perfbench."""

    def test_perfbench_daqft_names_exist(self):
        """Every daqft name perfbench's workloads and runner use is defined."""
        references, _ = perfbench_daqft_uses()
        assert {("daqft", "verify_nn_simulates_ata"), ("daqft.cli", "main")} <= references
        for module, name in sorted(references):
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"

    def test_perfbench_calls_bind(self):
        """Every daqft call in perfbench's workloads and runner binds to the signature it names.

        Only the number of positional arguments and the keyword names are
        bound, not their values: a parameter deleted, renamed or made
        keyword-only would fail the benchmark, and fails here.
        """
        _, calls = perfbench_daqft_uses()
        assert ("daqft", "compile_qft_daqc", 3, ()) in calls and ("daqft.cli", "main", 1, ()) in calls
        for module, name, positional, keywords in calls:
            function = getattr(importlib.import_module(module), name)
            try:
                inspect.signature(function).bind(*range(positional), **dict.fromkeys(keywords))
            except TypeError as error:
                pytest.fail(f"{module}.{name} with {positional} positional and {keywords}: {error}")

    def test_perfbench_flags_are_cli_options(self):
        """Every --flag literal in perfbench/workloads.py is an option of some subcommand."""
        tree = ast.parse((PERFBENCH / "workloads.py").read_text())
        flags = {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and str(node.value).startswith("--")
        }
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            flag
            for subparser in commands.choices.values()
            for action in subparser._actions
            for flag in action.option_strings
        }
        assert {"--workers", "--mode", "--ideal"} <= flags
        assert flags <= options, sorted(flags - options)


def call_outputs(args, capsys, out=None):
    """Exit code, stdout and stderr of one main call, and the CSV bytes and settings it wrote.

    A manifest's timings and timestamp differ from run to run, so only its
    command, seed and resolved configuration are kept.
    """
    try:
        code = run(args)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    captured = capsys.readouterr()
    written = None
    if out is not None and out.exists():
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        written = (out.read_bytes(), manifest["command"], manifest["seed"], manifest["config"])
    return code, captured.out, captured.err, written


def _sweep(*extra):
    return ["sweep-beta", "--protocols", "dqc", "--qubits", "3", "--beta-points", "2", *extra]


def _compile(*extra):
    return ["compile", "--qubits", "3", "--target", "qft-block:1", *extra]


# Consecutive calls in one process, each with its exit code; a sweep writes to its own --out.
REUSE_SEQUENCES = {
    "ideal-then-noisy-sweep": [(_sweep("--ideal"), 0), (_sweep("--shots", "4", "--seed", "3"), 0)],
    "banged-then-default-compile": [
        (_compile("--mode", "banged", "--target-time", "2"), 0),
        (_compile(), 0),
    ],
    "exit-2-then-good": [
        (_compile("--mode", "sideways"), 2),  # argparse exits
        (["compile", "--qubits", "4", "--target", "qft-block:1"], 2),  # main returns
        (_compile(), 0),
    ],
}


class TestParserReuse:
    """main builds its parser once per process, and consecutive calls share it."""

    @pytest.mark.parametrize("name", sorted(REUSE_SEQUENCES))
    def test_consecutive_calls_equal_calls_alone(self, tmp_path, capsys, name):
        """Each call of a sequence gives the bytes it gives through a parser built for it alone."""
        calls = []
        for index, (args, _) in enumerate(REUSE_SEQUENCES[name]):
            out = tmp_path / f"call{index}.csv" if args[0] == "sweep-beta" else None
            calls.append((args + ["--out", out] if out else args, out))
        cli._parser.cache_clear()
        together = [call_outputs(args, capsys, out) for args, out in calls]
        assert cli._parser.cache_info().misses == 1  # one parser served every call
        assert [code for code, *_ in together] == [code for _, code in REUSE_SEQUENCES[name]]
        for (args, out), outputs in zip(calls, together):
            cli._parser.cache_clear()
            assert call_outputs(args, capsys, out) == outputs, args

    def test_defaults_do_not_leak(self):
        """A flag given to one call is back at its default in the next."""
        cli._parser.cache_clear()
        parse = cli._parser().parse_args
        parse(_sweep("--ideal", "--out", "a.csv"))
        assert parse(_sweep("--out", "a.csv")).ideal is False
        parse(_compile("--mode", "banged", "--target-time", "2"))
        args = parse(_compile())
        assert (args.mode, args.target_time) == ("stepwise", 1.0)
        assert cli._parser() is cli._parser()
