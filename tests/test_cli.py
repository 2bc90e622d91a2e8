"""End-to-end tests of the command-line interface (in-process via main)."""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import daqft
from daqft import cli
from daqft.cli import main
from daqft.daqc import solve_times
from daqft.ising import IsingSpec


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
        """The manifest times each (protocol, n); banged cells carry their negative segments."""
        out = tmp_path / "run.csv"
        args = ["sweep-beta", "--protocols", "dqc,bdaqc", "--qubits", "3,5", "--beta-points", "2",
                "--shots", "3", "--seed", "0"]
        assert run(args + ["--out", out]) == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        cells = manifest["cells"]
        assert [(c["protocol"], c["n_qubits"]) for c in cells] == [
            ("dqc", 3), ("dqc", 5), ("bdaqc", 3), ("bdaqc", 5)
        ]
        for cell in cells:
            assert cell["wall_s"] > 0
            # two beta points of three shots each
            assert cell["shots_per_s"] == pytest.approx(6 / cell["wall_s"])
            if cell["protocol"] == "bdaqc":
                program = daqft.compile_qft_daqc(cell["n_qubits"], "banged")
                assert cell["negative_segments"] == program.metadata["negative_segments"]
            else:
                assert "negative_segments" not in cell
        assert sum(c["wall_s"] for c in cells) <= manifest["wall_s"]
        # Timing the cells leaves the CSV as the library writes it.
        records = daqft.sweep_beta(["dqc", "bdaqc"], [3, 5], daqft.default_beta_grid(2), 3,
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

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"tqgn_is_std": "false"}, "tqgn_is_std"),
            ({"sqgn": "0.1"}, "sqgn"),
            ({"seed": True}, "seed"),
            ({"delta_t": float("nan")}, "delta_t"),
        ],
        ids=["tqgn_is_std-string", "sqgn-string", "seed-bool", "delta_t-nan"],
    )
    def test_invalid_config_value(self, tmp_path, capsys, payload, key):
        """Config values of the wrong type, or a non-finite delta_t, exit with code 2."""
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps(payload))
        out = tmp_path / "x.csv"
        rc = run(["sweep-beta", "--qubits", "2", "--shots", "1", "--noise-config", noise, "--out", out])
        assert rc == 2
        assert key in capsys.readouterr().err
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
        """Scaling noise makes no sense without a noise config."""
        rc = run(
            [
                "sweep-error-scale",
                "--qubits", "2",
                "--scales", "1",
                "--ideal",
                "--out", tmp_path / "x.csv",
            ]
        )
        assert rc == 2
        assert "drop --ideal" in capsys.readouterr().err

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

    def test_zero_target(self, tmp_path, capsys):
        """An empty coupling target compiles to all-zero durations."""
        target = tmp_path / "zero.txt"
        target.write_text("# no couplings\n")
        rc = run(["compile", "--qubits", "3", "--target", target])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [float(line.split()[3]) for line in lines[:3]] == [0.0, 0.0, 0.0]

    def test_banged_mode(self, tmp_path):
        """Banged compilation accepts a window width."""
        out = tmp_path / "schedule.txt"
        rc = run(
            [
                "compile",
                "--qubits", "3",
                "--target", "qft-block:2",
                "--mode", "banged",
                "--delta-t", "0.001",
                "--out", out,
            ]
        )
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 3

    @pytest.mark.parametrize("delta_t", ["nan", "inf"])
    def test_non_finite_delta_t_rejected(self, capsys, delta_t):
        """A banged window width that is not a finite positive number exits 2."""
        args = ["compile", "--qubits", "3", "--target", "qft-block:1", "--mode", "banged"]
        assert run(args + ["--delta-t", delta_t]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite delta_t > 0" in captured.err

    def test_malformed_coupling_file(self, tmp_path, capsys):
        """Bad lines are reported with their location, exit 2."""
        target = tmp_path / "bad.txt"
        target.write_text("1 2 0.5\n1 3\n")
        rc = run(["compile", "--qubits", "3", "--target", target])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

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
