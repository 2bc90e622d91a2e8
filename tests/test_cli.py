"""End-to-end tests of the command-line interface (in-process via main)."""

import hashlib
import json

import numpy as np
import pytest

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
    """CSV bytes of fixed-seed runs, pinned so refactors cannot change them."""

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
