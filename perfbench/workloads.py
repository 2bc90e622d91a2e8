"""The three benchmark workloads, each one pass at a time.

A pass drives daqft through its public entry points, mostly ``daqft.cli.main``
with generated argv, and verifies every output it produces.  Inputs come from
the workload seed alone: the noise seed, the error-scale grid, the random
coupling targets and the coupling files.  ``daqft sweep-beta`` takes only a
point count, so its beta grid is the evenly spaced one and the seed reaches
those sweeps as the noise seed.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import daqft
from daqft import cli

PROTOCOLS = ("dqc", "sdaqc", "bdaqc")
LABELS = {"dqc": "DQC", "sdaqc": "sDAQC", "bdaqc": "bDAQC"}

# Tolerances are the ones the acceptance tests use.
EXACT_TOL = 1e-9  # compiler exactness, stepwise QFT, ideal DQC/sDAQC fidelity
DIGITAL_TOL = 1e-10  # ZZ-construction circuit against the QFT matrix
BANGED_FLOOR = 0.90  # ideal bDAQC fidelity lies in (0.90, 1)
NN_TOL = 1e-9  # line-simulates-all-to-all dense distance

# Pass sizes.  "full" is what the benchmark times; "smoke" only checks that
# every metric is produced.
SIZES = {
    "full": {
        # Budget in shots, not beta points: the acceptance fixture runs 100
        # shots per cell, and shot batching amortizes over a cell's shots.
        "mc-paper": {"qubits": "5,6,7", "beta_points": 1, "shots": 16},
        "mc-small": {"qubits": "3", "scales": 4, "shots": 50},
        "ideal-verify": {
            "exact_sizes": (3, 5, 6),
            "targets": 2,
            "qft_sizes": (3, 5),
            "ladder": (1e-2, 1e-3, 1e-4),
            "sweep_qubits": "3,5,6",
            "beta_points": 5,
            "compile_sizes": (3, 5, 6),
            "nn_size": 6,
        },
    },
    "smoke": {
        "mc-paper": {"qubits": "5,6,7", "beta_points": 1, "shots": 1},
        "mc-small": {"qubits": "3", "scales": 2, "shots": 2},
        "ideal-verify": {
            "exact_sizes": (3,),
            "targets": 1,
            "qft_sizes": (3,),
            "ladder": (1e-2, 1e-3, 1e-4),
            "sweep_qubits": "3",
            "beta_points": 1,
            "compile_sizes": (3,),
            "nn_size": 4,
        },
    },
}


class Checks:
    """Counts correctness checks; keeps a message for each that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


@dataclass
class Pass:
    """What one pass produced and how long its parts took."""

    wall_s: float = 0.0
    outputs: dict[str, bytes] = field(default_factory=dict)
    shots: dict[str, tuple[int, float]] = field(default_factory=dict)  # protocol -> (shots, s)
    unitaries: tuple[int, float] = (0, 0.0)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and captured stdout of one ``daqft`` invocation."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def read_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class Workload:
    """One workload: run_pass(seed) does a full verified pass in ``workdir``."""

    def __init__(self, name: str, profile: str, workdir: Path, checks: Checks) -> None:
        self.name = name
        self.size = SIZES[profile][name]
        self.workdir = workdir
        self.checks = checks

    def run_pass(self, seed: int) -> Pass:
        result = Pass()
        start = perf_counter()
        getattr(self, self.name.replace("-", "_"))(seed, result)
        result.wall_s = perf_counter() - start
        return result

    def _sweep(self, result: Pass, protocol: str, argv: list[str], out: str) -> list[dict]:
        """Run one protocol's sweep, timing only its CLI invocation."""
        path = self.workdir / out
        start = perf_counter()
        code, _ = run_cli(argv + ["--protocols", protocol, "--workers", "1", "--out", str(path)])
        elapsed = perf_counter() - start
        self.checks(code == 0, f"{out}: daqft exit code {code}")
        data = path.read_bytes()
        result.outputs[out] = data
        rows = read_rows(data.decode())
        ok = all(row["protocol"] == LABELS[protocol] for row in rows)
        self.checks(ok and rows, f"{out}: rows missing or of another protocol")
        result.shots[protocol] = (sum(int(row["shots"]) for row in rows), elapsed)
        return rows

    def mc_paper(self, seed: int, result: Pass) -> None:
        """Noisy beta sweep per protocol at n = 5, 6, 7, then the plot."""
        size = self.size
        cells = len(size["qubits"].split(",")) * size["beta_points"]
        tables = []
        for protocol in PROTOCOLS:
            argv = ["sweep-beta", "--qubits", size["qubits"], "--shots", str(size["shots"]),
                    "--beta-points", str(size["beta_points"]), "--seed", str(seed)]
            rows = self._sweep(result, protocol, argv, f"beta-{protocol}.csv")
            self.checks(len(rows) == cells, f"mc-paper {protocol}: {len(rows)} rows, expected {cells}")
            self.checks(
                all(int(r["shots"]) == size["shots"] and int(r["seed"]) == seed
                    and 0.0 <= float(r["mean_fidelity"]) <= 1.0 for r in rows),
                f"mc-paper {protocol}: row with wrong shots, seed or fidelity",
            )
            tables.append(result.outputs[f"beta-{protocol}.csv"].decode())
        combined = self.workdir / "beta-all.csv"
        combined.write_text(tables[0] + "".join(t.split("\n", 1)[1] for t in tables[1:]))
        svg = self.workdir / "beta-all.svg"
        code, _ = run_cli(["plot", "--in", str(combined), "--x", "beta", "--out", str(svg)])
        self.checks(code == 0, f"plot exit code {code}")
        data = svg.read_bytes()
        result.outputs["beta-all.svg"] = data
        text = data.decode()
        self.checks(
            text.startswith("<svg") and all(f">{label}</text>" in text for label in LABELS.values()),
            "plot: SVG lacks a protocol series",
        )

    def mc_small(self, seed: int, result: Pass) -> None:
        """Noisy error-scale sweep of DQC and sDAQC at n = 3, scale 0 included."""
        size = self.size
        rng = np.random.default_rng(seed)
        scales = [0.0] + sorted(float(x) for x in rng.uniform(0.25, 2.0, size["scales"] - 1))
        scale_arg = ",".join(f"{s:.6f}" for s in scales)
        for protocol in ("dqc", "sdaqc"):
            argv = ["sweep-error-scale", "--qubits", size["qubits"], "--scales", scale_arg,
                    "--shots", str(size["shots"]), "--seed", str(seed)]
            rows = self._sweep(result, protocol, argv, f"scale-{protocol}.csv")
            self.checks(len(rows) == len(scales), f"mc-small {protocol}: {len(rows)} rows")
            for row in rows:
                if float(row["error_scale"]) == 0.0:
                    mean, std = float(row["mean_fidelity"]), float(row["std_fidelity"])
                    self.checks(
                        abs(1.0 - mean) <= EXACT_TOL and std <= EXACT_TOL,
                        f"mc-small {protocol}: scale-0 fidelity {mean} (std {std}) is not 1",
                    )
                else:
                    self.checks(0.0 <= float(row["mean_fidelity"]) <= 1.0, "fidelity outside [0, 1]")

    def ideal_verify(self, seed: int, result: Pass) -> None:
        """The noiseless oracle path: dense unitaries, compiler, ideal sweep, nn2ata."""
        size = self.size
        check = self.checks
        rng = np.random.default_rng(seed)

        start = perf_counter()
        built = 0
        for n in size["exact_sizes"]:
            for _ in range(size["targets"]):
                couplings = {pair: float(rng.normal()) for pair in daqft.all_pairs(n)}
                target = daqft.IsingSpec(n, couplings, target_time=float(rng.uniform(0.2, 2.0)))
                schedule = daqft.build_sdaqc_schedule(daqft.solve_times(target))
                unitary = daqft.program_unitary(daqft.schedule_program(schedule))
                ideal = np.diag(np.exp(1j * target.target_time * daqft.coupling_diagonal(target)))
                distance = daqft.phase_insensitive_distance(unitary, ideal)
                check(distance < EXACT_TOL, f"compiler exactness n={n}: distance {distance:.3e}")
                built += 1
        for n in size["qft_sizes"]:
            reference = daqft.qft_matrix(n)
            for protocol in PROTOCOLS:
                unitary = daqft.program_unitary(daqft.build_protocol_program(protocol, n))
                built += 1
                if protocol == "bdaqc":
                    overlap = abs(np.trace(unitary.conj().T @ reference)) / len(reference)
                    check(BANGED_FLOOR < overlap ** 2 < 1.0,
                          f"bDAQC unitary n={n}: process fidelity {overlap ** 2:.9f}")
                else:
                    tol = DIGITAL_TOL if protocol == "dqc" else EXACT_TOL
                    distance = daqft.phase_insensitive_distance(unitary, reference)
                    check(distance < tol, f"{protocol} unitary n={n}: distance {distance:.3e}")
        stepwise = daqft.program_unitary(daqft.compile_qft_daqc(3, "stepwise"))
        previous = math.inf
        for delta_t in size["ladder"]:
            banged = daqft.program_unitary(daqft.compile_qft_daqc(3, "banged", delta_t))
            distance = daqft.phase_insensitive_distance(banged, stepwise)
            check(distance < previous / 3, f"banged ladder dt={delta_t}: distance {distance:.3e}")
            previous = distance
        check(previous < 1e-2, f"banged ladder ends at distance {previous:.3e}")
        result.unitaries = (built + 1 + len(size["ladder"]), perf_counter() - start)

        for n in size["compile_sizes"]:
            couplings = {pair: float(rng.normal()) for pair in daqft.all_pairs(n)}
            coupling_file = self.workdir / f"couplings-n{n}.txt"
            coupling_file.write_text("".join(f"{j} {k} {g!r}\n" for (j, k), g in couplings.items()))
            expected = daqft.solve_times(daqft.IsingSpec(n, couplings))
            for mode in ("stepwise", "banged"):
                dump = self.workdir / f"compile-n{n}-{mode}.txt"
                code, out = run_cli(["compile", "--qubits", str(n), "--target", str(coupling_file),
                                     "--mode", mode, "--out", str(dump)])
                check(code == 0, f"compile n={n} {mode}: exit code {code}")
                data = dump.read_bytes()
                result.outputs[dump.name] = data
                times = [float(line.split()[3]) for line in data.decode().splitlines()]
                residual = float(out.split()[-1])
                check(residual <= 1e-10 and np.allclose(times, expected, rtol=1e-10, atol=1e-12),
                      f"compile n={n} {mode}: residual {residual:.3e} or durations differ")

        for protocol in PROTOCOLS:
            argv = ["sweep-beta", "--ideal", "--qubits", size["sweep_qubits"],
                    "--beta-points", str(size["beta_points"]), "--seed", str(seed)]
            for row in self._sweep(result, protocol, argv, f"ideal-{protocol}.csv"):
                value = float(row["mean_fidelity"])
                if protocol == "bdaqc":
                    check(BANGED_FLOOR < value < 1.0, f"ideal bDAQC fidelity {value}")
                else:
                    check(abs(1.0 - value) <= EXACT_TOL, f"ideal {protocol} fidelity {value}")

        paths = self.workdir / "nn2ata-paths.txt"
        code, out = run_cli(["nn2ata", "--size", str(size["nn_size"]), "--out", str(paths)])
        result.outputs[paths.name] = paths.read_bytes()
        verdict = [line.split() for line in out.splitlines() if line.startswith("dense-verification")]
        check(code == 0 and "edge-cover PASS" in out, f"nn2ata exit code {code}")
        check(
            len(verdict) == 1 and verdict[0][1] == "PASS" and float(verdict[0][3]) < NN_TOL,
            f"nn2ata dense verification: {verdict}",
        )
