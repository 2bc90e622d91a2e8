"""Command-line front end: sweeps to CSV, schedule compiler, connectivity tools.

Exit codes: 0 success, 1 runtime or verification failure, 2 invalid input.
Every CSV is written next to a .manifest.json recording the resolved
configuration, so a run can be reproduced bit-exactly (modulo timestamp).
"""

from __future__ import annotations

import argparse
import codecs
import functools
import json
import os
import platform
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .daqc import (
    DEFAULT_DELTA_T,
    build_sdaqc_schedule,
    schedule_dump,
    solve_residual,
    solve_times,
)
from .ising import IsingSpec
from .noise import (
    ERROR_SCALE_BETA,
    PROTOCOLS,
    NoiseConfig,
    config_to_dict,
    default_beta_grid,
    load_noise_config,
    records_to_csv,
    sweep_beta,
    sweep_error_scale,
)
from .nn2ata import cover_report, paths_dump, verify_nn_simulates_ata
from .plotting import X_FIELDS, plot_csv
from .qft import qft_block_target


def _reject_repeats(values: list, noun: str, text: str) -> list:
    """The values, unless one repeats: its cells would run twice and write duplicate rows."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"repeated {noun} {value!r} in {text!r}")
    return values


def _parse_protocols(text: str) -> list[str]:
    names = [item.strip().lower() for item in text.split(",") if item.strip()]
    if not names:
        raise ValueError("no protocols given")
    for name in names:
        if name not in PROTOCOLS:
            raise ValueError(f"unknown protocol {name!r}; choose from {', '.join(PROTOCOLS)}")
    return _reject_repeats(names, "protocol", text)


def _parse_list(text: str, kind, noun: str) -> list:
    """Distinct comma-separated values converted by kind; noun names them in errors."""
    try:
        values = [kind(item) for item in text.split(",") if item.strip()]
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated {noun} list, got {text!r}") from exc
    if not values:
        raise ValueError(f"empty {noun} list")
    return _reject_repeats(values, noun, text)


def _resolve_noise(args) -> tuple[NoiseConfig, float]:
    """Noise config and delta_t from the --noise-config and --seed flags."""
    delta_t = DEFAULT_DELTA_T
    config = NoiseConfig()
    if args.noise_config is not None:
        config, file_delta_t = load_noise_config(args.noise_config)
        if file_delta_t is not None:
            delta_t = file_delta_t
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config, delta_t


def _run_sweep(args, sweep, grid, settings: dict, ideal: bool = False) -> int:
    """Run one sweep from the flags both sweeps share; write its CSV and a manifest.

    settings are this sweep's own manifest entries; ideal runs one noiseless shot per cell.
    """
    protocols = _parse_protocols(args.protocols)
    qubits = _parse_list(args.qubits, int, "integer")
    config, delta_t = _resolve_noise(args)
    seed, shots = config.seed, 1 if ideal else args.shots
    config = None if ideal else config  # --ideal disables noise
    # --out opens before the sweep, so a bad path fails before any work.  A
    # failed sweep removes the file if it made it and leaves an old one as it was.
    # A pipe or device cannot be cut and rewritten at the end, nor take a manifest.
    created = not os.path.exists(args.out)
    if not (created or os.path.isfile(args.out)):
        raise ValueError(f"--out {args.out} exists and is not a regular file")
    with open(args.out, "a", encoding="utf-8", newline="") as handle:
        start = time.perf_counter()
        cells = []
        try:
            records = sweep(protocols, qubits, grid, shots, config, delta_t, args.workers, cells=cells)
        except BaseException:
            if created:
                os.remove(args.out)
            raise
        wall_s = time.perf_counter() - start
        handle.truncate(0)
        handle.write(records_to_csv(records))
    manifest = {
        "command": args.command,
        "version": __version__,
        "seed": seed,
        "wall_s": wall_s,
        "shots_per_s": sum(record.shots for record in records) / wall_s,
        "cells": cells,
        "config": {
            "protocols": protocols,
            "qubits": qubits,
            "shots": shots,
            "workers": args.workers,
            "noise": None if config is None else config_to_dict(config, delta_t),
            "delta_t": delta_t,
            **settings,
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def _cmd_sweep_beta(args) -> int:
    grid = default_beta_grid(args.beta_points)
    settings = {"beta_points": args.beta_points, "ideal": args.ideal}
    return _run_sweep(args, sweep_beta, grid, settings, ideal=args.ideal)


def _cmd_sweep_error_scale(args) -> int:
    # + 0.0 turns -0.0 into 0.0, which the manifest would print as -0.0
    scales = [scale + 0.0 for scale in _parse_list(args.scales, float, "number")]
    return _run_sweep(args, sweep_error_scale, scales, {"scales": scales, "beta": ERROR_SCALE_BETA})


def _write_or_print(text: str, out) -> None:
    """Write text to the --out path, or to stdout when there is none."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_coupling_file(path, n_qubits: int, target_time: float) -> IsingSpec:
    """Coupling file: one `j k g_jk` line per pair (1-based, j < k), each checked as it is read."""
    register = IsingSpec(n_qubits, target_time=target_time)
    couplings: dict[tuple[int, int], float] = {}
    with open(path, "rb") as handle:  # lines end in \n, \r\n or \r, as in text mode
        text = handle.read().removeprefix(codecs.BOM_UTF8)  # skips a leading BOM
        for line_no, raw in enumerate(text.splitlines(), start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not UTF-8 text: {exc}") from None
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{line_no}: expected 'j k g_jk', got {line!r}")
            try:
                j, k, g = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: malformed values in {line!r}") from exc
            if (j, k) in couplings:
                raise ValueError(f"{path}:{line_no}: duplicate pair ({j}, {k})")
            try:
                replace(register, couplings={(j, k): g})
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            couplings[(j, k)] = g
    return replace(register, couplings=couplings)


def _cmd_compile(args) -> int:
    n = args.qubits
    if args.target.startswith("qft-block:"):
        try:
            m = int(args.target.split(":", 1)[1])
        except ValueError:
            raise ValueError(
                f"--target qft-block:<m> needs an integer block index m, got {args.target!r}"
            ) from None
        target = replace(qft_block_target(n, m), target_time=args.target_time)
    else:
        target = _load_coupling_file(args.target, n, args.target_time)
    times = solve_times(target)
    # The dump lists block durations only, so both modes print this schedule.
    _write_or_print(schedule_dump(build_sdaqc_schedule(times)), args.out)
    print(f"residual {solve_residual(target, times):.3e}")
    return 0


def _cmd_nn2ata(args) -> int:
    report = cover_report(args.size)
    _write_or_print(paths_dump(report.paths), args.out)
    print(f"paths {len(report.paths)}")
    if report.covered:
        print("edge-cover PASS")
    else:
        print(f"edge-cover FAIL offending-edge {report.offending_edge}")
        return 1
    if args.size <= 6:
        sim = verify_nn_simulates_ata(args.size)
        verdict = "PASS" if sim.passed else "FAIL"
        print(f"dense-verification {verdict} distance {sim.distance:.3e}")
        if not sim.passed:
            return 1
    else:
        print("dense-verification SKIPPED (L > 6)")
    return 0


def _cmd_plot(args) -> int:
    plot_csv(args.infile, args.x, args.out)
    return 0


def _add_sweep_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--protocols", default="dqc,sdaqc,bdaqc", help="comma list: dqc,sdaqc,bdaqc")
    parser.add_argument("--qubits", required=True, help="comma list of register sizes")
    parser.add_argument("--shots", type=int, default=1000, help="noise shots per grid point")
    parser.add_argument("--noise-config", default=None, help="JSON noise config path")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="shot batches per (protocol, n), run in turn; a block holds ceil(shots/workers) "
        "shots of every grid point (records equal bit for bit at any value)",
    )
    parser.add_argument("--out", required=True, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daqft",
        description="Digital-analog QFT experiments: sweeps, schedule compiler, connectivity tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser("sweep-beta", help="fidelity vs input-state angle beta")
    _add_sweep_common(sweep)
    sweep.add_argument("--beta-points", type=int, default=21, help="grid points across [0, pi]")
    sweep.add_argument("--ideal", action="store_true", help="disable noise (single shot)")
    sweep.set_defaults(func=_cmd_sweep_beta)

    scale = commands.add_parser("sweep-error-scale", help="fidelity vs noise scale at beta=pi/4")
    _add_sweep_common(scale)
    scale.add_argument("--scales", required=True, help="comma list of error scales")
    scale.set_defaults(func=_cmd_sweep_error_scale)

    compile_cmd = commands.add_parser("compile", help="solve analog-block durations for a target")
    compile_cmd.add_argument("--qubits", type=int, required=True)
    compile_cmd.add_argument(
        "--target", required=True, help="coupling file path or qft-block:<m>"
    )
    compile_cmd.add_argument("--mode", choices=("stepwise", "banged"), default="stepwise",
                             help="schedule kind; both give the same dump")
    compile_cmd.add_argument("--target-time", type=float, default=1.0, help="time the target acts for")
    compile_cmd.add_argument("--out", default=None, help="write the dump here instead of stdout")
    compile_cmd.set_defaults(func=_cmd_compile)

    nn = commands.add_parser("nn2ata", help="complete-graph path cover and line-simulation check")
    nn.add_argument("--size", type=int, required=True, help="number of vertices L")
    nn.add_argument("--out", default=None, help="write the path dump here instead of stdout")
    nn.set_defaults(func=_cmd_nn2ata)

    plot = commands.add_parser("plot", help="render a sweep CSV as an SVG line plot")
    plot.add_argument("--in", dest="infile", required=True, help="input CSV path")
    plot.add_argument("--x", choices=X_FIELDS, required=True, help="x-axis column")
    plot.add_argument("--out", required=True, help="output SVG path")
    plot.set_defaults(func=_cmd_plot)
    return parser


# main's parser, built once per process: parsing leaves it as it was.
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NotImplementedError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
