#!/usr/bin/env python3
"""daqft benchmark: one workload, timed for a fixed number of seconds.

    python3 perfbench/run.py --workload mc-paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; daqft is imported from ``src``.
With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  Times and rates are reported at
the reference host speed of hostspeed.py.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  The run's full
record (environment, per-pass timings, failed checks) and, for a traced run,
every span go to ``.perfbench-out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: on a 2-core shared host a second BLAS thread waits on
# whichever core is busy, and the workloads run from one process anyway.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("mc-paper", "mc-small", "ideal-verify")
REFERENCE_SEED = 0  # daqft's default noise seed; CSV digests are recorded at it
SETUP_REPEATS = 9
MIN_PASSES = 2
# Reference job (hostspeed.py) time: after each round of passes, this share
# of the round's time; before and after each set-up probe, this many seconds.
REFERENCE_SHARE = 0.25
SETUP_REFERENCE_S = 0.1

# A fresh process imports daqft and makes the first call of each paper path:
# a noisy shot, the duration compiler (inside it) and the nn2ata dense check.
SETUP_CODE = """\
import time
start = time.perf_counter()
import daqft
daqft.monte_carlo("bdaqc", 3, 0.0, 1, daqft.NoiseConfig())
daqft.verify_nn_simulates_ata(6)
print(time.perf_counter() - start)
"""


def sha256_table(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs.items())}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


def environment() -> dict:
    import numpy as np

    sources = sorted((SRC / "daqft").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_thread_env": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "machine": platform.machine(),
    }


def measure_setup() -> tuple[float, list[float], list[float]]:
    """Median time, in fresh processes, to import daqft and make a first call,
    at reference host speed; also the raw times and the slowdowns used."""
    from hostspeed import slowdown

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, slowdowns = [], []
    slowdown(0.0)  # warm-up: the first reference units run slow
    for _ in range(SETUP_REPEATS):
        before = slowdown(SETUP_REFERENCE_S)
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        times.append(float(child.stdout.split()[-1]))
        slowdowns.append((before + slowdown(SETUP_REFERENCE_S)) / 2)
    return statistics.median(t / s for t, s in zip(times, slowdowns)), times, slowdowns


def untraced(run):
    return run()


def run_passes(workload, seed: int, seconds: float, checks, modes=(untraced,)) -> tuple[list[list], list[float]]:
    """Rounds of passes at ``seed`` for about ``seconds`` (at least MIN_PASSES):
    no round starts within half a round of the deadline.

    Each round makes one pass per mode, in turn, so every mode sees the same
    host speed.  The reference job runs before the first round and after
    each, for a share of the round's time; a round's slowdown is the mean of
    the two around it.  Returns the passes of each mode and the slowdown of
    each round.  Every pass must reproduce the output bytes of the first.
    """
    from hostspeed import slowdown

    slowdown(0.0)  # warm-up: the first reference units run slow
    # Before the first round, as much reference time as after a 2 s round.
    rounds, between = [], [slowdown(REFERENCE_SHARE * 2.0)]
    deadline = perf_counter() + seconds
    round_s = 0.0
    while len(rounds) < MIN_PASSES or perf_counter() + round_s / 2 < deadline:
        start = perf_counter()
        rounds.append([mode(lambda: workload.run_pass(seed)) for mode in modes])
        between.append(slowdown(REFERENCE_SHARE * (perf_counter() - start)))
        round_s = perf_counter() - start
    first = rounds[0][0].outputs
    for number, round_ in enumerate(rounds, start=1):
        for mode, later in zip(modes, round_):
            if later is not rounds[0][0]:
                kind = "untraced" if mode is untraced else "traced"
                checks(later.outputs == first,
                       f"round {number} {kind} pass: output bytes differ from the first pass")
    slowdowns = [(a + b) / 2 for a, b in zip(between, between[1:])]
    return [list(passes) for passes in zip(*rounds)], slowdowns


def throughput(passes, slowdowns, protocol: str | None = None) -> float:
    """Median over passes of shots per second of sweep time, at reference
    host speed (0 if none ran)."""
    rates = []
    for p, slow in zip(passes, slowdowns):
        cells = [v for k, v in p.shots.items() if protocol in (None, k)]
        if cells:
            rates.append(slow * sum(s for s, _ in cells) / sum(t for _, t in cells))
    return statistics.median(rates) if rates else 0.0


def end_to_end(workload, seed: int, seconds: float, checks) -> tuple[dict, dict]:
    setup, setup_raw, setup_slowdowns = measure_setup()
    (passes,), slowdowns = run_passes(workload, seed, seconds, checks)
    metrics = {
        "wall_s": statistics.median(p.wall_s / slow for p, slow in zip(passes, slowdowns)),
        "shots_per_s": throughput(passes, slowdowns),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_slowdown": slowdowns,
        "setup_raw_s": setup_raw,
        "setup_slowdown": setup_slowdowns,
    }
    return metrics, detail


def per_layer(workload, seed: int, seconds: float, checks, spans_path: Path, declared) -> tuple[dict, dict]:
    from spans import Tracer, pass_profiles, span_metrics

    tracer = Tracer()
    tracer.calibrate()

    def traced_pass(run):
        result = tracer.run_pass(run)
        tracer.calibrate(repeats=2)
        return result

    (plain, traced), slowdowns = run_passes(
        workload, seed, seconds, checks, modes=(untraced, traced_pass)
    )
    profiles = pass_profiles(tracer)
    tracer.write(spans_path)
    calls = [{name: stats[0] for name, stats in p.items()} for p in profiles]
    checks(all(c == calls[0] for c in calls), "span call counts differ between traced passes")

    metrics = span_metrics(profiles)
    # Each traced pass against the untraced pass just before it, which ran at
    # nearly the same host speed.
    metrics["trace.overhead_frac"] = statistics.median(t.wall_s / p.wall_s for p, t in zip(plain, traced)) - 1.0
    metrics["trace.span_cost_us"] = (tracer.outer_s + tracer.inner_s) * 1e6
    metrics["unitaries_per_s"] = statistics.median(
        slow * p.unitaries[0] / p.unitaries[1] if p.unitaries[0] else 0.0
        for p, slow in zip(plain, slowdowns)
    )
    for protocol in ("dqc", "sdaqc", "bdaqc"):
        metrics[f"shots_per_s.{protocol}"] = throughput(plain, slowdowns, protocol)
    # A declared span this workload never enters made 0 calls in 0 s.
    absent = [m for m in declared if m not in metrics]
    detail = {
        "pass_wall_s": [p.wall_s for p in plain],
        "traced_pass_wall_s": [p.wall_s for p in traced],
        "round_slowdown": slowdowns,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_cost_us": {"outer": tracer.outer_s * 1e6, "inner": tracer.inner_s * 1e6},
        "absent_spans": absent,
        "all_metrics": metrics.copy(),
    }
    metrics.update(dict.fromkeys(absent, 0))
    return metrics, detail


def run(name: str, seed: int, seconds: float, trace: int, profile: str = "full") -> dict:
    """One benchmark run; returns the record printed and saved."""
    from workloads import Checks, Workload

    declared = declared_metrics(trace)
    OUT.mkdir(exist_ok=True)
    checks = Checks()
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    stem = f"{name}-seed{seed}-trace{trace}" + ("-smoke" if profile != "full" else "")
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "profile": profile, "environment": environment()}
    metrics = {}
    try:
        workload = Workload(name, profile, workdir, checks)
        reference = workload.run_pass(REFERENCE_SEED)
        digests = sha256_table(reference.outputs)
        record["reference_digests"] = digests
        recorded = json.loads((HERE / "digests.json").read_text())[profile][name]
        checks(digests == recorded, f"output digests at seed {REFERENCE_SEED} differ from digests.json")
        if trace:
            metrics, detail = per_layer(
                workload, seed, seconds, checks, OUT / f"{stem}.spans.npz", declared
            )
        else:
            metrics, detail = end_to_end(workload, seed, seconds, checks)
        record.update(detail)
    except Exception:  # the program under test failed: report it, do not crash
        traceback.print_exc()
        checks(False, "exception: " + traceback.format_exc(limit=1).strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m for m in declared if m not in metrics]
    if metrics and missing:
        raise ValueError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    record["failures"] = checks.failures
    record["summary"] = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in declared.items() if m in metrics},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def smoke() -> int:
    """Tiny passes of every workload in both modes; every declared metric must appear."""
    ok = True
    never_measured = set(declared_metrics(1))
    for name in WORKLOADS:
        for trace in (0, 1):
            record = run(name, 1, 0.0, trace, profile="smoke")
            summary = record["summary"]
            declared = declared_metrics(trace)
            emitted = summary["metrics"]
            good = summary["correct"] and sorted(emitted) == sorted(declared)
            print(f"smoke {name} trace={trace}: {'ok' if good else 'FAIL'} "
                  f"({len(emitted)}/{len(declared)} metrics, {summary['failed']} failed checks)")
            for failure in record["failures"]:
                print(f"  FAILED {failure}")
            ok = ok and good
            if trace:
                never_measured -= set(declared) - set(record.get("absent_spans", declared))
    if never_measured:
        print(f"smoke: per-layer metrics no workload measures: {sorted(never_measured)}")
    return 0 if ok and not never_measured else 1


def record_digests() -> int:
    """Rewrite digests.json from the reference pass of every workload and size."""
    from workloads import SIZES, Checks, Workload

    OUT.mkdir(exist_ok=True)
    table = {}
    for profile in SIZES:
        table[profile] = {}
        for name in WORKLOADS:
            workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
            try:
                outputs = Workload(name, profile, workdir, Checks()).run_pass(REFERENCE_SEED).outputs
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            table[profile][name] = sha256_table(outputs)
    (HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check every metric is emitted, tiny sizes")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json (only when output bytes change on purpose)")
    args = parser.parse_args()

    if not (SRC / "daqft" / "__init__.py").is_file():
        fail(f"no daqft sources under {SRC}; run from the root of a source checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json in {ROOT}")
    if args.seed < 0:
        fail("--seed must be >= 0")
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.smoke:
        return smoke()
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    record = run(args.workload, args.seed, args.seconds, args.trace)
    summary = record["summary"]
    print("env " + json.dumps(record["environment"], sort_keys=True))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, entry in summary["metrics"].items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
