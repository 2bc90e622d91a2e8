"""Span tracing of daqft from outside the package.

The tracer replaces, for the duration of a traced pass, every public function
of the daqft modules under each name a caller binds it to (``daqft.noise``
holds its own ``execute_program`` binding, for instance), the ``noisy_apply``
and ``ideal_apply`` methods of every instruction class, and
``Statevector.__post_init__``.  Nothing under ``src/daqft`` changes.

Spans are kept in flat in-memory arrays (name, parent, start, end) and are
aggregated or written out only after the traced passes end.  What a span
itself costs is measured on empty spans and taken out of self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "noise", "program", "daqc", "qft", "statevector", "ising", "nn2ata", "plotting")

# Instruction classes grouped into the kernels the per-layer metrics name.
KERNELS = {
    "Rotation": "program.single_qubit",
    "HadamardGate": "program.single_qubit",
    "XGate": "program.single_qubit",
    "Entangler": "program.entangler",
    "ControlledPhase": "program.controlled_phase",
    "AnalogBlock": "program.analog_block",
    "BangedWindow": "program.banged_window",
    "Permute": "program.permute",
}

ROOT_SPAN = "bench.pass"


class Tracer:
    """Flat span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self._open_names = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.passes: list[tuple[int, int]] = []  # [first, last) span index of each pass
        # Seconds one span adds outside its own stamps (paid in its parent's
        # self time) and inside them (paid in its own); see calibrate().
        self.outer_s = 0.0
        self.inner_s = 0.0
        self._costs: list[tuple[float, float]] = []  # (outer, inner) per calibration round

    def name_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def call(self, sid: int, fn, args, kwargs):
        # A span directly inside one of the same name (ideal_apply calling
        # noisy_apply, a function reached through two bindings) is not a new call.
        if self._open_names[-1] == sid:
            return fn(*args, **kwargs)
        index = len(self.start)
        self.name.append(sid)
        self.parent.append(self._open[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._open.append(index)
        self._open_names.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = perf_counter()
            self._open.pop()
            self._open_names.pop()

    def run_pass(self, run):
        """Call run() traced, under a root span; its spans form one pass."""
        first = len(self.start)
        self.install()
        try:
            return self.call(self.name_id(ROOT_SPAN), run, (), {})
        finally:
            self.uninstall()
            self.passes.append((first, len(self.start)))

    def span(self, name: str, fn):
        sid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(sid, fn, args, kwargs)

        return traced

    def _kernel(self, kernel: str, fn):
        ids: dict[int, int] = {}

        @functools.wraps(fn)
        def traced(instr, amps, n, *args, **kwargs):
            sid = ids.get(n)
            if sid is None:
                sid = ids[n] = self.name_id(f"{kernel}#n{n}")
            return self.call(sid, fn, (instr, amps, n) + args, kwargs)

        return traced

    def _make_sampler(self, fn):
        """make_sampler's closure is the per-instruction sampler: trace it too."""
        sid = self.name_id("noise.make_sampler")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span("noise.sampler", self.call(sid, fn, args, kwargs))

        return traced

    def calibrate(self, calls: int = 20000, repeats: int = 7) -> None:
        """Time empty spans against bare calls of the same empty function.

        A traced call adds (traced - bare) / calls seconds.  The part between
        the span's stamps lands in the span's own self time; the rest (the
        wrapper call, the stores, the stack pushes and pops) lands in its
        parent's.  Each of ``repeats`` rounds uses a throwaway tracer; the
        costs are medians over every round this tracer has measured, so
        calibrating again between traced passes outvotes a round that a
        host stall slowed.
        """

        def empty(*args, **kwargs):
            return None

        for _ in range(repeats):
            probe = Tracer()
            traced = probe.span("probe", empty)
            start = perf_counter()
            for _ in range(calls):
                empty(None, None, 0)
            bare = perf_counter() - start
            start = perf_counter()
            for _ in range(calls):
                traced(None, None, 0)
            total = perf_counter() - start - bare
            _, _, begin, end = probe.arrays()
            covered = float(np.sum(end - begin))
            self._costs.append(((total - covered) / calls, covered / calls))
        self.outer_s = statistics.median(outer for outer, _ in self._costs)
        self.inner_s = statistics.median(inner for _, inner in self._costs)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every public daqft function under every binding, and the kernels."""
        modules = [importlib.import_module("daqft")]
        modules += [importlib.import_module(f"daqft.{layer}") for layer in LAYERS]
        wrapped: dict[object, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("daqft.") or layer not in LAYERS:
                    continue
                if obj not in wrapped:
                    if obj.__module__ == "daqft.noise" and obj.__name__ == "make_sampler":
                        wrapped[obj] = self._make_sampler(obj)
                    else:
                        wrapped[obj] = self.span(f"{layer}.{obj.__name__}", obj)
                self._patch(module, attr, wrapped[obj])
        program = importlib.import_module("daqft.program")
        for cls_name, kernel in KERNELS.items():
            cls = getattr(program, cls_name)
            for method in ("noisy_apply", "ideal_apply"):
                self._patch(cls, method, self._kernel(kernel, vars(cls)[method]))
        statevector = importlib.import_module("daqft.statevector").Statevector
        self._patch(
            statevector, "__post_init__", self.span("statevector.Statevector", statevector.__post_init__)
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """(names, parent, start, end) of every recorded span as numpy arrays."""
        return (
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def write(self, path) -> None:
        """Every span, with the name table, as a compressed numpy archive."""
        name, parent, start, end = self.arrays()
        np.savez_compressed(
            path, name=name, parent=parent, start=start, end=end, names=json.dumps(self.names)
        )


def pass_profiles(tracer: Tracer) -> list[dict[str, tuple[int, float, float]]]:
    """Per traced pass: span name -> (calls, inclusive seconds, self seconds).

    Self time is a span's duration minus the durations of its direct
    children (spans nest strictly because the workloads run on one thread),
    minus the tracer's own cost: ``inner_s`` for the span and ``outer_s``
    for each direct child.  A same-name call inside a span (ideal_apply
    calling noisy_apply) opens no span and its small wrapper cost stays in.
    """
    name, parent, start, end = tracer.arrays()
    duration = end - start
    has_parent = parent >= 0
    size = len(duration)
    child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=size)
    children = np.bincount(parent[has_parent], minlength=size)
    own = duration - child - children * tracer.outer_s - tracer.inner_s
    profiles = []
    for first, last in tracer.passes:
        ids = name[first:last]
        count = np.bincount(ids, minlength=len(tracer.names))
        incl = np.bincount(ids, weights=duration[first:last], minlength=len(tracer.names))
        excl = np.bincount(ids, weights=own[first:last], minlength=len(tracer.names))
        profiles.append(
            {
                tracer.names[sid]: (int(count[sid]), float(incl[sid]), float(excl[sid]))
                for sid in np.flatnonzero(count)
            }
        )
    return profiles


def span_metrics(profiles) -> dict[str, float]:
    """Per-layer metrics from per-pass profiles; times are medians over passes.

    For each span name: calls (first pass), self_s, share of the traced pass
    wall time, and inclusive us_per_call / ms_per_call.  Kernel spans carry a
    '#n<k>' register-size tag; they are summed per kernel, and their inclusive
    time per call is also reported per tag as us_per_call.n<k>.
    """
    merged = []
    for profile in profiles:
        totals: dict[str, tuple] = {}
        for name, stats in profile.items():
            base = name.partition("#")[0]
            totals[base] = tuple(a + b for a, b in zip(totals.get(base, (0, 0.0, 0.0)), stats))
        merged.append(totals)

    def median(fn, passes=merged) -> float:
        return statistics.median(fn(p) for p in passes)

    def per_call(name):
        return lambda p: p[name][1] / p[name][0] if name in p else 0.0

    wall = median(lambda p: p[ROOT_SPAN][1])
    metrics = {"trace.wall_s": wall, "trace.spans": sum(c for c, _, _ in profiles[0].values())}
    for name in set().union(*merged) - {ROOT_SPAN}:
        self_s = median(lambda p: p.get(name, (0, 0.0, 0.0))[2])
        metrics[f"{name}.calls"] = merged[0].get(name, (0,))[0]
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.share"] = self_s / wall
        metrics[f"{name}.us_per_call"] = median(per_call(name)) * 1e6
        metrics[f"{name}.ms_per_call"] = median(per_call(name)) * 1e3
    for name in {n for p in profiles for n in p if "#" in n}:
        base, _, tag = name.partition("#")
        metrics[f"{base}.us_per_call.{tag}"] = median(per_call(name), profiles) * 1e6
    for layer in LAYERS:
        own = median(lambda p: sum(v[2] for k, v in p.items() if k.startswith(layer + ".")))
        metrics[f"{layer}.share"] = own / wall
    return metrics
