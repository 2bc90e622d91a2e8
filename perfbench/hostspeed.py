"""How fast the host runs right now, from a fixed reference job.

On a shared host the same pass can run 1.5x slower for minutes at a time,
while the guest reports no steal time and CPU time slows as much as wall
time.  Medians over one run cannot remove a slowdown that lasts longer than
the run.  So the benchmark runs a fixed reference job around every pass and
every set-up probe, and reports times at the host speed on which the
benchmark was defined: measured time / slowdown, where slowdown is the
reference job's time over ``REFERENCE_S``.

The reference job does the kind of work daqft does per shot and per kernel
call (Python-level bookkeeping and gate kernels on a 64-amplitude complex
state), but it calls nothing in daqft, so a change to daqft cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds one reference_unit() took, the median of 60 in a row, on the shared
# 2-core x86_64 VM (Intel Xeon, 2.1 GHz) the benchmark was defined on, with
# one BLAS thread.  It only fixes the scale of reported times.
REFERENCE_S = 0.0407

_rng = np.random.default_rng(20190618)
_STATE = _rng.normal(size=64) + 1j * _rng.normal(size=64)
_PHASES = np.exp(1j * _rng.uniform(0.0, 2.0 * np.pi, size=64))
_GATE = np.array([[0.6, 0.8j], [0.8j, 0.6]])


def reference_unit() -> float:
    """One fixed unit of reference work; returns a value so nothing is skipped."""
    total, table = 0, {}
    for i in range(150_000):
        total += i * i % 7
        table[i & 255] = total
    psi = _STATE
    for i in range(2_000):
        q = i % 6
        psi = np.einsum("ab,xbz->xaz", _GATE, psi.reshape(1 << q, 2, 32 >> q)).reshape(64)
        psi = psi * _PHASES
        if i % 5 == 0:
            psi = psi / np.linalg.norm(psi)
    return float(total) + float(abs(psi[0]))


def slowdown(min_s: float) -> float:
    """Mean time of reference units over at least ``min_s`` seconds (at least two
    units), over REFERENCE_S: above 1 means the host runs slower than nominal."""
    units = 0
    start = perf_counter()
    while units < 2 or perf_counter() - start < min_s:
        reference_unit()
        units += 1
    return (perf_counter() - start) / units / REFERENCE_S
