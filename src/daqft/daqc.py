"""Digital-analog schedule compiler.

Turns an inhomogeneous all-to-all ZZ target into a sequence of analog blocks
of the homogeneous resource, conjugated by X pulses.  Durations come from the
sign-matrix linear system; the banged variant keeps the resource on during the
pulses and compensates with the caption timing rule (see build_bdaqc_schedule).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ising import IsingSpec, all_pairs
from .program import AnalogBlock, BangedWindow, HadamardGate, Program, Rotation, XGate, _constant
from .qft import qft_block_target, readout_instruction

# Default drive-window width for banged schedules.  The window error grows
# linearly with the width and with register size; 1e-4 keeps the ideal banged
# QFT above 0.90 fidelity through n = 7 with margin (worst case ~0.993).  At
# beta = 0.7 it reaches 0.980 at n = 8 and 0.939 at n = 9, and falls below the
# floor at n = 10 (0.844).
DEFAULT_DELTA_T = 1e-4

RESIDUAL_TOL = 1e-10


class SingularSignMatrixError(ValueError):
    """The N=4 sign matrix is singular; no analog-duration solution exists."""


def sign_matrix(n_qubits: int) -> np.ndarray:
    """M_{alpha,beta} = (-1)^{overlap} between the alpha-th and beta-th pairs.

    Two distinct pairs sharing exactly one qubit give -1; disjoint pairs and
    the diagonal give +1.  Singular exactly at N = 4.
    """
    if n_qubits < 2:
        raise ValueError(f"n_qubits must be >= 2, got {n_qubits}")
    return _sign_matrix(n_qubits)


@functools.lru_cache(maxsize=None)
def _sign_matrix(n_qubits: int) -> np.ndarray:  # read-only, built once per register size
    pairs = np.array(all_pairs(n_qubits))
    overlap = (pairs[:, None, :, None] == pairs[None, :, None, :]).sum(axis=(2, 3))
    return _constant(np.where(overlap % 2, -1, 1))


def coupling_vector(target: IsingSpec) -> np.ndarray:
    """Couplings g_jk flattened in alpha order."""
    return np.array([target.couplings.get(pair, 0.0) for pair in all_pairs(target.n_qubits)])


def solve_times(target: IsingSpec) -> np.ndarray:
    """Analog-block durations t_alpha with M t (g / t_F) = g_vec.

    Negative durations are legitimate solutions and are executed as
    negative-time evolutions.
    """
    n = target.n_qubits
    if n == 4:
        raise SingularSignMatrixError("singular sign matrix for N=4")
    if n < 2:
        raise ValueError(f"need at least 2 qubits to couple, got {n}")
    m = sign_matrix(n)
    g_vec = coupling_vector(target)
    times = np.linalg.solve(m, g_vec) * (target.target_time / target.resource_coupling)
    residual = _residual(m, target, times, g_vec)
    if residual > RESIDUAL_TOL:
        raise RuntimeError(f"time solver residual {residual:.3e} exceeds {RESIDUAL_TOL}")
    return times


def solve_residual(target: IsingSpec, times: np.ndarray) -> float:
    """Max-norm residual of the duration solution against the target couplings."""
    return _residual(sign_matrix(target.n_qubits), target, times, coupling_vector(target))


def _residual(m: np.ndarray, target: IsingSpec, times, g_vec: np.ndarray) -> float:
    if target.target_time == 0:
        raise ValueError("target_time must be nonzero: no durations give a coupling in zero time")
    lhs = m @ np.asarray(times) * (target.resource_coupling / target.target_time)
    return float(np.max(np.abs(lhs - g_vec)))


def _check_window(mode: str, delta_t: float | None) -> None:
    """Banged schedules need a finite, positive drive-window width."""
    if mode == "banged" and (delta_t is None or not (math.isfinite(delta_t) and delta_t > 0)):
        raise ValueError(f"banged mode requires a finite delta_t > 0, got {delta_t!r}")


@dataclass(frozen=True)
class DaqcSchedule:
    """Analog-block durations, one per conjugation pair in all_pairs order."""

    mode: str  # "stepwise" | "banged"
    times: tuple[float, ...]
    resource: IsingSpec
    delta_t: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("stepwise", "banged"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        _check_window(self.mode, self.delta_t)
        if not self.resource.is_homogeneous():
            raise ValueError("the analog resource must be homogeneous")
        times = tuple(float(t) for t in self.times)
        pairs = len(all_pairs(self.resource.n_qubits))
        if len(times) != pairs:
            raise ValueError(f"expected {pairs} durations for N={self.n_qubits}, got {len(times)}")
        object.__setattr__(self, "times", times)

    @property
    def n_qubits(self) -> int:
        return self.resource.n_qubits


def _unit_resource(item_count: int) -> IsingSpec:
    """The unit homogeneous resource on the register with item_count pairs."""
    n = (1 + math.isqrt(1 + 8 * item_count)) // 2
    if n * (n - 1) // 2 != item_count:
        raise ValueError(f"{item_count} durations do not form a full pair set")
    return IsingSpec.homogeneous(n)


def build_sdaqc_schedule(times: np.ndarray, resource: IsingSpec | None = None) -> DaqcSchedule:
    """Stepwise schedule: resource off while the conjugation pulses act."""
    if resource is None:
        resource = _unit_resource(len(times))
    return DaqcSchedule("stepwise", times, resource)


def build_bdaqc_schedule(
    times: np.ndarray, delta_t: float, resource: IsingSpec | None = None
) -> DaqcSchedule:
    """Banged schedule: resource stays on; X pulses become drive windows of delta_t."""
    if resource is None:
        resource = _unit_resource(len(times))
    return DaqcSchedule("banged", times, resource, delta_t=delta_t)


def banged_segment_durations(times, delta_t: float) -> list[float]:
    """Pure-analog stretch left of each block once drive windows eat into it.

    Interior blocks lose delta_t (half a window on each side); the first and
    last lose (3/2) delta_t because the outermost windows sit fully inside
    them.  A single-block schedule loses 2 delta_t for the same reason.  The
    result may be negative; it is executed as-is.
    """
    count = len(times)
    charges = [2.0 * delta_t] if count == 1 else [delta_t] * count
    if count > 1:
        charges[0] = charges[-1] = 1.5 * delta_t
    return [float(t) - charge for t, charge in zip(times, charges)]


def schedule_instructions(schedule: DaqcSchedule) -> tuple:
    """Lower a schedule to executable instructions."""
    return tuple(_lowering(schedule.mode, schedule.n_qubits, schedule.delta_t)(schedule.times)[0])


def _lowering(mode: str, n_qubits: int, delta_t: float | None):
    """A function lowering checked schedules of float durations to (instructions, negative blocks).

    Its schedules share one X gate per qubit (stepwise) or one drive window per pair (banged).
    """
    pairs = all_pairs(n_qubits)
    if mode == "stepwise":
        x = {q: XGate(q) for q in range(1, n_qubits + 1)}
        pulses = [(x[j], x[k]) for j, k in pairs]
    else:
        pulses = [(BangedWindow(delta_t, pair),) for pair in pairs]

    def lower(times) -> tuple[list, int]:
        segments = times if mode == "stepwise" else banged_segment_durations(times, delta_t)
        instructions: list = []
        for pulse, segment in zip(pulses, segments):
            instructions.extend((*pulse, AnalogBlock(segment, mode), *pulse))
        return instructions, sum(1 for segment in segments if segment < 0)

    return lower


def schedule_program(schedule: DaqcSchedule) -> Program:
    """Wrap a bare schedule as a runnable program."""
    return Program(
        n_qubits=schedule.n_qubits,
        instructions=schedule_instructions(schedule),
        resource=schedule.resource,
        metadata={"mode": schedule.mode, "delta_t": schedule.delta_t},
    )


def schedule_dump(schedule: DaqcSchedule) -> str:
    """One line per block: `alpha j k duration` (fixed format for golden files)."""
    pairs = all_pairs(schedule.n_qubits)
    # + 0.0 turns -0.0 (a zero duration under a negative target time) into 0.0
    lines = [
        f"{alpha} {j} {k} {duration + 0.0:.12e}"
        for alpha, ((j, k), duration) in enumerate(zip(pairs, schedule.times), start=1)
    ]
    return "\n".join(lines) + "\n"


def compile_qft_daqc(n_qubits: int, mode: str, delta_t: float = DEFAULT_DELTA_T) -> Program:
    """Compile the n-qubit QFT into a runnable digital-analog program.

    Each controlled-rotation block m becomes the Hadamard on qubit m, the Z
    rotations that accompany its controlled phases, and the DAQC schedule of
    its coupling target; a final Hadamard and the readout bit reversal close
    the program.  ``metadata["negative_segments"]`` counts its analog blocks
    of negative duration, in either mode.
    """
    if mode not in ("stepwise", "banged"):
        raise ValueError(f"unknown compilation mode {mode!r}")
    _check_window(mode, delta_t)
    window = delta_t if mode == "banged" else None
    resource = IsingSpec.homogeneous(n_qubits)
    instructions: list = []
    block_times = []
    negative_segments = 0
    lower = _lowering(mode, n_qubits, window)
    for m in range(1, n_qubits):
        target = qft_block_target(n_qubits, m)
        instructions.append(HadamardGate(m))
        for (_, q), angle in target.couplings.items():  # ascending q
            instructions.extend((Rotation(m, "z", -angle), Rotation(q, "z", -angle)))
        times = tuple(solve_times(target).tolist())
        block, negative = lower(times)
        block_times.append(times)
        instructions.extend(block)
        negative_segments += negative
    instructions += (HadamardGate(n_qubits), readout_instruction(n_qubits))
    return Program(
        n_qubits=n_qubits,
        instructions=tuple(instructions),
        resource=resource,
        metadata={
            "mode": mode,
            "delta_t": window,
            "block_times": tuple(block_times),
            "negative_segments": negative_segments,
        },
    )
