"""Digital-analog schedule compiler.

Turns an inhomogeneous all-to-all ZZ target into a sequence of analog blocks
of the homogeneous resource, conjugated by X pulses.  Durations come from the
sign-matrix linear system; the banged variant keeps the resource on during the
pulses and compensates with the caption timing rule (see build_bdaqc_schedule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ising import IsingSpec, Pair, all_pairs
from .program import AnalogBlock, BangedWindow, HadamardGate, Program, XGate
from .qft import QftPlan, build_qft_plan, readout_instruction

# Default drive-window width for banged schedules.  The window error grows
# linearly with the width and with register size; 1e-4 keeps the ideal banged
# QFT above 0.90 fidelity through n = 7 with margin (worst case ~0.993).
DEFAULT_DELTA_T = 1e-4

RESIDUAL_TOL = 1e-10


class SingularSignMatrixError(ValueError):
    """The N=4 sign matrix is singular; no analog-duration solution exists."""


def vectorize_pair(n: int, m: int, n_qubits: int) -> int:
    """alpha = N(n-1) - n(n+1)/2 + m, a bijection from ordered pairs to 1..N(N-1)/2."""
    if not (1 <= n < m <= n_qubits):
        raise ValueError(f"need 1 <= n < m <= {n_qubits}, got ({n}, {m})")
    return n_qubits * (n - 1) - n * (n + 1) // 2 + m


def sign_matrix(n_qubits: int) -> np.ndarray:
    """M_{alpha,beta} = (-1)^{overlap} between the alpha-th and beta-th pairs.

    Two distinct pairs sharing exactly one qubit give -1; disjoint pairs and
    the diagonal give +1.  Singular exactly at N = 4.
    """
    if n_qubits < 2:
        raise ValueError(f"n_qubits must be >= 2, got {n_qubits}")
    pairs = all_pairs(n_qubits)
    size = len(pairs)
    m = np.empty((size, size), dtype=int)
    for a, (pn, pm) in enumerate(pairs):
        for b, (j, k) in enumerate(pairs):
            overlap = (pn == j) + (pn == k) + (pm == j) + (pm == k)
            m[a, b] = -1 if overlap % 2 else 1
    return m


def coupling_vector(target: IsingSpec) -> np.ndarray:
    """Couplings g_jk flattened in alpha order."""
    return np.array([target.coupling(j, k) for j, k in all_pairs(target.n_qubits)])


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
    residual = solve_residual(target, times)
    if residual > RESIDUAL_TOL:
        raise RuntimeError(f"time solver residual {residual:.3e} exceeds {RESIDUAL_TOL}")
    return times


def solve_residual(target: IsingSpec, times: np.ndarray) -> float:
    """Max-norm residual of the duration solution against the target couplings."""
    m = sign_matrix(target.n_qubits)
    lhs = m @ np.asarray(times) * (target.resource_coupling / target.target_time)
    return float(np.max(np.abs(lhs - coupling_vector(target))))


@dataclass(frozen=True)
class ScheduleItem:
    alpha_index: int
    pair: Pair
    duration: float


@dataclass(frozen=True)
class DaqcSchedule:
    """Ordered analog blocks with their conjugation pairs."""

    mode: str  # "stepwise" | "banged"
    items: tuple[ScheduleItem, ...]
    resource: IsingSpec
    delta_t: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("stepwise", "banged"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.mode == "banged":
            if self.delta_t is None or self.delta_t <= 0:
                raise ValueError("banged mode requires delta_t > 0")
        if not self.resource.is_homogeneous():
            raise ValueError("the analog resource must be homogeneous")
        object.__setattr__(self, "items", tuple(self.items))
        n = self.resource.n_qubits
        expected = [vectorize_pair(j, k, n) for j, k in all_pairs(n)]
        if [it.alpha_index for it in self.items] != expected:
            raise ValueError("schedule items must cover all pairs in alpha order")
        for item in self.items:
            if item.alpha_index != vectorize_pair(*item.pair, n):
                raise ValueError(f"item {item} pair does not match its alpha index")

    @property
    def n_qubits(self) -> int:
        return self.resource.n_qubits


def _items_from_times(times: np.ndarray, n_qubits: int) -> tuple[ScheduleItem, ...]:
    pairs = all_pairs(n_qubits)
    if len(times) != len(pairs):
        raise ValueError(f"expected {len(pairs)} durations for N={n_qubits}, got {len(times)}")
    return tuple(
        ScheduleItem(vectorize_pair(j, k, n_qubits), (j, k), float(t))
        for (j, k), t in zip(pairs, times)
    )


def _infer_n_qubits(item_count: int) -> int:
    n = (1 + math.isqrt(1 + 8 * item_count)) // 2
    if n * (n - 1) // 2 != item_count:
        raise ValueError(f"{item_count} durations do not form a full pair set")
    return n


def build_sdaqc_schedule(times: np.ndarray, resource: IsingSpec | None = None) -> DaqcSchedule:
    """Stepwise schedule: resource off while the conjugation pulses act."""
    n = _infer_n_qubits(len(times)) if resource is None else resource.n_qubits
    if resource is None:
        resource = IsingSpec.homogeneous(n)
    return DaqcSchedule("stepwise", _items_from_times(times, n), resource)


def build_bdaqc_schedule(
    times: np.ndarray, delta_t: float, resource: IsingSpec | None = None
) -> DaqcSchedule:
    """Banged schedule: resource stays on; X pulses become drive windows of delta_t."""
    if delta_t is None or delta_t <= 0:
        raise ValueError("banged mode requires delta_t > 0")
    n = _infer_n_qubits(len(times)) if resource is None else resource.n_qubits
    if resource is None:
        resource = IsingSpec.homogeneous(n)
    return DaqcSchedule("banged", _items_from_times(times, n), resource, delta_t=delta_t)


def banged_segment_durations(times, delta_t: float) -> list[float]:
    """Pure-analog stretch left of each block once drive windows eat into it.

    Interior blocks lose delta_t (half a window on each side); the first and
    last lose (3/2) delta_t because the outermost windows sit fully inside
    them.  A single-block schedule loses 2 delta_t for the same reason.  The
    result may be negative; it is executed as-is.
    """
    count = len(times)
    segments = []
    for i, t in enumerate(times):
        if count == 1:
            charge = 2.0 * delta_t
        elif i in (0, count - 1):
            charge = 1.5 * delta_t
        else:
            charge = delta_t
        segments.append(float(t) - charge)
    return segments


def schedule_instructions(schedule: DaqcSchedule) -> tuple:
    """Lower a schedule to executable instructions."""
    instructions: list = []
    if schedule.mode == "stepwise":
        for item in schedule.items:
            j, k = item.pair
            instructions.extend(
                (
                    XGate(j),
                    XGate(k),
                    AnalogBlock(item.duration, "stepwise"),
                    XGate(j),
                    XGate(k),
                )
            )
    else:
        delta_t = schedule.delta_t
        segments = banged_segment_durations([it.duration for it in schedule.items], delta_t)
        for item, segment in zip(schedule.items, segments):
            window = BangedWindow(delta_t, item.pair)
            instructions.extend((window, AnalogBlock(segment, "banged"), window))
    return tuple(instructions)


def schedule_program(schedule: DaqcSchedule) -> Program:
    """Wrap a bare schedule as a runnable program."""
    return Program(
        n_qubits=schedule.n_qubits,
        instructions=schedule_instructions(schedule),
        resource=schedule.resource,
        metadata={"mode": schedule.mode, "delta_t": schedule.delta_t},
    )


def schedule_dump(schedule: DaqcSchedule) -> str:
    """One line per item: `alpha n m duration` (fixed format for golden files)."""
    lines = [
        f"{item.alpha_index} {item.pair[0]} {item.pair[1]} {item.duration:.12e}"
        for item in schedule.items
    ]
    return "\n".join(lines) + "\n"


def compile_qft_daqc(
    plan: QftPlan | int, mode: str, delta_t: float = DEFAULT_DELTA_T
) -> Program:
    """Compile a QFT plan into a runnable digital-analog program.

    Each controlled-rotation block becomes its digital layer followed by the
    DAQC schedule of its coupling target; a final Hadamard and the readout
    bit reversal close the program.
    """
    if isinstance(plan, int):
        plan = build_qft_plan(plan)
    if mode not in ("stepwise", "banged"):
        raise ValueError(f"unknown compilation mode {mode!r}")
    n = plan.n_qubits
    if n == 4:
        raise SingularSignMatrixError("singular sign matrix for N=4")
    resource = IsingSpec.homogeneous(n)
    instructions: list = []
    block_times = []
    for block in plan.blocks:
        instructions.extend(block.sqg_layer)
        times = solve_times(block.ising_block)
        block_times.append(tuple(float(t) for t in times))
        if mode == "stepwise":
            schedule = build_sdaqc_schedule(times, resource)
        else:
            schedule = build_bdaqc_schedule(times, delta_t, resource)
        instructions.extend(schedule_instructions(schedule))
    instructions.append(HadamardGate(plan.final_hadamard))
    instructions.append(readout_instruction(n))
    negative_segments = sum(
        1
        for instr in instructions
        if isinstance(instr, AnalogBlock) and instr.kind == "banged" and instr.duration < 0
    )
    return Program(
        n_qubits=n,
        instructions=tuple(instructions),
        resource=resource,
        metadata={
            "mode": mode,
            "delta_t": delta_t if mode == "banged" else None,
            "block_times": tuple(block_times),
            "negative_segments": negative_segments,
        },
    )
