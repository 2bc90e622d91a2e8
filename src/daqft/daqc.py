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

from .ising import IsingSpec, _check_register_size, all_pairs
from .program import AnalogBlock, BangedWindow, HadamardGate, Program, Rotation, XGate, _constant
from .qft import qft_block_target, readout_instruction

# Default drive-window width for banged schedules.  The window error grows
# linearly with the width and with register size; 1e-4 keeps the ideal banged
# QFT above 0.90 fidelity through n = 7 with margin (worst case ~0.993).  At
# beta = 0.7 it reaches 0.980 at n = 8 and 0.939 at n = 9, and falls below the
# floor at n = 10 (0.844).
DEFAULT_DELTA_T = 1e-4

RESIDUAL_TOL = 1e-10
_TINY = float(np.finfo(float).tiny)  # smallest normal float: 1 / t overflows below it


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
    """Analog-block durations t_alpha of the unit-strength resource, with M t / t_F = g_vec.

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
    with np.errstate(over="ignore"):  # an overflowed duration is reported below
        times = np.linalg.solve(m, g_vec) * target.target_time
    if not np.isfinite(times).all():
        raise ValueError(f"durations {times.tolist()} are not finite at target_time {target.target_time!r}")
    residual = _residual(m, target, times, g_vec)
    if not residual <= RESIDUAL_TOL:  # NaN fails too
        raise RuntimeError(f"time solver residual {residual:.3e} exceeds {RESIDUAL_TOL}")
    return times


def solve_residual(target: IsingSpec, times: np.ndarray) -> float:
    """Max-norm residual of the duration solution against the target couplings."""
    return _residual(sign_matrix(target.n_qubits), target, times, coupling_vector(target))


def _residual(m: np.ndarray, target: IsingSpec, times, g_vec: np.ndarray) -> float:
    if abs(target.target_time) < _TINY:
        raise ValueError(f"target_time must be nonzero, of magnitude >= {_TINY}, got {target.target_time!r}")
    lhs = m @ np.asarray(times) * (1.0 / target.target_time)
    return float(np.max(np.abs(lhs - g_vec)))


def _check_mode(mode: str, delta_t: float | None) -> None:
    """A known mode; banged schedules also need a finite, positive, normal drive-window width."""
    if mode not in ("stepwise", "banged"):
        raise ValueError(f"unknown schedule mode {mode!r}")
    if mode == "banged" and (delta_t is None or not math.isfinite(delta_t) or delta_t < _TINY):
        raise ValueError(f"banged mode requires a finite delta_t > 0, not subnormal, got {delta_t!r}")


@dataclass(frozen=True)
class DaqcSchedule:
    """(flip set, duration) blocks in execution order; a flip set is an ascending qubit tuple.

    Every block evolves under the register's unit all-to-all resource.
    """

    mode: str  # "stepwise" | "banged"
    blocks: tuple[tuple[tuple[int, ...], float], ...]
    n_qubits: int
    delta_t: float | None = None

    def __post_init__(self) -> None:
        _check_register_size(self.n_qubits)
        _check_mode(self.mode, self.delta_t)
        blocks = tuple((tuple(qubits), float(duration)) for qubits, duration in self.blocks)
        for qubits, _ in blocks:
            if not qubits or list(qubits) != sorted(set(qubits) & set(range(1, self.n_qubits + 1))):
                raise ValueError(f"flip set {qubits} is not ascending qubits in 1..{self.n_qubits}")
        object.__setattr__(self, "blocks", blocks)


def _pair_schedule(mode: str, times, delta_t=None) -> DaqcSchedule:
    """Durations as blocks on all_pairs(n) in alpha order, n worked out from their count."""
    count = len(times)
    n = (1 + math.isqrt(1 + 8 * count)) // 2
    if n * (n - 1) // 2 != count:
        raise ValueError(f"{count} durations do not form a full pair set")
    return DaqcSchedule(mode, list(zip(all_pairs(n), times)), n, delta_t)


def build_sdaqc_schedule(times: np.ndarray) -> DaqcSchedule:
    """Stepwise schedule: resource off while the conjugation pulses act."""
    return _pair_schedule("stepwise", times)


def build_bdaqc_schedule(times: np.ndarray, delta_t: float) -> DaqcSchedule:
    """Banged schedule: resource stays on; X pulses become drive windows of delta_t."""
    return _pair_schedule("banged", times, delta_t)


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


def _lower(mode: str, blocks, delta_t: float | None, pulses: dict, instructions: list) -> int:
    """Append each block, between its flip set's pulses, to instructions; count negative segments.

    ``pulses`` maps flip sets to pulses and is shared by all blocks of a program (see _pulses).
    """
    durations = [duration for _, duration in blocks]
    segments = durations if mode == "stepwise" else banged_segment_durations(durations, delta_t)
    for (qubits, _), segment in zip(blocks, segments):
        pulse = pulses.get(qubits)
        if pulse is None and mode == "stepwise":
            pulse = pulses[qubits] = sum((pulses[(q,)] for q in qubits), ())
        elif pulse is None:
            pulse = pulses[qubits] = (BangedWindow(delta_t, qubits),)
        instructions += pulse
        instructions.append(AnalogBlock(segment, mode))
        instructions += pulse
    return sum(1 for segment in segments if segment < 0)


def _pulses(mode: str, n_qubits: int) -> dict:
    """A fresh pulse table: in stepwise mode each qubit's X gate, which larger flip sets reuse."""
    return {(q,): (XGate(q),) for q in range(1, n_qubits + 1)} if mode == "stepwise" else {}


def schedule_program(schedule: DaqcSchedule) -> Program:
    """Lower a bare schedule to a runnable program."""
    pulses = _pulses(schedule.mode, schedule.n_qubits)
    instructions: list = []
    _lower(schedule.mode, schedule.blocks, schedule.delta_t, pulses, instructions)
    metadata = {"mode": schedule.mode, "delta_t": schedule.delta_t}
    return Program(schedule.n_qubits, tuple(instructions), metadata=metadata)


def schedule_dump(schedule: DaqcSchedule) -> str:
    """One line per block: `alpha <flip-set qubits> duration` (fixed format for golden files)."""
    # + 0.0 turns -0.0 (a zero duration under a negative target time) into 0.0
    lines = [
        f"{alpha} {' '.join(map(str, qubits))} {duration + 0.0:.12e}"
        for alpha, (qubits, duration) in enumerate(schedule.blocks, start=1)
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
    _check_mode(mode, delta_t)
    window = delta_t if mode == "banged" else None
    pairs = all_pairs(n_qubits)  # solve_times orders durations as all_pairs does
    pulses = _pulses(mode, n_qubits)
    instructions: list = []
    block_times = []
    negative_segments = 0
    for m in range(1, n_qubits):
        target = qft_block_target(n_qubits, m)
        instructions.append(HadamardGate(m))
        for (_, q), angle in target.couplings.items():  # ascending q
            instructions.extend((Rotation(m, "z", -angle), Rotation(q, "z", -angle)))
        times = tuple(solve_times(target).tolist())
        block_times.append(times)
        negative_segments += _lower(mode, list(zip(pairs, times)), window, pulses, instructions)
    instructions += (HadamardGate(n_qubits), readout_instruction(n_qubits))
    return Program(
        n_qubits,
        tuple(instructions),
        metadata={
            "mode": mode,
            "delta_t": window,
            "block_times": tuple(block_times),
            "negative_segments": negative_segments,
        },
    )
