"""Coherent-noise model and Monte-Carlo fidelity experiments.

Noise enters three ways: single-qubit generators are scaled by a uniform
amplitude factor (SQG), the fixed pi/4 entangler phases pick up Gaussian
offsets (TQG), and analog-block durations jitter by a Gaussian time (ABN,
with separate widths for stepwise and banged schedules).  All draws come from
an explicitly seeded generator so every experiment is reproducible.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .daqc import DEFAULT_DELTA_T, compile_qft_daqc
from .program import (
    AnalogBlock,
    BangedWindow,
    Entangler,
    HadamardGate,
    Permute,
    Program,
    Rotation,
    UnsupportedGateError,
    XGate,
    execute_program,
)
from .qft import beta_state, build_dqc_circuit, exact_qft, readout_instruction
from .statevector import fidelity

PROTOCOLS = ("dqc", "sdaqc", "bdaqc")
PROTOCOL_LABELS = {"dqc": "DQC", "sdaqc": "sDAQC", "bdaqc": "bDAQC"}


def _is_real(value) -> bool:
    """A real number and not a bool (JSON true/false would pass as 1/0)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class NoiseConfig:
    """Widths of the three coherent-noise channels plus the experiment seed."""

    sqgn: float = 0.0005
    tqgn: float = 0.2
    tqgn_is_std: bool = True
    abn_s: float = 0.02
    abn_b: float = 0.01
    error_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sqgn", "tqgn", "abn_s", "abn_b", "error_scale"):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
        if not isinstance(self.tqgn_is_std, bool):
            raise ValueError(f"tqgn_is_std must be true or false, got {self.tqgn_is_std!r}")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit non-negative integer, got {seed!r}")

    @property
    def tqg_std(self) -> float:
        """Standard deviation of the entangler phase noise under the chosen reading."""
        width = self.tqgn if self.tqgn_is_std else math.sqrt(self.tqgn)
        return width * self.error_scale


ZERO_NOISE = NoiseConfig(sqgn=0.0, tqgn=0.0, abn_s=0.0, abn_b=0.0)

# Keys accepted in a noise-config JSON file.  delta_t rides along because a
# run is not reproducible without it, but it is not a NoiseConfig field.
CONFIG_FILE_KEYS = tuple(f.name for f in fields(NoiseConfig)) + ("delta_t",)


def sample_noise(kind: str, config: NoiseConfig, rng: np.random.Generator) -> float:
    """One draw of the requested noise channel.

    SQG draws the amplitude factor DeltaB ~ U(1-s, 1+s); TQG draws the phase
    offset eps ~ N(0, sigma); ABN draws the time offset delta ~ N(0, width).
    Zero widths give the ideal values exactly (while still consuming a draw,
    which keeps draw sequences aligned across error scales).
    """
    if kind == "sqg":
        half_width = config.sqgn * config.error_scale
        return float(rng.uniform(1.0 - half_width, 1.0 + half_width))
    if kind == "tqg":
        return float(rng.normal(0.0, config.tqg_std))
    if kind == "abn_s":
        return float(rng.normal(0.0, config.abn_s * config.error_scale))
    if kind == "abn_b":
        return float(rng.normal(0.0, config.abn_b * config.error_scale))
    raise ValueError(f"unknown noise kind {kind!r}")


def make_sampler(config: NoiseConfig, rng: np.random.Generator):
    """Per-instruction noise draws, consumed in program order."""

    def sampler(instr):
        if isinstance(instr, (Rotation, XGate, HadamardGate)):
            return sample_noise("sqg", config, rng)
        if isinstance(instr, Entangler):
            return sample_noise("tqg", config, rng)
        if isinstance(instr, AnalogBlock):
            kind = "abn_s" if instr.kind == "stepwise" else "abn_b"
            return sample_noise(kind, config, rng)
        if isinstance(instr, BangedWindow):
            return np.array([sample_noise("sqg", config, rng) for _ in instr.qubits])
        if isinstance(instr, Permute):
            return None
        raise UnsupportedGateError(f"no noise model for {type(instr).__name__}")

    return sampler


def build_protocol_program(protocol: str, n_qubits: int, delta_t: float = DEFAULT_DELTA_T) -> Program:
    """The full QFT program (including readout relabeling) for one protocol."""
    name = protocol.lower()
    if name == "dqc":
        instructions = build_dqc_circuit(n_qubits, use_zz_construction=True)
        instructions = instructions + (readout_instruction(n_qubits),)
        return Program(n_qubits, instructions, metadata={"protocol": "dqc"})
    if name == "sdaqc":
        program = compile_qft_daqc(n_qubits, "stepwise", delta_t)
    elif name == "bdaqc":
        program = compile_qft_daqc(n_qubits, "banged", delta_t)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    program.metadata["protocol"] = name
    return program


def _shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    """Generator for one shot; shots are independent streams keyed by index."""
    return np.random.default_rng([seed, shot_index])


@dataclass(frozen=True)
class ExperimentRecord:
    """Shot statistics of one (protocol, n, beta) cell; one CSV row."""

    protocol: str
    n_qubits: int
    beta: float
    shots: int
    seed: int
    mean_fidelity: float
    std_fidelity: float
    delta_t: float
    error_scale: float

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if not -1e-9 <= self.mean_fidelity <= 1.0 + 1e-9:
            raise ValueError(f"mean fidelity {self.mean_fidelity} outside [0, 1]")
        if self.std_fidelity < 0:
            raise ValueError("std fidelity must be >= 0")


def monte_carlo(
    protocol: str,
    n_qubits: int,
    beta: float,
    shots: int,
    config: NoiseConfig | None,
    delta_t: float = DEFAULT_DELTA_T,
    workers: int = 1,
) -> ExperimentRecord:
    """Mean/std fidelity over independent noise shots.

    Shot i draws from a generator keyed by (config.seed, i), so results do not
    depend on execution order or the number of worker threads.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    program = build_protocol_program(protocol, n_qubits, delta_t)
    state = beta_state(n_qubits, beta)
    reference = exact_qft(state)

    if config is None:
        value = fidelity(reference, execute_program(state, program, None))
        fidelities = np.full(shots, value)
    else:

        def one_shot(index: int) -> float:
            sampler = make_sampler(config, _shot_rng(config.seed, index))
            return fidelity(reference, execute_program(state, program, sampler))

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                fidelities = np.array(list(pool.map(one_shot, range(shots))))
        else:
            fidelities = np.array([one_shot(i) for i in range(shots)])

    return ExperimentRecord(
        protocol=PROTOCOL_LABELS[protocol.lower()],
        n_qubits=n_qubits,
        beta=float(beta),
        shots=shots,
        seed=config.seed if config is not None else 0,
        mean_fidelity=float(np.mean(fidelities)),
        std_fidelity=float(np.std(fidelities)),
        delta_t=float(delta_t),
        error_scale=config.error_scale if config is not None else 0.0,
    )


def default_beta_grid(points: int = 21) -> np.ndarray:
    """Evenly spaced beta angles across [0, pi]."""
    if points < 1:
        raise ValueError("need at least one grid point")
    return np.linspace(0.0, np.pi, points)


def sweep_beta(
    protocols,
    n_list,
    beta_grid,
    shots: int,
    config: NoiseConfig | None,
    delta_t: float = DEFAULT_DELTA_T,
    workers: int = 1,
) -> list[ExperimentRecord]:
    """One record per (protocol, n, beta), sorted by that key."""
    beta_grid = np.asarray(beta_grid, dtype=float)
    if beta_grid.size and (beta_grid.min() < -1e-12 or beta_grid.max() > np.pi + 1e-12):
        raise ValueError("beta grid must lie within [0, pi]")
    records = []
    for protocol in protocols:
        for n in n_list:
            for beta in beta_grid:
                records.append(
                    monte_carlo(protocol, n, float(beta), shots, config, delta_t, workers)
                )
    records.sort(key=lambda r: (r.protocol, r.n_qubits, r.beta))
    return records


def sweep_error_scale(
    protocols,
    n_list,
    scale_grid,
    shots: int,
    config: NoiseConfig | None = None,
    delta_t: float = DEFAULT_DELTA_T,
    workers: int = 1,
    beta: float = np.pi / 4,
) -> list[ExperimentRecord]:
    """Scale all noise widths by a common factor; beta fixed at pi/4."""
    if config is None:
        config = NoiseConfig()
    records = []
    for scale in scale_grid:
        if scale < 0:
            raise ValueError("error scales must be >= 0")
        scaled = replace(config, error_scale=float(scale))
        for protocol in protocols:
            for n in n_list:
                records.append(monte_carlo(protocol, n, beta, shots, scaled, delta_t, workers))
    records.sort(key=lambda r: (r.protocol, r.n_qubits, r.error_scale))
    return records


@dataclass(frozen=True)
class BetaSummary:
    """Beta-averaged mean fidelity with its standard error."""

    mean: float
    stderr: float


def beta_average(records) -> dict[tuple[str, int], BetaSummary]:
    """Average per-beta means for each (protocol, n); stderr combines shot noise."""
    cells: dict[tuple[str, int], list[ExperimentRecord]] = {}
    for record in records:
        cells.setdefault((record.protocol, record.n_qubits), []).append(record)
    summary = {}
    for key, rows in cells.items():
        mean = float(np.mean([r.mean_fidelity for r in rows]))
        variance_of_mean = sum((r.std_fidelity ** 2) / r.shots for r in rows) / len(rows) ** 2
        summary[key] = BetaSummary(mean, math.sqrt(variance_of_mean))
    return summary


CSV_HEADER = "protocol,n_qubits,beta,shots,seed,mean_fidelity,std_fidelity,delta_t,error_scale"


def records_to_csv(records) -> str:
    """Serialize records with fixed 9-decimal float formatting (no locale)."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.protocol},{r.n_qubits},{r.beta:.9f},{r.shots},{r.seed},"
            f"{r.mean_fidelity:.9f},{r.std_fidelity:.9f},{r.delta_t:.9f},{r.error_scale:.9f}"
        )
    return "\n".join(lines) + "\n"


def load_noise_config(path) -> tuple[NoiseConfig, float | None]:
    """Read a noise-config JSON file; returns the config and optional delta_t."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("noise config must be a JSON object")
    unknown = sorted(set(data) - set(CONFIG_FILE_KEYS))
    if unknown:
        raise ValueError(f"unknown noise config keys: {', '.join(unknown)}")
    delta_t = data.pop("delta_t", None)
    if delta_t is not None:
        if not (_is_real(delta_t) and math.isfinite(delta_t) and delta_t > 0):
            raise ValueError(f"delta_t must be a finite number > 0, got {delta_t!r}")
        delta_t = float(delta_t)
    return NoiseConfig(**data), delta_t


def config_to_dict(config: NoiseConfig, delta_t: float) -> dict:
    """Materialized noise settings for run manifests."""
    return {**asdict(config), "delta_t": delta_t}
