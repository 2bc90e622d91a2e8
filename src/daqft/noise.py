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
    _draws,
    _run,
    execute_program,
    execute_shots,
)
from .qft import beta_state, build_dqc_circuit, exact_qft, ghz_state, readout_instruction, w_state
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
    # low + (high - low) * u and loc + scale * z are the maps rng.uniform and
    # rng.normal apply, so these draws equal theirs bit for bit, at less cost.
    if kind == "sqg":
        half_width = config.sqgn * config.error_scale
        low, high = 1.0 - half_width, 1.0 + half_width
        return low + (high - low) * rng.random()
    if kind == "tqg":
        return 0.0 + config.tqg_std * rng.standard_normal()
    if kind == "abn_s":
        return 0.0 + (config.abn_s * config.error_scale) * rng.standard_normal()
    if kind == "abn_b":
        return 0.0 + (config.abn_b * config.error_scale) * rng.standard_normal()
    raise ValueError(f"unknown noise kind {kind!r}")


# The channel each instruction type draws from; analog blocks pick theirs by
# schedule kind, and a window draws one sqg value per driven qubit.
_NOISE_KINDS = {
    Rotation: "sqg",
    XGate: "sqg",
    HadamardGate: "sqg",
    Entangler: "tqg",
    AnalogBlock: "abn",
    BangedWindow: "window",
    Permute: None,
}


def make_sampler(config: NoiseConfig, rng: np.random.Generator):
    """Per-instruction noise draws, consumed in program order."""

    def sampler(instr):
        try:
            kind = _NOISE_KINDS[type(instr)]
        except KeyError:
            name = type(instr).__name__
            raise UnsupportedGateError(f"no noise model for {name}") from None
        if kind == "abn":
            kind = "abn_s" if instr.kind == "stepwise" else "abn_b"
        elif kind == "window":
            return np.array([sample_noise("sqg", config, rng) for _ in instr.qubits])
        elif kind is None:
            return None
        return sample_noise(kind, config, rng)

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


def _check_run(shots: int, workers: int) -> None:
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _shot_batches(shots: int, workers: int) -> list[range]:
    """Shot indices cut into ``workers`` batches of at most ceil(shots / workers)."""
    batch = -(-shots // workers)
    return [range(first, min(first + batch, shots)) for first in range(0, shots, batch)]


def _record(protocol, n_qubits, beta, shots, config, delta_t, fidelities) -> ExperimentRecord:
    """One cell's record from its per-shot fidelities, in shot order."""
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


def monte_carlo(
    protocol: str,
    n_qubits: int,
    beta: float,
    shots: int,
    config: NoiseConfig | None,
    delta_t: float = DEFAULT_DELTA_T,
    workers: int = 1,
    program: Program | None = None,
) -> ExperimentRecord:
    """Mean/std fidelity over independent noise shots at one beta.

    Shot i draws from a generator keyed by (config.seed, i), in program
    order.  The shots run as blocks of amplitude rows (see
    ``execute_shots``): ``workers`` is the number of blocks, run in turn, so
    a block holds at most ceil(shots / workers) rows of 2^n amplitudes.  No
    result depends on it.  ``program`` is the compiled protocol program when
    the caller reuses one across cells; by default it is compiled here.
    ``sweep_beta`` runs a grid of more than one beta without this function,
    one run per shot for the whole grid.
    """
    _check_run(shots, workers)
    if program is None:
        program = build_protocol_program(protocol, n_qubits, delta_t)
    state = beta_state(n_qubits, beta)
    reference = exact_qft(state)

    if config is None:
        value = fidelity(reference, execute_program(state, program, None))
        fidelities = np.full(shots, value)
    else:
        fidelities = []
        for indices in _shot_batches(shots, workers):
            samplers = [make_sampler(config, _shot_rng(config.seed, i)) for i in indices]
            block = execute_shots(state, program, samplers)
            # Each row's fidelity exactly as statevector.fidelity computes it.
            fidelities += [float(np.abs(np.vdot(reference.amplitudes, row)) ** 2) for row in block]
    return _record(protocol, n_qubits, beta, shots, config, delta_t, fidelities)


def _grid_records(protocol, n_qubits, program, betas, shots, config, delta_t, workers):
    """One record per beta of a grid, from one run of each shot.

    beta_state is sin(beta)|W> + cos(beta)|GHZ>, and shot i applies the same
    unitary U_i at every beta.  So each shot runs two rows, |W> and |GHZ>, on
    one set of draws (replayed for the second row), and its output at beta is
    sin(beta) U_i|W> + cos(beta) U_i|GHZ>.  Batches, draws and fidelities are
    as in ``monte_carlo``, which this matches to rounding.
    """
    w_ghz = np.stack([w_state(n_qubits).amplitudes, ghz_state(n_qubits).amplitudes])
    references = [exact_qft(beta_state(n_qubits, beta)).amplitudes for beta in betas]
    fidelities = [[] for _ in betas]
    for indices in [range(1)] if config is None else _shot_batches(shots, workers):
        draws = None
        if config is not None:
            samplers = [make_sampler(config, _shot_rng(config.seed, i)) for i in indices]
            draws = [d if d is None else np.concatenate([d, d]) for d in _draws(program, samplers)]
        block = _run(program, np.repeat(w_ghz, len(indices), axis=0), draws)
        w_rows, ghz_rows = np.split(block, 2)
        for beta, reference, values in zip(betas, references, fidelities):
            rows = math.sin(beta) * w_rows + math.cos(beta) * ghz_rows
            values += [float(np.abs(np.vdot(reference, row)) ** 2) for row in rows]
    if config is None:
        fidelities = [np.full(shots, values[0]) for values in fidelities]
    return [
        _record(protocol, n_qubits, beta, shots, config, delta_t, values)
        for beta, values in zip(betas, fidelities)
    ]


def default_beta_grid(points: int = 21) -> np.ndarray:
    """Evenly spaced beta angles across [0, pi]."""
    if points < 1:
        raise ValueError("need at least one grid point")
    return np.linspace(0.0, np.pi, points)


def _sweep_cells(protocols, n_list, delta_t, run_cells) -> list[ExperimentRecord]:
    """Records of every (protocol, n), compiled once each and run by run_cells.

    ``run_cells(protocol, n, program)`` returns that program's records.  They
    are sorted by (protocol, n, beta, error scale); a sweep varies only one
    of the last two.
    """
    records = []
    for protocol in protocols:
        for n in n_list:
            records += run_cells(protocol, n, build_protocol_program(protocol, n, delta_t))
    records.sort(key=lambda r: (r.protocol, r.n_qubits, r.beta, r.error_scale))
    return records


def sweep_beta(
    protocols,
    n_list,
    beta_grid,
    shots: int,
    config: NoiseConfig | None,
    delta_t: float = DEFAULT_DELTA_T,
    workers: int = 1,
) -> list[ExperimentRecord]:
    """One record per (protocol, n, beta), sorted by that key.

    A grid of more than one beta runs each shot once per (protocol, n) for
    all its cells (see ``_grid_records``), and its records agree with
    per-cell ``monte_carlo`` runs to rounding; a one-point grid is one
    ``monte_carlo`` cell.
    """
    beta_grid = np.asarray(beta_grid, dtype=float)
    if beta_grid.size and (beta_grid.min() < -1e-12 or beta_grid.max() > np.pi + 1e-12):
        raise ValueError("beta grid must lie within [0, pi]")
    _check_run(shots, workers)
    betas = [float(beta) for beta in beta_grid]

    def run_cells(protocol, n, program):
        if len(betas) > 1:
            return _grid_records(protocol, n, program, betas, shots, config, delta_t, workers)
        return [
            monte_carlo(protocol, n, beta, shots, config, delta_t, workers, program)
            for beta in betas
        ]

    return _sweep_cells(protocols, n_list, delta_t, run_cells)


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
    """Scale all noise widths by a common factor; beta fixed at pi/4.

    Each scale is one ``monte_carlo`` cell: the draws scale with it, so no
    two cells share a shot's unitary.
    """
    if config is None:
        config = NoiseConfig()
    scales = [float(scale) for scale in scale_grid]
    if any(scale < 0 for scale in scales):
        raise ValueError("error scales must be >= 0")
    _check_run(shots, workers)
    configs = [replace(config, error_scale=scale) for scale in scales]

    def run_cells(protocol, n, program):
        return [
            monte_carlo(protocol, n, beta, shots, scaled, delta_t, workers, program)
            for scaled in configs
        ]

    return _sweep_cells(protocols, n_list, delta_t, run_cells)


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
