"""Coherent-noise model and Monte-Carlo fidelity experiments.

Noise enters three ways: single-qubit generators are scaled by a uniform
amplitude factor (SQG), the fixed pi/4 entangler phases pick up Gaussian
offsets (TQG), and analog-block durations jitter by a Gaussian time (ABN,
with separate widths for stepwise and banged schedules).  All draws come from
an explicitly seeded generator so every experiment is reproducible.
"""

from __future__ import annotations

import itertools
import json
import math
import time
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
    _run,
    execute_program,
)
from .qft import beta_state, build_dqc_circuit, exact_qft, ghz_state, readout_instruction, w_state
from .statevector import fidelity

PROTOCOLS = ("dqc", "sdaqc", "bdaqc")
PROTOCOL_LABELS = {"dqc": "DQC", "sdaqc": "sDAQC", "bdaqc": "bDAQC"}
ERROR_SCALE_BETA = np.pi / 4  # the input angle of every error-scale sweep


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


_CHANNELS = ("sqg", "tqg", "abn_s", "abn_b")  # sqg draws are uniform, the others normal


def _channel_maps(config: NoiseConfig) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per channel (in _CHANNELS order), the offset and scale of its draw's affine map."""
    half_width = config.sqgn * config.error_scale
    low, high = 1.0 - half_width, 1.0 + half_width
    scale = config.error_scale
    return (low, 0.0, 0.0, 0.0), (high - low, config.tqg_std, config.abn_s * scale, config.abn_b * scale)


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


def _instruction_kind(instr) -> str | None:
    """The channel an instruction draws from, "window", or None for no draw."""
    try:
        kind = _NOISE_KINDS[type(instr)]
    except KeyError:
        raise UnsupportedGateError(f"no noise model for {type(instr).__name__}") from None
    if kind == "abn":
        return "abn_s" if instr.kind == "stepwise" else "abn_b"
    return kind


@dataclass(frozen=True, eq=False)
class NoiseSites:
    """Where one shot's noise draws land in a program.

    ``channels`` holds the channel of each draw site in program order (an
    index into _CHANNELS), ``runs`` cuts the sites into maximal runs of one
    distribution, (uniform, sites) each, and ``columns`` holds each
    instruction's site index, slice of sites (a window's driven qubits) or
    None (no draw).
    """

    channels: np.ndarray
    runs: tuple[tuple[bool, slice], ...]
    columns: tuple

    @classmethod
    def for_program(cls, program: Program) -> NoiseSites:
        """The program's table; an instruction with no noise model raises UnsupportedGateError."""
        channels, columns = [], []
        for instr in program.instructions:
            kind = _instruction_kind(instr)
            if kind is None:
                columns.append(None)
            elif kind == "window":
                columns.append(slice(len(channels), len(channels) + len(instr.qubits)))
                channels += [0] * len(instr.qubits)
            else:
                columns.append(len(channels))
                channels.append(_CHANNELS.index(kind))
        runs, start = [], 0
        for uniform, group in itertools.groupby(channel == 0 for channel in channels):
            stop = start + len(list(group))
            runs.append((uniform, slice(start, stop)))
            start = stop
        return cls(np.array(channels, dtype=np.intp), tuple(runs), tuple(columns))

    def draws(self, standard: np.ndarray, configs, rows: int = 1) -> list:
        """Per-instruction noise values, as ``program._draws`` lays them out.

        ``standard`` holds k shots' standard draws, one row per shot (see
        ``sample_noise``).  Each config maps them through its channel maps,
        ``offset + scale * standard``, the map rng.uniform and rng.normal
        apply, so the values equal the per-instruction draws of the same
        generators bit for bit.  The rows run (config, input row, shot): each
        config's k rows repeat ``rows`` times.
        """
        offsets, scales = (
            np.array(maps)[:, None, None, self.channels]
            for maps in zip(*(_channel_maps(config) for config in configs))
        )
        values = offsets + scales * standard
        shape = (len(configs), rows) + standard.shape
        values = np.broadcast_to(values, shape).reshape(-1, standard.shape[1])
        return [None if column is None else values[:, column] for column in self.columns]


def sample_noise(
    kind: str | NoiseSites, config: NoiseConfig | None, rng: np.random.Generator
) -> float | np.ndarray:
    """One draw of the requested noise channel, or one shot's standard draws of a site table.

    SQG draws the amplitude factor DeltaB ~ U(1-s, 1+s); TQG draws the phase
    offset eps ~ N(0, sigma); ABN draws the time offset delta ~ N(0, width).
    Zero widths give the ideal values exactly (while still consuming a draw,
    which keeps draw sequences aligned across error scales).  Given a
    ``NoiseSites`` table it returns every site's standard draw in program
    order, U[0, 1) at a uniform site and N(0, 1) at the others, and needs no
    config: each run is one numpy call, which gives the same doubles as that
    many scalar calls, and ``NoiseSites.draws`` maps them through any config.
    """
    if isinstance(kind, NoiseSites):
        standard = np.empty(len(kind.channels))
        for uniform, sites in kind.runs:
            if uniform:
                rng.random(out=standard[sites])
            else:
                rng.standard_normal(out=standard[sites])
        return standard
    if kind not in _CHANNELS:
        raise ValueError(f"unknown noise kind {kind!r}")
    # low + (high - low) * u and loc + scale * z are the maps rng.uniform and
    # rng.normal apply, so these draws equal theirs bit for bit, at less cost.
    offsets, scales = _channel_maps(config)
    channel = _CHANNELS.index(kind)
    draw = rng.random() if channel == 0 else rng.standard_normal()
    return offsets[channel] + scales[channel] * draw


def make_sampler(config: NoiseConfig | None, rng: np.random.Generator):
    """Noise draws from rng, consumed in program order.

    The sampler maps an instruction to its draw under ``config``, or a
    program's ``NoiseSites`` table to a whole shot's standard draws at once;
    a sampler that only draws tables needs no config.
    """

    def sampler(instr):
        if isinstance(instr, NoiseSites):
            return sample_noise(instr, config, rng)
        kind = _instruction_kind(instr)
        if kind == "window":
            return np.array([sample_noise("sqg", config, rng) for _ in instr.qubits])
        if kind is None:
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


def _fidelities(reference: np.ndarray, rows) -> list[float]:
    """Each row's fidelity to the reference, exactly as statevector.fidelity computes it."""
    return [float(np.abs(np.vdot(reference, row)) ** 2) for row in rows]


def _shot_fidelities(program, rows, configs, shots, workers, score) -> np.ndarray:
    """The one Monte-Carlo shot runner: (S, X, shots) fidelities of S configs.

    ``rows`` is an (R, 2^n) stack of input states; the configs share one
    seed.  Shot i's sampler, on a generator keyed by (seed, i), is called
    once on the program's ``NoiseSites`` table, and each config maps the
    same standard draws.  The shots run in ``workers`` batches, one after
    another; a batch of b shots is one block of S*R*b rows stacked as
    (config, input row, shot), and ``score`` turns its (S, R, b, 2^n) output
    into (S, X, b) fidelities.  ``configs`` of ``[None]`` runs the rows once
    without draws, and every shot gets that run's fidelities.
    """
    if configs == [None]:
        return np.repeat(score(_run(program, rows)[None, :, None]), shots, axis=-1)
    sites = NoiseSites.for_program(program)
    seed = configs[0].seed
    parts = []
    for indices in _shot_batches(shots, workers):
        standard = np.array([make_sampler(None, _shot_rng(seed, i))(sites) for i in indices])
        shape = (len(configs), len(rows), len(indices), rows.shape[1])
        block = np.broadcast_to(rows[:, None], shape).reshape(-1, rows.shape[1])
        block = _run(program, block, sites.draws(standard, configs, len(rows)))
        parts.append(score(block.reshape(shape)))
    return np.concatenate(parts, axis=-1)


def _scale_records(protocol, n_qubits, program, beta, shots, configs, delta_t, workers):
    """One record per noise config at one beta, from one run of each shot.

    A shot's draws scale with the config, so no two configs share its
    unitary, but they share its standard draws.
    """
    state = beta_state(n_qubits, beta)
    reference = exact_qft(state).amplitudes
    fidelities = _shot_fidelities(
        program, state.amplitudes[None], configs, shots, workers,
        lambda out: [[_fidelities(reference, rows[0])] for rows in out],
    )
    return [
        _record(protocol, n_qubits, beta, shots, config, delta_t, values)
        for config, (values,) in zip(configs, fidelities)
    ]


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
    order: its sampler is called once, on the program's ``NoiseSites``
    table.  The shots run as blocks of amplitude rows (as in
    ``execute_shots``): ``workers`` is the number of blocks, run in turn, so
    a block holds at most ceil(shots / workers) rows of 2^n amplitudes.  No
    result depends on it.  ``program`` is the compiled protocol program when
    the caller reuses one across cells; by default it is compiled here.
    ``sweep_beta`` and ``sweep_error_scale`` run grids through the same shot
    runner, one run per shot for the whole grid.
    """
    _check_run(shots, workers)
    if program is None:
        program = build_protocol_program(protocol, n_qubits, delta_t)
    if config is not None:
        (record,) = _scale_records(
            protocol, n_qubits, program, beta, shots, [config], delta_t, workers
        )
        return record
    # An ideal cell stays one public execute_program run, which no other
    # sweep path reaches; the runner's ideal case would give the same bits.
    state = beta_state(n_qubits, beta)
    value = fidelity(exact_qft(state), execute_program(state, program, None))
    return _record(protocol, n_qubits, beta, shots, config, delta_t, np.full(shots, value))


def _grid_records(protocol, n_qubits, program, betas, shots, config, delta_t, workers):
    """One record per beta of a grid, from one run of each shot.

    beta_state is sin(beta)|W> + cos(beta)|GHZ>, and shot i applies the same
    unitary U_i at every beta.  So each shot runs two rows, |W> and |GHZ>, on
    one set of draws, and its output at beta is
    sin(beta) U_i|W> + cos(beta) U_i|GHZ>.  Batches, draws and fidelities are
    as in ``monte_carlo``, which this matches to rounding.
    """
    w_ghz = np.stack([w_state(n_qubits).amplitudes, ghz_state(n_qubits).amplitudes])
    references = [exact_qft(beta_state(n_qubits, beta)).amplitudes for beta in betas]

    def score(out):
        ((w_rows, ghz_rows),) = out
        return [[
            _fidelities(reference, math.sin(beta) * w_rows + math.cos(beta) * ghz_rows)
            for beta, reference in zip(betas, references)
        ]]

    (fidelities,) = _shot_fidelities(program, w_ghz, [config], shots, workers, score)
    return [
        _record(protocol, n_qubits, beta, shots, config, delta_t, values)
        for beta, values in zip(betas, fidelities)
    ]


def default_beta_grid(points: int = 21) -> np.ndarray:
    """Evenly spaced beta angles across [0, pi]."""
    if points < 1:
        raise ValueError("need at least one grid point")
    return np.linspace(0.0, np.pi, points)


def _sweep_cells(protocols, n_list, delta_t, run_cells, cells=None) -> list[ExperimentRecord]:
    """Records of every (protocol, n), compiled once each and run by run_cells.

    ``run_cells(protocol, n, program)`` returns that program's records.  They
    are sorted by (protocol, n, beta, error scale); a sweep varies only one
    of the last two.  A ``cells`` list receives one summary per (protocol, n):
    its wall time and shots per second, compile included, and for a banged
    program its count of negative-duration segments.
    """
    records = []
    for protocol in protocols:
        for n in n_list:
            start = time.perf_counter()
            program = build_protocol_program(protocol, n, delta_t)
            cell_records = run_cells(protocol, n, program)
            wall_s = time.perf_counter() - start
            records += cell_records
            if cells is not None:
                summary = {
                    "protocol": program.metadata["protocol"],
                    "n_qubits": n,
                    "wall_s": wall_s,
                    "shots_per_s": sum(record.shots for record in cell_records) / wall_s,
                }
                if program.metadata.get("mode") == "banged":
                    summary["negative_segments"] = program.metadata["negative_segments"]
                cells.append(summary)
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
    cells: list | None = None,
) -> list[ExperimentRecord]:
    """One record per (protocol, n, beta), sorted by that key.

    A grid of more than one beta runs each shot once per (protocol, n) for
    all its cells (see ``_grid_records``), and its records agree with
    per-cell ``monte_carlo`` runs to rounding; a one-point grid is one
    ``monte_carlo`` cell.  ``cells`` collects per-(protocol, n) timings (see
    ``_sweep_cells``).
    """
    beta_grid = np.asarray(beta_grid, dtype=float)
    if not beta_grid.size:
        raise ValueError("empty beta grid")
    if beta_grid.min() < -1e-12 or beta_grid.max() > np.pi + 1e-12:
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

    return _sweep_cells(protocols, n_list, delta_t, run_cells, cells)


def sweep_error_scale(
    protocols,
    n_list,
    scale_grid,
    shots: int,
    config: NoiseConfig | None = None,
    delta_t: float = DEFAULT_DELTA_T,
    workers: int = 1,
    beta: float = ERROR_SCALE_BETA,
    cells: list | None = None,
) -> list[ExperimentRecord]:
    """Scale all noise widths by a common factor, at one beta (ERROR_SCALE_BETA by default).

    Each shot runs once per (protocol, n) for the whole grid: the cells
    share the shot's standard draws, which each scale maps to its own draws,
    though not its unitary, and a block holds S*ceil(shots / workers) rows
    for S scales.  The records equal per-scale ``monte_carlo`` cells exactly.
    ``cells`` collects per-(protocol, n) timings (see ``_sweep_cells``).
    """
    if config is None:
        config = NoiseConfig()
    scales = [float(scale) for scale in scale_grid]
    if not scales:
        raise ValueError("empty error-scale grid")
    if any(scale < 0 for scale in scales):
        raise ValueError("error scales must be >= 0")
    _check_run(shots, workers)
    configs = [replace(config, error_scale=scale) for scale in scales]

    def run_cells(protocol, n, program):
        return _scale_records(protocol, n, program, beta, shots, configs, delta_t, workers)

    return _sweep_cells(protocols, n_list, delta_t, run_cells, cells)


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
