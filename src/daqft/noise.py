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

from .daqc import _TINY, DEFAULT_DELTA_T, compile_qft_daqc
from .program import Program, _run, execute_program
from .qft import beta_state, build_dqc_circuit, exact_qft, ghz_state, readout_instruction, w_state
from .statevector import _fidelities, fidelity

PROTOCOLS = ("dqc", "sdaqc", "bdaqc")
PROTOCOL_LABELS = {"dqc": "DQC", "sdaqc": "sDAQC", "bdaqc": "bDAQC"}
_MODES = {"dqc": None, "sdaqc": "stepwise", "bdaqc": "banged"}  # each program's metadata["mode"]
ERROR_SCALE_BETA = np.pi / 4  # the input angle of every error-scale sweep


def _is_real(value) -> bool:
    """A real number and not a bool (JSON true/false would pass as 1/0)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class NoiseConfig:
    """Widths of the three coherent-noise channels plus the experiment seed."""

    sqgn: float = 0.0005
    tqgn: float = 0.2  # the std of the entangler phase offset; a variance v is tqgn = sqrt(v)
    abn_s: float = 0.02
    abn_b: float = 0.01
    error_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sqgn", "tqgn", "abn_s", "abn_b", "error_scale"):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
            object.__setattr__(self, name, abs(value))  # -0.0 passes, but would print as -0.0
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit non-negative integer, got {seed!r}")


# Keys accepted in a noise-config JSON file.  delta_t rides along because a
# run is not reproducible without it, but it is not a NoiseConfig field.
CONFIG_FILE_KEYS = tuple(f.name for f in fields(NoiseConfig)) + ("delta_t",)


_CHANNELS = ("sqg", "tqg", "abn_s", "abn_b")  # sqg draws are uniform, the others normal


def _channel_maps(config: NoiseConfig) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per channel (in _CHANNELS order), the offset and scale of its draw's affine map."""
    half_width = config.sqgn * config.error_scale
    low, high = 1.0 - half_width, 1.0 + half_width
    scale = config.error_scale
    return (low, 0.0, 0.0, 0.0), (high - low, config.tqgn * scale, config.abn_s * scale, config.abn_b * scale)


@dataclass(frozen=True, eq=False)
class NoiseSites:
    """Where one shot's noise draws land in a program.

    ``channels`` holds the channel of each draw site in program order (an
    index into _CHANNELS), as ``Program._operand_layout`` places them, and
    ``runs`` cuts the sites into maximal runs of one distribution,
    (uniform, sites) each.
    """

    channels: np.ndarray
    runs: tuple[tuple[bool, slice], ...]

    @classmethod
    def for_program(cls, program: Program) -> NoiseSites:
        """The program's table; an instruction with no noise model raises UnsupportedGateError."""
        channels = [_CHANNELS.index(name) for name in program._operand_layout[0]]
        runs, start = [], 0
        for uniform, group in itertools.groupby(channel == 0 for channel in channels):
            stop = start + len(list(group))
            runs.append((uniform, slice(start, stop)))
            start = stop
        return cls(np.array(channels, dtype=np.intp), tuple(runs))

    def draws(self, standard: np.ndarray, configs) -> np.ndarray:
        """The (rows, sites) noise values that ``program._run`` takes.

        ``standard`` holds k shots' standard draws, one row per shot (see
        ``sample_noise``).  Each config maps them through its channel maps,
        ``offset + scale * standard``: SQG's amplitude factor
        DeltaB ~ U(1-s, 1+s), TQG's phase offset eps ~ N(0, sigma) and ABN's
        time offset delta ~ N(0, width).  These are the maps rng.uniform and
        rng.normal apply, so the values equal theirs bit for bit, and zero
        widths give the ideal values exactly.  The rows run (config, shot).
        """
        offsets, scales = (
            np.array(maps)[:, None, None, self.channels]
            for maps in zip(*(_channel_maps(config) for config in configs))
        )
        return (offsets + scales * standard).reshape(-1, standard.shape[1])


def sample_noise(sites: NoiseSites, rng: np.random.Generator) -> np.ndarray:
    """One shot's standard draws of a site table, in program order.

    A uniform site draws U[0, 1) and the others N(0, 1); each run is one
    numpy call, which gives the same doubles as that many scalar calls.
    Every site consumes a draw whatever the widths, which keeps draw
    sequences aligned across error scales; ``NoiseSites.draws`` maps the
    draws through any config.
    """
    standard = np.empty(len(sites.channels))
    for uniform, run in sites.runs:
        if uniform:
            rng.random(out=standard[run])
        else:
            rng.standard_normal(out=standard[run])
    return standard


def make_sampler(rng: np.random.Generator):
    """A sampler that maps a program's ``NoiseSites`` table to one shot's draws from rng."""

    def sampler(sites):
        return sample_noise(sites, rng)

    return sampler


def build_protocol_program(protocol: str, n_qubits: int, delta_t: float = DEFAULT_DELTA_T) -> Program:
    """The full QFT program (including readout relabeling) for one protocol."""
    name = protocol.lower()
    if name == "dqc":
        instructions = build_dqc_circuit(n_qubits) + (readout_instruction(n_qubits),)
        return Program(n_qubits, instructions, metadata={"protocol": "dqc"})
    if name not in _MODES:
        raise ValueError(f"unknown protocol {protocol!r}")
    program = compile_qft_daqc(n_qubits, _MODES[name], delta_t)
    program.metadata["protocol"] = name
    return program


# NumPy's SeedSequence hash (NEP 19; O'Neill's seed_seq) in uint32 words: its
# hash constant starts at INIT and is multiplied by MULT at each use.
_MASK = 0xFFFFFFFF
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_HASH = [0x43B0D7E5 * 0x931E8875 ** k & _MASK for k in range(17)]  # 4 + 12 hashmix calls
_STATE_HASH = np.array([0x8B51F9DD * 0x58F38DED ** k & _MASK for k in range(9)], np.uint32)  # 8 words


class _HashedSeed:
    """A seed sequence whose PCG64 state words are already hashed (PCG64 asks for 4 uint64).

    ``_shot_rngs`` registers it as an ``ISeedSequence`` when it first needs
    one, so importing daqft does not import numpy.random.
    """

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self._state


def _shot_rngs(seed: int, shots: range) -> list[np.random.Generator]:
    """Each shot's generator, bit for bit ``np.random.default_rng([seed, i])``.

    Shots are independent streams keyed by index.  ``SeedSequence([seed, i])``
    hashes the little-endian 32-bit words of seed and of i (0 is one word)
    into a 4-word pool, and PCG64 seeds from its ``generate_state(4, uint64)``.
    Here that hash runs once over the batch in uint32 arithmetic: the seed's
    words stay scalars and only terms that involve i are arrays.  An index
    of 2^32 or more has two words, so such a batch calls default_rng per shot,
    as does a batch under 8 shots, where the pass costs more than those calls.
    """
    if shots.stop > 2 ** 32 or len(shots) < 8:
        return [np.random.default_rng([seed, i]) for i in shots]
    words = [seed & _MASK, seed >> 32] if seed >> 32 else [seed]
    calls = iter(zip(_POOL_HASH, _POOL_HASH[1:]))

    def hashmix(value):
        xor, mult = next(calls)
        value = (value ^ xor) * mult
        return value ^ value >> 16

    with np.errstate(over="ignore"):  # uint32 products wrap, as in SeedSequence
        entropy = [np.uint32(word) for word in words]
        entropy.append(np.arange(shots.start, shots.stop, dtype=np.uint32))
        pool = [hashmix(value) for value in entropy + [np.uint32(0)] * (4 - len(entropy))]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                    pool[dst] = mixed ^ mixed >> 16
        state = (np.stack(pool * 2, axis=1) ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]
    state ^= state >> 16
    rows = state.view("<u8").astype(np.uint64, copy=False)
    np.random.bit_generator.ISeedSequence.register(_HashedSeed)
    return [np.random.Generator(np.random.PCG64(_HashedSeed(row))) for row in rows]


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
        if not self.std_fidelity >= 0:  # NaN fails too
            raise ValueError(f"std fidelity {self.std_fidelity} is not >= 0")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta {self.beta} is not finite")


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


def _cell_records(protocol, n_qubits, program, betas, shots, configs, delta_t, workers):
    """One record per (config, beta) of a (protocol, n), from one run of each shot.

    One beta runs its own state, and each output row is scored as it is.
    More betas run |W> and |GHZ>: shot i applies one unitary U_i, so its
    output at beta is sin(beta) U_i|W> + cos(beta) U_i|GHZ>, as beta_state is.
    Shot i's sampler, on a generator keyed by (seed, i) of the configs' one
    seed, is called once on the program's ``NoiseSites`` table, and each
    config maps those standard draws.  The shots run in ``workers`` batches,
    in turn; a batch of b shots is one (S*b, 2^n, R) block of S configs and R
    inputs, whose register rows run (config, shot) and whose inputs share
    their row's draws and operands.  ``configs`` of ``[None]`` runs the inputs
    once, without draws, for every shot.
    """
    if len(betas) == 1:
        states = [beta_state(n_qubits, betas[0])]
    else:
        states = [w_state(n_qubits), ghz_state(n_qubits)]
    inputs = np.stack([state.amplitudes for state in states]).T
    references = [exact_qft(beta_state(n_qubits, beta)).amplitudes for beta in betas]

    ideal = configs == [None]
    sites = None if ideal else NoiseSites.for_program(program)
    parts = []
    for indices in [range(1)] if ideal else _shot_batches(shots, workers):
        block = np.broadcast_to(inputs, (len(configs) * len(indices),) + inputs.shape)
        draws = None
        if not ideal:
            rngs = _shot_rngs(configs[0].seed, indices)
            standard = np.array([make_sampler(rng)(sites) for rng in rngs])
            draws = sites.draws(standard, configs)
        out = _run(program, block, draws).reshape((len(configs), len(indices)) + inputs.shape)
        parts.append([  # (S, X, b): each config's (R, b, 2^n) outputs scored at each beta
            [
                _fidelities(
                    reference,
                    rows[0] if len(betas) == 1 else math.sin(beta) * rows[0] + math.cos(beta) * rows[1],
                )
                for beta, reference in zip(betas, references)
            ]
            for rows in np.moveaxis(out, -1, 1)
        ])
    fidelities = np.concatenate(parts, axis=-1)
    if ideal:
        fidelities = np.repeat(fidelities, shots, axis=-1)
    return [
        _record(protocol, n_qubits, beta, shots, config, delta_t, values)
        for config, per_beta in zip(configs, fidelities)
        for beta, values in zip(betas, per_beta)
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
    table.  The shots run as blocks with one register row per shot:
    ``workers`` is the number of blocks, run in turn, so a block holds at
    most ceil(shots / workers) rows of 2^n amplitudes.  No result depends
    on it.  ``program`` is the compiled protocol program when the caller
    reuses one across cells; by default it is compiled here.  A program of
    another register size, one whose ``metadata["protocol"]`` names another
    protocol or whose ``metadata["mode"]`` is not this protocol's, or a
    banged one compiled at another ``delta_t``, raises ValueError, so the
    record describes the program it ran.  ``config`` None runs the program
    once through ``execute_program``.  A sweep of one cell per (protocol, n)
    comes here; larger grids run each shot once for all their cells.
    """
    _check_run(shots, workers)
    name = protocol.lower()
    if name not in _MODES:
        raise ValueError(f"unknown protocol {protocol!r}")
    if program is None:
        program = build_protocol_program(protocol, n_qubits, delta_t)
    if program.n_qubits != n_qubits:
        raise ValueError(f"program has {program.n_qubits} qubits, expected {n_qubits}")
    if program.metadata.get("protocol", name) != name:
        raise ValueError(f"program is a {program.metadata['protocol']} program, not {protocol}")
    mode = program.metadata.get("mode")
    if mode != _MODES.get(name):
        raise ValueError(f"program has schedule mode {mode!r}, not {protocol}'s")
    if mode == "banged" and program.metadata["delta_t"] != delta_t:
        raise ValueError(f"program has delta_t {program.metadata['delta_t']!r}, not {delta_t!r}")
    if config is not None:
        return _cell_records(protocol, n_qubits, program, [beta], shots, [config], delta_t, workers)[0]
    # An ideal cell stays one public execute_program run, the only sweep path
    # to execute_program and statevector.fidelity (perfbench traces both);
    # _cell_records's ideal case would give the same bits.
    state = beta_state(n_qubits, beta)
    value = fidelity(exact_qft(state), execute_program(state, program))
    return _record(protocol, n_qubits, beta, shots, config, delta_t, np.full(shots, value))


def default_beta_grid(points: int = 21) -> np.ndarray:
    """Evenly spaced beta angles across [0, pi]."""
    if points < 1:
        raise ValueError("need at least one grid point")
    return np.linspace(0.0, np.pi, points)


def _sweep_cells(protocols, n_list, delta_t, betas, configs, shots, workers, cells=None):
    """Records of every (protocol, n) over a (config, beta) grid, each program compiled once.

    A (protocol, n) with one cell is one ``monte_carlo`` call on its
    program; a larger grid runs each shot once for all its cells (see
    ``_cell_records``).  Records are sorted by (protocol, n, beta, error
    scale); a sweep varies only one of the last two.  A ``cells`` list
    receives one summary per (protocol, n): its wall time and shots per
    second, compile included, and for a DAQC program its count of
    negative-duration analog blocks and its per-block analog durations.
    """
    _check_run(shots, workers)
    records = []
    for protocol in protocols:
        for n in n_list:
            start = time.perf_counter()
            program = build_protocol_program(protocol, n, delta_t)
            if len(betas) * len(configs) == 1:
                cell_records = [
                    monte_carlo(protocol, n, betas[0], shots, configs[0], delta_t, workers, program)
                ]
            else:
                cell_records = _cell_records(
                    protocol, n, program, betas, shots, configs, delta_t, workers
                )
            wall_s = time.perf_counter() - start
            records += cell_records
            if cells is not None:
                summary = {
                    "protocol": program.metadata["protocol"],
                    "n_qubits": n,
                    "wall_s": wall_s,
                    "shots_per_s": sum(record.shots for record in cell_records) / wall_s,
                }
                for key in ("negative_segments", "block_times"):
                    if key in program.metadata:
                        summary[key] = program.metadata[key]
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
    all its betas, on |W> and |GHZ>, and its records agree with per-cell
    ``monte_carlo`` runs to rounding; a one-point grid is one
    ``monte_carlo`` cell.  ``cells`` collects per-(protocol, n) timings (see
    ``_sweep_cells``).
    """
    beta_grid = np.asarray(beta_grid, dtype=float)
    if not beta_grid.size:
        raise ValueError("empty beta grid")
    if not np.all((beta_grid >= -1e-12) & (beta_grid <= np.pi + 1e-12)):  # NaN fails too
        raise ValueError("beta grid must lie within [0, pi]")
    betas = [float(beta) for beta in beta_grid]
    return _sweep_cells(protocols, n_list, delta_t, betas, [config], shots, workers, cells)


def sweep_error_scale(
    protocols,
    n_list,
    scale_grid,
    shots: int,
    config: NoiseConfig,
    delta_t: float = DEFAULT_DELTA_T,
    workers: int = 1,
    cells: list | None = None,
) -> list[ExperimentRecord]:
    """Scale all noise widths by a common factor, at beta = ERROR_SCALE_BETA.

    Each shot runs once per (protocol, n) for the whole grid: the scales
    share the shot's standard draws, which each maps to its own draws, and a
    block holds S*ceil(shots / workers) rows for S scales.  The records equal
    per-scale ``monte_carlo`` cells exactly; a one-scale grid is one.
    ``cells`` collects per-(protocol, n) timings (see ``_sweep_cells``).
    """
    if config.error_scale != 1.0:  # each scale of the grid would replace it
        raise ValueError(f"error_scale {config.error_scale!r} in the config: the scale grid sets it")
    scales = [float(scale) for scale in scale_grid]
    if not scales:
        raise ValueError("empty error-scale grid")
    if any(scale < 0 for scale in scales):
        raise ValueError("error scales must be >= 0")
    configs = [replace(config, error_scale=scale) for scale in scales]
    return _sweep_cells(
        protocols, n_list, delta_t, [ERROR_SCALE_BETA], configs, shots, workers, cells
    )


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
    with open(path, "r", encoding="utf-8-sig") as handle:  # skips a leading BOM
        try:
            data = json.load(handle)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("noise config must be a JSON object")
    unknown = sorted(set(data) - set(CONFIG_FILE_KEYS))
    if unknown:
        raise ValueError(f"unknown noise config keys: {', '.join(unknown)}")
    if "delta_t" not in data:
        return NoiseConfig(**data), None
    delta_t = data.pop("delta_t")
    if not (_is_real(delta_t) and math.isfinite(delta_t) and delta_t >= _TINY):  # JSON null fails too
        raise ValueError(f"delta_t must be a finite number > 0, got {delta_t!r}; a subnormal one fails")
    return NoiseConfig(**data), float(delta_t)


def config_to_dict(config: NoiseConfig, delta_t: float) -> dict:
    """Materialized noise settings for run manifests."""
    return {**asdict(config), "delta_t": delta_t}
