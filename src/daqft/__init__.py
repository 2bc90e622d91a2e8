"""Digital-analog quantum Fourier transform simulator.

Dense statevector simulation of the QFT under three execution models — the
Hadamard/ZZ-construction digital circuit (DQC), stepwise digital-analog
schedules (sDAQC), and banged schedules with an always-on resource Hamiltonian
(bDAQC) — plus the coherent-noise Monte-Carlo experiments comparing them.
"""

from .daqc import (
    DEFAULT_DELTA_T,
    DaqcSchedule,
    SingularSignMatrixError,
    banged_segment_durations,
    build_bdaqc_schedule,
    build_sdaqc_schedule,
    compile_qft_daqc,
    schedule_dump,
    schedule_program,
    sign_matrix,
    solve_residual,
    solve_times,
)
from .ising import IsingSpec, all_pairs, coupling_diagonal
from .noise import (
    ExperimentRecord,
    NoiseConfig,
    beta_average,
    build_protocol_program,
    default_beta_grid,
    load_noise_config,
    make_sampler,
    monte_carlo,
    records_to_csv,
    sweep_beta,
    sweep_error_scale,
)
from .nn2ata import (
    HamiltonianPath,
    decompose_complete_graph,
    hp_permutation,
    verify_nn_simulates_ata,
)
from .program import Program, execute_program, program_unitary
from .qft import (
    beta_state,
    build_dqc_circuit,
    exact_qft,
    ghz_state,
    qft_matrix,
    w_state,
    zz_gate_sequence,
)
from .statevector import Statevector, fidelity, phase_insensitive_distance

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_DELTA_T",
    "DaqcSchedule",
    "ExperimentRecord",
    "HamiltonianPath",
    "IsingSpec",
    "NoiseConfig",
    "Program",
    "SingularSignMatrixError",
    "Statevector",
    "all_pairs",
    "banged_segment_durations",
    "beta_average",
    "beta_state",
    "build_bdaqc_schedule",
    "build_dqc_circuit",
    "build_protocol_program",
    "build_sdaqc_schedule",
    "compile_qft_daqc",
    "coupling_diagonal",
    "decompose_complete_graph",
    "default_beta_grid",
    "exact_qft",
    "execute_program",
    "fidelity",
    "ghz_state",
    "hp_permutation",
    "load_noise_config",
    "make_sampler",
    "monte_carlo",
    "phase_insensitive_distance",
    "program_unitary",
    "qft_matrix",
    "records_to_csv",
    "schedule_dump",
    "schedule_program",
    "sign_matrix",
    "solve_residual",
    "solve_times",
    "sweep_beta",
    "sweep_error_scale",
    "verify_nn_simulates_ata",
    "w_state",
    "zz_gate_sequence",
]
