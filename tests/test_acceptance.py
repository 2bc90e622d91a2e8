"""Release gate: one test per acceptance criterion, with its stated tolerance.

Each test prints a `criterion NN PASS|FAIL: detail` line (visible with -s or
on failure) and then asserts, so `pytest -v` gives one verdict per criterion.
The noisy reproduction criteria share one 100-shot Monte-Carlo sweep.
"""

import hashlib
import time

import numpy as np
import pytest

from daqft.daqc import (
    SingularSignMatrixError,
    build_sdaqc_schedule,
    compile_qft_daqc,
    schedule_program,
    sign_matrix,
    solve_times,
)
from daqft.ising import IsingSpec, all_pairs, coupling_diagonal
from daqft.noise import (
    NoiseConfig,
    beta_average,
    default_beta_grid,
    monte_carlo,
    records_to_csv,
    sweep_beta,
    sweep_error_scale,
)
from daqft.nn2ata import decompose_complete_graph, verify_nn_simulates_ata
from daqft.program import AnalogBlock, Program, XGate, program_unitary
from daqft.qft import zz_gate_sequence
from daqft.statevector import phase_insensitive_distance


def report(index, passed, detail):
    print(f"criterion {index:02d} {'PASS' if passed else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def noisy_sweep():
    """100-shot beta sweep of all protocols at n in {5,6,7}, default noise."""
    grid = default_beta_grid(21)
    config = NoiseConfig()
    records = {}
    elapsed = {}
    for n in (5, 6, 7):
        start = time.monotonic()
        records[n] = sweep_beta(("dqc", "sdaqc", "bdaqc"), [n], grid, 100, config)
        elapsed[n] = time.monotonic() - start
    return records, elapsed


def test_criterion_01_ideal_digital_exactness():
    """Noiseless DQC and sDAQC hit fidelity one on the full beta grid."""
    start = time.monotonic()
    worst = 0.0
    for protocol in ("dqc", "sdaqc"):
        for n in (2, 3, 5, 6):
            for beta in default_beta_grid(21):
                value = monte_carlo(protocol, n, float(beta), 1, None).mean_fidelity
                worst = max(worst, abs(1.0 - value))
    runtime = time.monotonic() - start
    ok = worst < 1e-9 and runtime < 60
    report(1, ok, f"max |1-F| = {worst:.3e}, runtime {runtime:.1f}s")
    assert worst < 1e-9
    assert runtime < 60


def test_criterion_02_ideal_banged_bound():
    """Noiseless bDAQC stays inside (0.90, 1) at the default window width."""
    start = time.monotonic()
    low, high = 1.0, 0.0
    for n in (3, 5, 6, 7):
        for beta in default_beta_grid(21):
            value = monte_carlo("bdaqc", n, float(beta), 1, None).mean_fidelity
            low, high = min(low, value), max(high, value)
    runtime = time.monotonic() - start
    ok = 0.90 < low and high < 1.0 and runtime < 600
    report(2, ok, f"fidelity range [{low:.6f}, {high:.9f}], runtime {runtime:.1f}s")
    assert 0.90 < low
    assert high < 1.0
    assert runtime < 600


def _dense_x(n, qubit):
    """X on one qubit of an n-qubit register (qubit 1 most significant)."""
    return np.kron(np.kron(np.eye(1 << (qubit - 1)), [[0, 1], [1, 0]]), np.eye(1 << (n - qubit)))


def _window_error_coefficient(stepwise):
    """kappa = ||G - tr(G)/d||_F for the first-order window error generator G.

    Each banged window exp(i*dt*(H + (pi/(2*dt))*D)), D = X_j + X_k, equals
    exp(i*pi*D/2) exp(i*dt*A) + O(dt^2): the stepwise pulse pair preceded by
    the toggling-frame average A = int_0^1 exp(-i*s*pi*D/2) H exp(i*s*pi*D/2) ds
    (average-Hamiltonian theory, first order).  Each banged segment runs the
    stepwise block shortened by a time charge c*dt.  Moving every such
    correction to the start of the program through the stepwise prefix R
    gives U_stepwise^dag U_banged = exp(i*dt*G) + O(dt^2) with
    G = sum_windows R^dag A R - sum_segments c R^dag H R, so the
    phase-insensitive distance is kappa*dt + O(dt^2).  Built from the stepwise
    program and dense operators only; the banged kernel is not used.
    """
    n = stepwise.n_qubits
    dim = 1 << n
    h = np.diag(coupling_diagonal(IsingSpec.homogeneous(n))).astype(complex)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    nodes, weights = (nodes + 1.0) / 2.0, weights / 2.0

    def prefix(m):
        return program_unitary(Program(n, stepwise.instructions[:m]))

    def window_average(qubits):
        average = np.zeros((dim, dim), dtype=complex)
        for s, w in zip(nodes, weights):
            # exp(i*s*pi*D/2) factors into commuting single-qubit rotations.
            frame = np.eye(dim, dtype=complex)
            for q in qubits:
                frame = frame @ (np.cos(s * np.pi / 2) * np.eye(dim)
                                 + 1j * np.sin(s * np.pi / 2) * _dense_x(n, q))
            average += w * (frame.conj().T @ h @ frame)
        return average

    # Charge rule of banged_segment_durations: each schedule has one block per
    # pair; its first and last blocks lose 3/2 dt, interior blocks dt, and a
    # single-block schedule 2 dt.
    per_schedule = len(all_pairs(n))
    blocks = [m for m, instr in enumerate(stepwise.instructions) if isinstance(instr, AnalogBlock)]
    g = np.zeros((dim, dim), dtype=complex)
    for i, m in enumerate(blocks):
        pulses = stepwise.instructions[m - 2 : m]  # X_j, X_k opening the block
        assert all(isinstance(p, XGate) for p in pulses)
        average = window_average([p.qubit for p in pulses])
        position = i % per_schedule
        if per_schedule == 1:
            charge = 2.0
        elif position in (0, per_schedule - 1):
            charge = 1.5
        else:
            charge = 1.0
        for r in (prefix(m - 2), prefix(m + 1)):  # opening and closing windows
            g += r.conj().T @ average @ r
        r = prefix(m)
        g -= charge * (r.conj().T @ h @ r)
    return float(np.linalg.norm(g - np.trace(g) / dim * np.eye(dim)))


def test_criterion_03_banged_convergence_order():
    """Banged-vs-stepwise distance is kappa*dt + O(dt^2), kappa from the toggling frame.

    The constant-amplitude drive windows carry a first-order error, so the
    log-log slope must be 1 (within 0.05), and at small widths the distance
    must match the independently computed first-order prediction kappa*dt to
    1e-3 relative.
    """
    start = time.monotonic()
    stepwise_program = compile_qft_daqc(3, "stepwise")
    stepwise = program_unitary(stepwise_program)
    widths = np.logspace(-4, -1, 7)
    distances = np.array([
        phase_insensitive_distance(program_unitary(compile_qft_daqc(3, "banged", dt)), stepwise)
        for dt in widths
    ])
    slope = float(np.polyfit(np.log(widths), np.log(distances), 1)[0])
    kappa = _window_error_coefficient(stepwise_program)
    small = widths <= 1e-3
    ratios = distances[small] / (kappa * widths[small])
    worst = float(np.max(np.abs(ratios - 1.0)))
    runtime = time.monotonic() - start
    ok = abs(slope - 1.0) <= 0.05 and worst <= 1e-3 and runtime < 120
    detail = (
        f"log-log slope = {slope:.3f}, kappa = {kappa:.4f}, "
        f"worst |distance/(kappa*dt) - 1| = {worst:.2e} for dt <= 1e-3"
    )
    report(3, ok, f"{detail}, runtime {runtime:.1f}s")
    assert runtime < 120
    assert abs(slope - 1.0) <= 0.05, f"{detail}: the windows should converge at first order"
    assert worst <= 1e-3, f"{detail}: the distance departs from the toggling-frame prediction"


def test_criterion_04_compiler_exactness():
    """Stepwise schedules reproduce dense all-to-all evolutions exactly."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (2, 3, 5, 6):
        for _ in range(50):
            couplings = {pair: float(rng.normal()) for pair in all_pairs(n)}
            target = IsingSpec(n, couplings, target_time=float(rng.uniform(0.2, 2.0)))
            schedule = build_sdaqc_schedule(solve_times(target))
            built = program_unitary(schedule_program(schedule))
            ideal = np.diag(np.exp(1j * target.target_time * coupling_diagonal(target)))
            worst = max(worst, phase_insensitive_distance(built, ideal))
    runtime = time.monotonic() - start
    ok = worst < 1e-9 and runtime < 120
    report(4, ok, f"max distance = {worst:.3e} over 200 targets, runtime {runtime:.1f}s")
    assert worst < 1e-9
    assert runtime < 120


def test_criterion_05_four_qubit_singularity():
    """The sign matrix is singular exactly at N=4 and compilation says so."""
    det4 = float(np.linalg.det(sign_matrix(4)))
    others = {n: float(np.linalg.det(sign_matrix(n))) for n in (2, 3, 5, 6, 7, 8, 9, 10)}
    nonzero = all(abs(d) > 0.5 for d in others.values())
    with pytest.raises(SingularSignMatrixError, match="singular sign matrix for N=4"):
        compile_qft_daqc(4, "stepwise")
    ok = abs(det4) < 1e-9 and nonzero
    report(5, ok, f"det(M_4) = {det4:.1e}, min |det| elsewhere = {min(abs(d) for d in others.values()):.1e}")
    assert abs(det4) < 1e-9
    assert nonzero


def test_criterion_06_noisy_reproduction(noisy_sweep):
    """Beta-averaged noisy means at n=6 sit in the reference bands (100-shot CI)."""
    records, elapsed = noisy_sweep
    summary = beta_average(records[6])
    dqc = summary[("DQC", 6)]
    sdaqc = summary[("sDAQC", 6)]
    bdaqc = summary[("bDAQC", 6)]
    in_bands = abs(dqc.mean - 0.50) <= 0.15 and sdaqc.mean >= 0.55 and bdaqc.mean >= 0.65
    ok = in_bands and elapsed[6] < 600
    report(
        6,
        ok,
        f"DQC {dqc.mean:.4f}±{dqc.stderr:.4f}, sDAQC {sdaqc.mean:.4f}±{sdaqc.stderr:.4f}, "
        f"bDAQC {bdaqc.mean:.4f}±{bdaqc.stderr:.4f}, runtime {elapsed[6]:.1f}s",
    )
    assert abs(dqc.mean - 0.50) <= 0.15
    assert sdaqc.mean >= 0.55
    assert bdaqc.mean >= 0.65
    assert elapsed[6] < 600


def test_noisy_sweep_csv_digest(noisy_sweep):
    """The seed-0 fixture sweep reproduces its recorded CSV bytes (SHA-256)."""
    records, _ = noisy_sweep
    text = records_to_csv(records[5] + records[6] + records[7])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "272298795678c7dd157a7ecfeb9d4be1aacb00461760d2f2f239f59adaa38e98"


def test_criterion_07_protocol_ordering(noisy_sweep):
    """bDAQC beats sDAQC beats DQC, every gap above three combined errors."""
    records, _ = noisy_sweep
    details = []
    ok = True
    for n in (5, 6, 7):
        summary = beta_average(records[n])
        d, s, b = summary[("DQC", n)], summary[("sDAQC", n)], summary[("bDAQC", n)]
        gaps = [(b, s), (s, d)] if n in (5, 6) else [(b, s if s.mean > d.mean else d)]
        for high, low in gaps:
            margin = (high.mean - low.mean) / np.hypot(high.stderr, low.stderr)
            ok = ok and margin > 3
            details.append(f"n={n} gap {high.mean - low.mean:.4f} ({margin:.0f} SE)")
    report(7, ok, "; ".join(details))
    assert ok, details


def test_criterion_08_error_scale_sweep():
    """bDAQC fidelity at beta=pi/4 meets the per-size floors and decays monotonically."""
    scales = [0.0, 0.25, 0.5, 0.75, 1.0]
    records = sweep_error_scale(["bdaqc"], [3, 5, 6], scales, 100, NoiseConfig())
    floors = {3: 0.99, 5: 0.85, 6: 0.70}
    details = []
    ok = True
    for n, floor in floors.items():
        rows = [r for r in records if r.n_qubits == n]
        rows.sort(key=lambda r: r.error_scale)
        final = rows[-1]
        ok = ok and final.mean_fidelity > floor
        details.append(f"n={n} scale-1 mean {final.mean_fidelity:.4f} (floor {floor})")
        for a, c in zip(rows, rows[1:]):
            slack = 2 * np.hypot(
                a.std_fidelity / np.sqrt(a.shots), c.std_fidelity / np.sqrt(c.shots)
            )
            ok = ok and c.mean_fidelity <= a.mean_fidelity + slack
    report(8, ok, "; ".join(details))
    for n, floor in floors.items():
        rows = sorted((r for r in records if r.n_qubits == n), key=lambda r: r.error_scale)
        assert rows[-1].mean_fidelity > floor
        for a, c in zip(rows, rows[1:]):
            slack = 2 * np.hypot(
                a.std_fidelity / np.sqrt(a.shots), c.std_fidelity / np.sqrt(c.shots)
            )
            assert c.mean_fidelity <= a.mean_fidelity + slack


def test_criterion_09_zz_construction_identity():
    """The 7-gate ZZ sequence equals the direct two-body phase, any angle."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        program = Program(2, zz_gate_sequence(angle, 1, 2))
        built = program_unitary(program)
        ideal = np.diag(np.exp(1j * angle * np.array([1.0, -1.0, -1.0, 1.0])))
        worst = max(worst, phase_insensitive_distance(built, ideal))
    ok = worst < 1e-10
    report(9, ok, f"max distance = {worst:.3e} over 100 angles")
    assert worst < 1e-10


def test_criterion_10_line_to_all_to_all():
    """Complete graphs decompose into line runs that verify densely."""
    start = time.monotonic()
    for length in (2, 4, 6, 8):
        paths = decompose_complete_graph(length)
        edges = [edge for path in paths for edge in path.edges]
        assert sorted(edges) == list(all_pairs(length))
    worst = 0.0
    for length in (2, 4, 6):
        sim = verify_nn_simulates_ata(length)
        assert sim.passed
        worst = max(worst, sim.distance)
    runtime = time.monotonic() - start
    ok = worst < 1e-9 and runtime < 60
    report(10, ok, f"max dense distance = {worst:.3e}, runtime {runtime:.1f}s")
    assert worst < 1e-9
    assert runtime < 60


def test_criterion_11_deterministic_output():
    """Identical seeds give byte-identical CSVs, and records equal bit for bit, under any number of shot batches."""
    grid = default_beta_grid(5)
    config = NoiseConfig(seed=21)
    records = [
        sweep_beta(("dqc", "sdaqc", "bdaqc"), [3], grid, 10, config, workers=w)
        for w in (1, 1, 3, 10)
    ]
    runs = [records_to_csv(run) for run in records]
    bits = [np.array([(r.mean_fidelity, r.std_fidelity) for r in run]).tobytes() for run in records]
    ok = len(set(runs)) == 1 and len(set(bits)) == 1
    detail = f"{len(runs[0].splitlines()) - 1} rows, repeat, 3-batch and one-shot-batch runs identical"
    report(11, ok, f"{detail}: {ok}")
    assert runs[0] == runs[1] == runs[2] == runs[3]
    assert bits[0] == bits[1] == bits[2] == bits[3]
