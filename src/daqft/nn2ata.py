"""Connectivity compiler: run all-to-all Ising dynamics on a nearest-neighbor line.

The complete graph K_L (even L) splits into L/2 edge-disjoint Hamiltonian
paths.  Relabeling the physical line onto each path in turn — transpositions
implemented by iSWAP gates, which conjugate Z supports exactly — makes one
line evolution per path; their product reproduces the homogeneous
all-to-all evolution at matched time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ising import IsingSpec, all_pairs, coupling_diagonal
from .statevector import phase_insensitive_distance

VERIFY_TOL = 1e-9


@dataclass(frozen=True)
class HamiltonianPath:
    """An ordering of 1..L: a path through K_L, or a line layout; consecutive pairs are edges."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        size = len(self.vertices)
        if sorted(self.vertices) != list(range(1, size + 1)):
            raise ValueError(f"path {self.vertices} does not visit every vertex exactly once")

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        pairs = zip(self.vertices, self.vertices[1:])
        return tuple((min(a, b), max(a, b)) for a, b in pairs)


def _zigzag_vertex(length: int, k: int, position: int) -> int:
    """Vertex at one position of the k-th zigzag path.

    The running index wraps modulo L and is shifted by one to land in 1..L.
    """
    if position % 2 == 0:
        running = k - 1 + position // 2
    else:
        running = k - 1 - (position + 1) // 2
    return running % length + 1


def hp_permutation(length: int, k: int) -> HamiltonianPath:
    """The k-th zigzag Hamiltonian path of K_length.

    Walks outward from vertex k, alternating forward and backward around the
    cyclic vertex order, so consecutive path edges sweep every chord length.
    """
    if length < 2:
        raise ValueError("need at least two vertices")
    if not 0 <= k <= length // 2:
        raise ValueError(f"path index {k} outside 0..{length // 2}")
    return HamiltonianPath(tuple(_zigzag_vertex(length, k, j) for j in range(length)))


@dataclass(frozen=True)
class CoverReport:
    """Outcome of the edge-cover check of the zigzag paths."""

    length: int
    paths: tuple[HamiltonianPath, ...]
    covered: bool
    offending_edge: tuple[int, int] | None


def cover_report(length: int) -> CoverReport:
    """Generate the zigzag paths and verify they cover K_length exactly once.

    If they do not, the report carries the first repeated or missing edge.
    """
    if length < 2:
        raise ValueError("need at least two vertices")
    paths = tuple(hp_permutation(length, k) for k in range(1, length // 2 + 1))
    seen: set[tuple[int, int]] = set()
    offending = None
    for path in paths:
        for edge in path.edges:
            if edge in seen:
                offending = edge
                break
            seen.add(edge)
        if offending:
            break
    if offending is None:
        missing = [edge for edge in all_pairs(length) if edge not in seen]
        offending = missing[0] if missing else None
    return CoverReport(length, paths, offending is None, offending)


def decompose_complete_graph(length: int) -> tuple[HamiltonianPath, ...]:
    """Edge-disjoint Hamiltonian paths covering K_length (even L only)."""
    report = cover_report(length)
    if not report.covered:
        raise ValueError(
            f"paths do not cover K_{length} exactly: offending edge {report.offending_edge}"
        )
    return report.paths


def line_resource(length: int) -> IsingSpec:
    """Unit-strength nearest-neighbor line with open ends."""
    return IsingSpec(length, {(i, i + 1): 1.0 for i in range(1, length)})


def _iswap_map(n_qubits: int, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the iSWAP between qubits i and j sends each basis state, and whether it adds a phase i.

    It swaps the two bits and multiplies by i where they differ.
    """
    if i == j:
        raise ValueError("iSWAP needs two distinct qubits")
    index = np.arange(1 << n_qubits)
    bit_i = (index >> (n_qubits - i)) & 1
    bit_j = (index >> (n_qubits - j)) & 1
    differ = bit_i != bit_j
    return index ^ differ * ((1 << (n_qubits - i)) | (1 << (n_qubits - j))), differ


def iswap_unitary(n_qubits: int, i: int, j: int) -> np.ndarray:
    """Dense iSWAP between qubits i and j (i|01> -> i|10> style phases)."""
    swapped, differ = _iswap_map(n_qubits, i, j)
    dim = 1 << n_qubits
    matrix = np.zeros((dim, dim), dtype=complex)
    matrix[swapped, np.arange(dim)] = np.where(differ, 1j, 1.0 + 0j)
    return matrix


# i**t for t = 0..3, each zero part unsigned as in a dense product of iSWAPs.
_QUARTER_TURNS = np.array([complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1)])


def relabel_unitary(target: HamiltonianPath) -> np.ndarray:
    """Product of iSWAPs whose conjugation moves Z at position p to label vertices[p - 1].

    Walks each layout cycle from its smallest position, with one iSWAP to each later member.
    Each iSWAP is a permutation with unit phases, so the product is composed as one:
    column c of it holds i**t in the row where the iSWAPs carry basis state c, t the
    number of them that find its two bits differing.
    """
    size = target.size
    columns = np.arange(1 << size)
    rows, turns = columns, np.zeros(1 << size, dtype=np.intp)
    seen: set[int] = set()
    for start in range(1, size + 1):
        if start in seen:
            continue
        member = target.vertices[start - 1]
        while member != start:
            seen.add(member)
            swapped, differ = _iswap_map(size, start, member)
            turns = turns + differ[rows]
            rows = swapped[rows]
            member = target.vertices[member - 1]
    matrix = np.zeros((1 << size, 1 << size), dtype=complex)
    matrix[rows, columns] = _QUARTER_TURNS[turns % 4]
    return matrix


@dataclass(frozen=True)
class SimulationReport:
    """Dense comparison of the path-by-path line evolution with the ATA target."""

    length: int
    paths: tuple[HamiltonianPath, ...]
    distance: float
    passed: bool
    offending_path: tuple[int, ...] | None


def verify_nn_simulates_ata(length: int) -> SimulationReport:
    """Check that relabeled line evolutions compose to the all-to-all evolution.

    The resource is the unit-strength open line, run for unit time; each
    Hamiltonian path of the cover contributes one line evolution, conjugated
    by the iSWAP product that realizes the path's layout.
    """
    if length < 2 or length > 6:
        raise ValueError("dense verification supports 2 <= L <= 6")
    paths = decompose_complete_graph(length)
    line_phase = np.exp(1j * coupling_diagonal(line_resource(length)))

    dim = 1 << length
    built = np.eye(dim, dtype=complex)
    offending = None
    worst = 0.0
    for path in paths:
        relabel = relabel_unitary(path)
        term = (relabel * line_phase) @ relabel.conj().T
        path_spec = IsingSpec(length, dict.fromkeys(path.edges, 1.0))
        expected = np.diag(np.exp(1j * coupling_diagonal(path_spec)))
        error = float(np.max(np.abs(term - expected)))
        if error > worst:
            worst = error
            offending = path.vertices
        built = term @ built

    target = np.exp(1j * coupling_diagonal(IsingSpec.homogeneous(length)))
    distance = phase_insensitive_distance(built, np.diag(target))
    passed = distance < VERIFY_TOL
    return SimulationReport(
        length=length,
        paths=paths,
        distance=distance,
        passed=passed,
        offending_path=None if passed else offending,
    )


def paths_dump(paths) -> str:
    """One path per line, vertices space-separated."""
    return "\n".join(" ".join(str(v) for v in path.vertices) for path in paths) + "\n"
