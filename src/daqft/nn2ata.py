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
class VertexPermutation:
    """A relabeling of the L line positions, stored as the label sequence."""

    size: int
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if sorted(self.mapping) != list(range(1, self.size + 1)):
            raise ValueError(f"mapping {self.mapping} is not a bijection on 1..{self.size}")


@dataclass(frozen=True)
class HamiltonianPath:
    """An ordering of all L vertices; consecutive pairs are its edges."""

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


def hp_permutation(length: int, k: int) -> VertexPermutation:
    """The k-th Hamiltonian-path ordering of K_length as a vertex permutation.

    Walks outward from vertex k, alternating forward and backward around the
    cyclic vertex order, so consecutive path edges sweep every chord length.
    """
    if length < 2:
        raise ValueError("need at least two vertices")
    if not 0 <= k <= length // 2:
        raise ValueError(f"path index {k} outside 0..{length // 2}")
    mapping = tuple(_zigzag_vertex(length, k, j) for j in range(length))
    return VertexPermutation(length, mapping)


def apply_permutation_to_layout(current: VertexPermutation, i: int, j: int) -> VertexPermutation:
    """Entrywise transposition of labels i and j in a layout."""
    if i == j:
        raise ValueError("relabeling needs two distinct labels")
    swap = {i: j, j: i}
    mapping = tuple(swap.get(label, label) for label in current.mapping)
    return VertexPermutation(current.size, mapping)


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
    paths = tuple(
        HamiltonianPath(hp_permutation(length, k).mapping) for k in range(1, length // 2 + 1)
    )
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


def line_resource(length: int, g: float = 1.0, target_time: float = 1.0) -> IsingSpec:
    """Homogeneous nearest-neighbor line with open ends."""
    couplings = {(i, i + 1): g for i in range(1, length)}
    return IsingSpec(length, couplings, resource_coupling=g, target_time=target_time)


def iswap_unitary(n_qubits: int, i: int, j: int) -> np.ndarray:
    """Dense iSWAP between qubits i and j (i|01> -> i|10> style phases)."""
    if i == j:
        raise ValueError("iSWAP needs two distinct qubits")
    dim = 1 << n_qubits
    index = np.arange(dim)
    bit_i = (index >> (n_qubits - i)) & 1
    bit_j = (index >> (n_qubits - j)) & 1
    swapped = (
        index
        - bit_i * (1 << (n_qubits - i))
        - bit_j * (1 << (n_qubits - j))
        + bit_j * (1 << (n_qubits - i))
        + bit_i * (1 << (n_qubits - j))
    )
    matrix = np.zeros((dim, dim), dtype=complex)
    matrix[swapped, index] = np.where(bit_i != bit_j, 1j, 1.0 + 0j)
    return matrix


def transpositions_for_layout(target: VertexPermutation) -> tuple[tuple[int, int], ...]:
    """Label transpositions turning the identity layout into the target one."""
    sigma = {pos: target.mapping[pos - 1] for pos in range(1, target.size + 1)}
    steps: list[tuple[int, int]] = []
    seen: set[int] = set()
    for start in sorted(sigma):
        if start in seen or sigma[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        node = sigma[start]
        while node != start:
            cycle.append(node)
            node = sigma[node]
        seen.update(cycle)
        for member in cycle[1:]:
            steps.append((start, member))
    layout = VertexPermutation(target.size, tuple(range(1, target.size + 1)))
    for i, j in steps:
        layout = apply_permutation_to_layout(layout, i, j)
    if layout != target:
        raise RuntimeError(f"transposition synthesis failed for layout {target.mapping}")
    return tuple(steps)


def relabel_unitary(target: VertexPermutation) -> np.ndarray:
    """Product of iSWAPs whose conjugation relabels Z_i to Z at the target label."""
    dim = 1 << target.size
    matrix = np.eye(dim, dtype=complex)
    for i, j in transpositions_for_layout(target):
        matrix = iswap_unitary(target.size, i, j) @ matrix
    return matrix


@dataclass(frozen=True)
class SimulationReport:
    """Dense comparison of the path-by-path line evolution with the ATA target."""

    length: int
    paths: tuple[HamiltonianPath, ...]
    distance: float
    tolerance: float
    passed: bool
    offending_path: tuple[int, ...] | None


def verify_nn_simulates_ata(
    length: int, resource: IsingSpec | None = None, tolerance: float = VERIFY_TOL
) -> SimulationReport:
    """Check that relabeled line evolutions compose to the all-to-all evolution.

    The resource must be a homogeneous open line; each Hamiltonian path of the
    cover contributes one line evolution at the full target time, conjugated
    by the iSWAP product that realizes the path's layout.
    """
    if length < 2 or length > 6:
        raise ValueError("dense verification supports 2 <= L <= 6")
    if resource is None:
        resource = line_resource(length)
    if resource.n_qubits != length:
        raise ValueError(f"resource has {resource.n_qubits} qubits, expected {length}")
    line_edges = {(i, i + 1) for i in range(1, length)}
    if set(resource.couplings) != line_edges:
        raise NotImplementedError("resource must couple exactly the nearest-neighbor line")
    strengths = set(resource.couplings.values())
    if len(strengths) != 1:
        raise NotImplementedError("weighted lines are not implemented; couplings must be equal")

    report = cover_report(length)
    if not report.covered:
        raise ValueError(
            f"paths do not cover K_{length} exactly: offending edge {report.offending_edge}"
        )
    g = strengths.pop()
    time = resource.target_time
    line_phase = np.exp(1j * time * coupling_diagonal(resource))

    dim = 1 << length
    built = np.eye(dim, dtype=complex)
    offending = None
    worst = 0.0
    for path in report.paths:
        layout = VertexPermutation(length, path.vertices)
        relabel = relabel_unitary(layout)
        term = (relabel * line_phase) @ relabel.conj().T
        path_spec = IsingSpec(length, {edge: g for edge in path.edges})
        expected = np.diag(np.exp(1j * time * coupling_diagonal(path_spec)))
        error = float(np.max(np.abs(term - expected)))
        if error > worst:
            worst = error
            offending = path.vertices
        built = term @ built

    ata = IsingSpec.homogeneous(length, g)
    target = np.exp(1j * time * coupling_diagonal(ata))
    distance = phase_insensitive_distance(built, np.diag(target))
    passed = distance < tolerance
    return SimulationReport(
        length=length,
        paths=report.paths,
        distance=distance,
        tolerance=tolerance,
        passed=passed,
        offending_path=None if passed else offending,
    )


def paths_dump(paths) -> str:
    """One path per line, vertices space-separated."""
    return "\n".join(" ".join(str(v) for v in path.vertices) for path in paths) + "\n"
