"""Tests for the nearest-neighbor-line to all-to-all connectivity compiler."""

import numpy as np
import pytest

from daqft.ising import all_pairs
from daqft.nn2ata import (
    CoverReport,
    HamiltonianPath,
    apply_permutation_to_layout,
    cover_report,
    decompose_complete_graph,
    hp_permutation,
    iswap_unitary,
    paths_dump,
    relabel_unitary,
    transpositions_for_layout,
    verify_nn_simulates_ata,
)


def z_diagonal(n_qubits, label):
    """Dense diagonal of the Z operator on one labeled qubit."""
    index = np.arange(1 << n_qubits)
    bit = (index >> (n_qubits - label)) & 1
    return np.where(bit, -1.0, 1.0)


class TestPermutations:
    """Layout bookkeeping."""

    def test_bijection_validation(self):
        """Layouts must visit each label exactly once."""
        HamiltonianPath((2, 3, 1))
        with pytest.raises(ValueError, match="exactly once"):
            HamiltonianPath((1, 1, 2))

    def test_path_edges(self):
        """Edges are the sorted consecutive pairs."""
        path = HamiltonianPath((2, 1, 3, 4))
        assert path.edges == ((1, 2), (1, 3), (3, 4))
        with pytest.raises(ValueError, match="exactly once"):
            HamiltonianPath((1, 2, 2, 4))


class TestZigzagPaths:
    """The alternating path construction."""

    def test_all_paths_are_bijections(self):
        """Every path index yields a valid vertex ordering."""
        for length in range(2, 11):
            for k in range(0, length // 2 + 1):
                layout = hp_permutation(length, k)
                assert sorted(layout.vertices) == list(range(1, length + 1))

    def test_known_four_vertex_paths(self):
        """The two paths of K_4 are the standard zigzags."""
        assert hp_permutation(4, 1).vertices == (1, 4, 2, 3)
        assert hp_permutation(4, 2).vertices == (2, 1, 3, 4)

    def test_index_range(self):
        """Path indices beyond L/2 are rejected."""
        with pytest.raises(ValueError, match="path index"):
            hp_permutation(4, 3)
        with pytest.raises(ValueError, match="two vertices"):
            hp_permutation(1, 0)


class TestEdgeCovers:
    """Edge-disjoint covers of the complete graph."""

    def test_even_lengths_cover_exactly(self):
        """Even L gives L/2 paths covering each edge once."""
        for length in (2, 4, 6, 8):
            paths = decompose_complete_graph(length)
            assert len(paths) == length // 2
            edges = [edge for path in paths for edge in path.edges]
            assert sorted(edges) == list(all_pairs(length))

    def test_odd_lengths_fail_with_edge(self):
        """Odd L cannot be covered; the first gap is reported."""
        report = cover_report(3)
        assert isinstance(report, CoverReport)
        assert not report.covered
        assert report.offending_edge == (1, 2)
        with pytest.raises(ValueError, match=r"offending edge \(1, 2\)"):
            decompose_complete_graph(3)

    def test_paths_dump(self):
        """Dump is one space-separated path per line."""
        text = paths_dump(decompose_complete_graph(4))
        assert text == "1 4 2 3\n2 1 3 4\n"


class TestRelabeling:
    """iSWAP relabeling of layouts and Z operators."""

    def test_layout_transposition(self):
        """Entrywise swaps keep layouts bijective."""
        identity = HamiltonianPath((1, 2, 3, 4))
        swapped = apply_permutation_to_layout(identity, 1, 2)
        assert swapped.vertices == (2, 1, 3, 4)
        rng = np.random.default_rng(3)
        layout = identity
        for _ in range(20):
            i, j = rng.choice(np.arange(1, 5), size=2, replace=False)
            layout = apply_permutation_to_layout(layout, int(i), int(j))
        assert sorted(layout.vertices) == [1, 2, 3, 4]

    def test_iswap_matrix(self):
        """The two-qubit block is diag(1, i, i, 1) with the swap."""
        gate = iswap_unitary(2, 1, 2)
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, 0, 1j, 0],
                [0, 1j, 0, 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
        assert np.allclose(gate, expected)
        assert np.allclose(gate @ gate.conj().T, np.eye(4))

    def test_conjugation_relabels_z(self):
        """iSWAP conjugation moves Z between the swapped labels, densely."""
        for n in (2, 3, 4):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    gate = iswap_unitary(n, i, j)
                    for label in range(1, n + 1):
                        before = np.diag(z_diagonal(n, label))
                        moved = {i: j, j: i}.get(label, label)
                        after = np.diag(z_diagonal(n, moved))
                        assert np.allclose(gate @ before @ gate.conj().T, after)

    def test_transposition_synthesis(self):
        """Synthesized transpositions rebuild arbitrary layouts."""
        rng = np.random.default_rng(11)
        for size in (2, 3, 5, 6):
            for _ in range(10):
                mapping = tuple(int(v) for v in rng.permutation(np.arange(1, size + 1)))
                target = HamiltonianPath(mapping)
                layout = HamiltonianPath(tuple(range(1, size + 1)))
                for i, j in transpositions_for_layout(target):
                    layout = apply_permutation_to_layout(layout, i, j)
                assert layout == target

    def test_relabel_unitary_is_generalized_permutation(self):
        """The iSWAP product has one unit-modulus entry per row and column."""
        target = HamiltonianPath((3, 1, 2))
        matrix = relabel_unitary(target)
        nonzero = np.abs(matrix) > 1e-12
        assert np.all(nonzero.sum(axis=0) == 1)
        assert np.all(nonzero.sum(axis=1) == 1)
        assert np.allclose(np.abs(matrix[nonzero]), 1.0)


class TestSimulation:
    """Dense verification that the line reproduces all-to-all dynamics."""

    def test_even_lengths_pass(self):
        """Every supported even size verifies to solver precision."""
        for length in (2, 4, 6):
            report = verify_nn_simulates_ata(length)
            assert report.passed, f"L={length} distance {report.distance}"
            assert report.distance < 1e-9
            assert report.offending_path is None

    def test_size_limits(self):
        """Dense verification stops at six qubits."""
        with pytest.raises(ValueError, match="2 <= L <= 6"):
            verify_nn_simulates_ata(8)

    def test_odd_length_fails(self):
        """Odd sizes surface the cover failure."""
        with pytest.raises(ValueError, match="offending edge"):
            verify_nn_simulates_ata(3)

    def test_two_qubits_is_one_line(self):
        """The smallest case is a single path equal to the line itself."""
        report = verify_nn_simulates_ata(2)
        assert len(report.paths) == 1
        assert report.paths[0].vertices in ((1, 2), (2, 1))
