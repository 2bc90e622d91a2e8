"""Tests for the nearest-neighbor-line to all-to-all connectivity compiler."""

import hashlib
import itertools

import numpy as np
import pytest

from daqft.cli import main
from daqft.ising import all_pairs
from daqft.nn2ata import (
    CoverReport,
    HamiltonianPath,
    cover_report,
    decompose_complete_graph,
    hp_permutation,
    iswap_unitary,
    paths_dump,
    relabel_unitary,
    verify_nn_simulates_ata,
)


def z_diagonal(n_qubits, label):
    """Dense diagonal of the Z operator on one labeled qubit."""
    index = np.arange(1 << n_qubits)
    bit = (index >> (n_qubits - label)) & 1
    return np.where(bit, -1.0, 1.0)


def cycle_walk(layout):
    """The (start, member) iSWAPs of a relabel: each layout cycle from its smallest position."""
    seen = set()
    for start in range(1, len(layout) + 1):
        member = layout[start - 1]
        while start not in seen and member != start:
            seen.add(member)
            yield start, member
            member = layout[member - 1]


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

    def test_relabel_moves_z_to_layout_label(self):
        """Conjugating by the relabel moves Z at position p to Z at label layout[p - 1]."""
        rng = np.random.default_rng(11)
        for size in (2, 3, 5, 6):
            for _ in range(10):
                layout = tuple(int(v) for v in rng.permutation(np.arange(1, size + 1)))
                relabel = relabel_unitary(HamiltonianPath(layout))
                for position in range(1, size + 1):
                    moved = relabel @ np.diag(z_diagonal(size, position)) @ relabel.conj().T
                    assert np.allclose(moved, np.diag(z_diagonal(size, layout[position - 1])))

    def test_relabel_unitary_is_generalized_permutation(self):
        """The iSWAP product has one unit-modulus entry per row and column."""
        target = HamiltonianPath((3, 1, 2))
        matrix = relabel_unitary(target)
        nonzero = np.abs(matrix) > 1e-12
        assert np.all(nonzero.sum(axis=0) == 1)
        assert np.all(nonzero.sum(axis=1) == 1)
        assert np.allclose(np.abs(matrix[nonzero]), 1.0)

    def test_composed_relabel_equals_dense_product(self):
        """The composed relabel has the bytes of the dense iSWAP product, L = 2..6.

        Every layout for L <= 5 and 100 random ones at L = 6, against one
        dense iSWAP product per layout-cycle member, in cycle-walk order.
        """
        rng = np.random.default_rng(17)
        for size in range(2, 7):
            if size <= 5:
                layouts = itertools.permutations(range(1, size + 1))
            else:
                layouts = (tuple(int(v) for v in rng.permutation(np.arange(1, 7))) for _ in range(100))
            for layout in layouts:
                dense = np.eye(1 << size, dtype=complex)
                for start, member in cycle_walk(layout):
                    dense = iswap_unitary(size, start, member) @ dense
                assert relabel_unitary(HamiltonianPath(layout)).tobytes() == dense.tobytes(), layout


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


class TestPinnedBytes:
    """Relabel and iSWAP matrices and the nn2ata command output, byte for byte.

    Each matrix has one unit entry per column, so its bytes do not depend on the BLAS.
    """

    def test_relabel_matrices(self):
        """Relabels of every zigzag layout for L = 2..6 hash to the pinned digest."""
        digest = hashlib.sha256()
        for length in range(2, 7):
            for k in range(length // 2 + 1):
                digest.update(relabel_unitary(hp_permutation(length, k)).tobytes())
        assert digest.hexdigest() == "bc0f30e50b8cdeda95aed91097bf28d575488bff27a52590f607a3323f3ded5e"

    def test_iswap_matrices(self):
        """iSWAPs of every ordered qubit pair for n = 2..6 hash to the pinned digest."""
        digest = hashlib.sha256()
        for n in range(2, 7):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        digest.update(iswap_unitary(n, i, j).tobytes())
        assert digest.hexdigest() == "2125983ebe20049830a7ccd73a0423c9b316f047ca4b21df4862f6cbcdd77fd1"

    @pytest.mark.parametrize(
        "size, expected",
        [
            (2, "1 2\npaths 1\nedge-cover PASS\ndense-verification PASS distance 0.000e+00\n"),
            (
                4,
                "1 4 2 3\n2 1 3 4\npaths 2\nedge-cover PASS\n"
                "dense-verification PASS distance 2.490e-16\n",
            ),
            (
                6,
                "1 6 2 5 3 4\n2 1 3 6 4 5\n3 2 4 1 5 6\npaths 3\nedge-cover PASS\n"
                "dense-verification PASS distance 1.026e-15\n",
            ),
        ],
    )
    def test_cli_stdout(self, capsys, size, expected):
        """daqft nn2ata prints the path dump and both verdicts, exactly."""
        assert main(["nn2ata", "--size", str(size)]) == 0
        assert capsys.readouterr().out == expected
