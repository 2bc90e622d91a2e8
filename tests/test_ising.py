"""Tests for the Ising coupling specification and its diagonal."""

import numpy as np
import pytest

from daqft.ising import IsingSpec, all_pairs, coupling_diagonal

PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def dense_zz_diagonal(spec):
    """Oracle: sum of g_jk Z_j Z_k built by explicit Kronecker products."""
    dim = 2 ** spec.n_qubits
    total = np.zeros((dim, dim))
    for (j, k), g in spec.couplings.items():
        term = np.eye(1)
        for qubit in range(1, spec.n_qubits + 1):
            factor = PAULI_Z if qubit in (j, k) else np.eye(2)
            term = np.kron(term, factor)
        total = total + g * term
    return np.diag(total)


def per_qubit_diagonal(spec):
    """The diagonal with z built qubit by qubit, the loop coupling_diagonal's broadcast replaced."""
    n = spec.n_qubits
    indices = np.arange(2 ** n)
    z = {q: 1.0 - 2.0 * ((indices >> (n - q)) & 1) for q in range(1, n + 1)}
    products = {}
    for (j, k), g in spec.couplings.items():
        if g != 0.0:
            products[g] = products.get(g, 0.0) + z[j] * z[k]
    energies = np.zeros(2 ** n)
    for g, total in products.items():
        energies += g * total
    return energies


class TestAllPairs:
    """Ordered pair enumeration."""

    def test_counts(self):
        """n qubits give n(n-1)/2 pairs."""
        for n in range(1, 8):
            assert len(all_pairs(n)) == n * (n - 1) // 2

    def test_ordering(self):
        """Pairs are lexicographic with j < k."""
        assert list(all_pairs(4)) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        for n in range(15):
            expected = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
            assert all_pairs(n) == expected


class TestIsingSpec:
    """Validation and convenience accessors."""

    def test_homogeneous_factory(self):
        """The homogeneous spec couples every pair at unit strength."""
        spec = IsingSpec.homogeneous(4)
        assert set(spec.couplings) == set(all_pairs(4))
        assert all(g == 1.0 for g in spec.couplings.values())

    def test_rejects_unordered_pair(self):
        """Pairs must satisfy j < k."""
        with pytest.raises(ValueError, match="ordered"):
            IsingSpec(3, {(2, 1): 1.0})

    def test_rejects_out_of_range_qubit(self):
        """Couplings may only touch qubits 1..n."""
        with pytest.raises(ValueError):
            IsingSpec(3, {(1, 4): 1.0})

    def test_rejects_bad_sizes(self):
        """Register size is bounded."""
        with pytest.raises(ValueError):
            IsingSpec(0, {})
        with pytest.raises(ValueError):
            IsingSpec(20, {})


class TestCouplingDiagonal:
    """Diagonal of sum_{j<k} g_jk Z_j Z_k in the computational basis."""

    def test_two_qubits(self):
        """Single ZZ term has the textbook (+,-,-,+) pattern."""
        spec = IsingSpec(2, {(1, 2): 0.7})
        assert np.allclose(coupling_diagonal(spec), [0.7, -0.7, -0.7, 0.7])

    def test_qubit_one_is_most_significant(self):
        """Flipping qubit 1 moves by half the index range."""
        spec = IsingSpec(3, {(1, 2): 1.0})
        diag = coupling_diagonal(spec)
        # |000> and |100> differ only in qubit 1, so the ZZ sign flips
        assert diag[0] == 1.0
        assert diag[4] == -1.0

    def test_matches_kron_oracle(self):
        """Vectorized diagonal equals the explicit Kronecker construction."""
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 5):
            couplings = {pair: float(rng.normal()) for pair in all_pairs(n)}
            spec = IsingSpec(n, couplings)
            assert np.allclose(coupling_diagonal(spec), dense_zz_diagonal(spec))

    def test_matches_per_qubit_loop(self):
        """The diagonal equals the per-qubit loop's bits: shared, zero and distinct values, n = 1..14."""
        rng = np.random.default_rng(37)
        for n in range(1, 15):
            uniform = IsingSpec(n, dict.fromkeys(all_pairs(n), 0.37))
            specs = [IsingSpec.homogeneous(n), uniform, IsingSpec(n, {})]
            values = [0.0, -0.0, 0.5, -1.25, 0.3, float(rng.normal())]
            specs.append(IsingSpec(n, {pair: float(rng.choice(values)) for pair in all_pairs(n)}))
            for spec in specs:
                assert coupling_diagonal(spec).tobytes() == per_qubit_diagonal(spec).tobytes(), n

    def test_additive_in_couplings(self):
        """The diagonal is linear in the coupling dictionary."""
        a = IsingSpec(3, {(1, 2): 0.3})
        b = IsingSpec(3, {(2, 3): -0.9})
        both = IsingSpec(3, {(1, 2): 0.3, (2, 3): -0.9})
        assert np.allclose(
            coupling_diagonal(both), coupling_diagonal(a) + coupling_diagonal(b)
        )
