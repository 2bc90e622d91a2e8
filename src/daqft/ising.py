"""Two-body ZZ coupling patterns shared by the simulator and the schedule compiler.

Qubits are numbered 1..n and couplings are stored for ordered pairs (j, k)
with j < k.  A missing pair means zero coupling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# Dense statevectors above 2**14 amplitudes are out of scope for this package.
MAX_QUBITS = 14

Pair = tuple[int, int]


def _check_register_size(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")


def all_pairs(n_qubits: int) -> list[Pair]:
    """All ordered pairs (j, k) with 1 <= j < k <= n_qubits."""
    return list(itertools.combinations(range(1, n_qubits + 1), 2))


@dataclass(frozen=True)
class IsingSpec:
    """A ZZ coupling pattern and the total time it should act for.

    ``couplings`` holds the strengths g_jk; ``target_time`` is the evolution
    time of a target pattern.  Durations compiled for a target are for the
    unit-strength resource sum_{j<k} Z_j Z_k.
    """

    n_qubits: int
    couplings: dict[Pair, float] = field(default_factory=dict)
    target_time: float = 1.0

    def __post_init__(self) -> None:
        _check_register_size(self.n_qubits)
        for pair, value in self.couplings.items():
            j, k = pair
            if not (1 <= j < k <= self.n_qubits):
                raise ValueError(f"coupling pair {pair} is not ordered within 1..{self.n_qubits}")
            if not math.isfinite(value):
                raise ValueError(f"coupling for pair {pair} is not finite")
        if not math.isfinite(self.target_time):
            raise ValueError("target_time must be finite")

    @staticmethod
    def homogeneous(n_qubits: int) -> "IsingSpec":
        """The unit all-to-all pattern: every pair coupled at strength 1."""
        return IsingSpec(n_qubits, dict.fromkeys(all_pairs(n_qubits), 1.0))


def coupling_diagonal(spec: IsingSpec) -> np.ndarray:
    """Energies sum_{j<k} g_jk * z_j * z_k for every computational basis state.

    Basis index i encodes qubit 1 as the most significant bit; z = +1 for bit 0
    and -1 for bit 1.  The integer products z_j * z_k of the pairs that share
    one coupling value are summed exactly and scaled once, so under a
    homogeneous pattern every basis state of one Hamming weight gets the
    same energy, bit for bit, whatever g is.
    """
    n = spec.n_qubits
    dim = 1 << n
    shifts = n - np.arange(n + 1)  # 1-based rows, row 0 unused
    z = 1.0 - 2.0 * ((np.arange(dim) >> shifts[:, None]) & 1)
    products: dict[float, np.ndarray] = {}
    for (j, k), g in spec.couplings.items():
        if g != 0.0:
            products[g] = products.get(g, 0.0) + z[j] * z[k]
    energies = np.zeros(dim, dtype=float)
    for g, total in products.items():
        energies += g * total
    return energies
