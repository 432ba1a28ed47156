"""Parity-sector basis enumeration and dense Hamiltonian assembly.

H = sum_i Gamma_i sigma_i^z + sum_{i<j} J_ij sigma_i^x sigma_j^x conserves
popcount parity (each coupling flips exactly two bits), so the full 2^n space
splits into two sectors of dimension 2^(n-1) that are diagonalized separately.

Bit convention: bit value 0 of a basis state means sigma^z eigenvalue +1,
bit value 1 ("qubit up") means -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .model import Bond, DisorderRealization

SECTOR_CAP_QUBITS = 16


@dataclass
class ParitySector:
    """Ordered basis of n-bit states with fixed popcount parity."""

    n: int
    states: np.ndarray      # ascending n-bit integers
    index_of: np.ndarray    # full 2^n lookup, -1 outside the sector

    @property
    def dim(self) -> int:
        return len(self.states)


@dataclass
class SectorHamiltonian:
    """Dense real-symmetric sector matrix."""

    dim: int
    matrix: np.ndarray


def enumerate_sector(n: int, parity: int) -> ParitySector:
    """All n-bit integers with popcount of the given parity, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 (even) or 1 (odd)")
    if n > SECTOR_CAP_QUBITS:
        raise CapacityError(f"n={n} exceeds dense-matrix cap of {SECTOR_CAP_QUBITS} qubits")
    all_states = np.arange(1 << n, dtype=np.uint32)
    pops = popcount(all_states)
    states = all_states[(pops & 1) == parity]
    index_of = np.full(1 << n, -1, dtype=np.int64)
    index_of[states] = np.arange(len(states))
    return ParitySector(n=n, states=states, index_of=index_of)


def popcount(states: np.ndarray) -> np.ndarray:
    """Vectorized popcount for uint32 arrays."""
    v = states.astype(np.uint32).copy()
    v = v - ((v >> np.uint32(1)) & np.uint32(0x55555555))
    v = (v & np.uint32(0x33333333)) + ((v >> np.uint32(2)) & np.uint32(0x33333333))
    v = (v + (v >> np.uint32(4))) & np.uint32(0x0F0F0F0F)
    return (v * np.uint32(0x01010101)) >> np.uint32(24)


def diagonal_energies(states: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Vectorized noninteracting energies for a whole basis."""
    n = len(gammas)
    bits = (states[:, None].astype(np.int64) >> np.arange(n)) & 1
    return (1 - 2 * bits) @ gammas


def build_hamiltonian(sector: ParitySector, realization: DisorderRealization,
                      bonds: list[Bond]) -> SectorHamiltonian:
    """Assemble the dense sector matrix of the disordered-qubit Hamiltonian.

    Diagonal entries are the noninteracting energies; for each bond (i, j) the
    coupling J_ij connects every state to its partner with bits i and j
    flipped, which stays inside the sector.  Both triangle entries are written
    from the same value, so symmetry holds exactly at the bit level.
    """
    if len(realization.gammas) != sector.n:
        raise ValueError("realization does not match sector qubit count")
    if len(realization.couplings) != len(bonds):
        raise ValueError("realization does not match bond list")
    dim = sector.dim
    h = np.zeros((dim, dim))
    np.fill_diagonal(h, diagonal_energies(sector.states, realization.gammas))
    rows = np.arange(dim)
    for bond, jij in zip(bonds, realization.couplings):
        mask = np.uint32((1 << bond.i) | (1 << bond.j))
        partners = sector.index_of[sector.states ^ mask]
        h[rows, partners] += jij
    return SectorHamiltonian(dim=dim, matrix=h)
