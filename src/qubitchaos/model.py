"""Lattice geometry, model parameters, disorder sampling and closed-form estimates.

The model is n qubits on an lx x ly torus: on-site splittings Gamma_i drawn
uniformly from [delta0 - delta/2, delta0 + delta/2] and nearest-neighbour
sigma^x sigma^x couplings J_ij drawn uniformly from [-J, J].  All energies are
expressed in units of delta0 (delta0 = 1 internally).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

DELTA0 = 1.0
# Generic-regime chaos border J_c = C * delta0 / n, the paper's estimate of C.
C = 3.16


@dataclass(frozen=True)
class ModelParams:
    """The experiment's knobs: geometry, disorder width, coupling bound, window."""

    lx: int
    ly: int
    delta: float = 1.0
    j_bound: float = 0.0
    window_fraction: float = 0.0625
    parity: str = "even"

    def __post_init__(self):
        if self.lx < 1 or self.ly < 1 or self.lx * self.ly < 2:
            raise GeometryError(f"lattice {self.lx}x{self.ly} has fewer than 2 sites")
        if not 0.0 <= self.delta <= DELTA0:
            raise ValueError(f"delta={self.delta} outside [0, delta0={DELTA0}]")
        if self.j_bound < 0:
            raise ValueError(f"j_bound={self.j_bound} must be >= 0")
        if not 0.0 < self.window_fraction <= 0.5:
            raise ValueError(f"window_fraction={self.window_fraction} outside (0, 0.5]")
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")

    @property
    def n(self) -> int:
        return self.lx * self.ly

    @property
    def parity_bit(self) -> int:
        return 0 if self.parity == "even" else 1


@dataclass(frozen=True, order=True)
class Bond:
    """Undirected nearest-neighbour pair, stored with i < j."""

    i: int
    j: int

    def __post_init__(self):
        if not 0 <= self.i < self.j:
            raise ValueError(f"bond requires 0 <= i < j, got ({self.i}, {self.j})")


@dataclass
class DisorderRealization:
    """One sample of {Gamma_i} and {J_ij}."""

    gammas: np.ndarray
    couplings: np.ndarray


def build_bonds(lx: int, ly: int) -> list[Bond]:
    """Nearest-neighbour bonds of the lx x ly torus, deduplicated.

    Site index of cell (x, y) is y*lx + x.  For a dimension of extent <= 2 the
    periodic wraparound would duplicate an existing bond (or produce a self
    loop at extent 1); such duplicates are dropped so each pair carries a
    single coupling.
    """
    if lx < 1 or ly < 1 or lx * ly < 2:
        raise GeometryError(f"lattice {lx}x{ly} has fewer than 2 sites")
    seen: set[tuple[int, int]] = set()
    bonds: list[Bond] = []
    for y in range(ly):
        for x in range(lx):
            a = y * lx + x
            for b in (y * lx + (x + 1) % lx, ((y + 1) % ly) * lx + x):
                if a == b:
                    continue
                pair = (min(a, b), max(a, b))
                if pair not in seen:
                    seen.add(pair)
                    bonds.append(Bond(*pair))
    bonds.sort()
    return bonds


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic 64-bit per-realization seed from (master_seed, index)."""
    ss = np.random.SeedSequence([int(master_seed), int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sample_disorder(params: ModelParams, seed: int,
                    bonds: list[Bond] | None = None) -> DisorderRealization:
    """Draw one disorder realization from its own generator seeded with `seed`.

    Gamma_i ~ U[delta0 - delta/2, delta0 + delta/2], J_ij ~ U[-J, J]; equal
    seeds give bit-identical realizations.
    """
    if bonds is None:
        bonds = build_bonds(params.lx, params.ly)
    rng = np.random.default_rng(seed)
    half = 0.5 * params.delta
    gammas = rng.uniform(DELTA0 - half, DELTA0 + half, size=params.n)
    if params.delta == 0.0:
        gammas = np.full(params.n, DELTA0)
    j = params.j_bound
    couplings = rng.uniform(-j, j, size=len(bonds)) if j > 0 else np.zeros(len(bonds))
    return DisorderRealization(gammas=gammas, couplings=couplings)


def _check_estimate_args(n: int, delta0: float):
    if n < 1:
        raise ValueError("n must be >= 1")
    if not delta0 > 0:
        raise ValueError(f"delta0 must be > 0, got {delta0!r}")


def multiqubit_spacing_log10(n: int, delta0: float = DELTA0) -> float:
    """log10 of the mean many-body level spacing estimate n*delta0/2^n; usable
    for any n (no overflow of 2^n, no underflow)."""
    _check_estimate_args(n, delta0)
    return (math.log10(n) + math.log10(delta0)) - n * math.log10(2.0)


def theoretical_jc(n: int, delta0: float = DELTA0, delta: float = DELTA0,
                   c: float = C) -> tuple[float, float]:
    """Closed-form chaos-border estimates (c*delta0/n, 0.4*delta/n).

    First element: generic-regime critical coupling; second: the two-state
    mixing border, proportional to the disorder width.
    """
    _check_estimate_args(n, delta0)
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta!r}")
    if c <= 0:
        raise ValueError("c must be > 0")
    return (c * delta0 / n, 0.4 * delta / n)


def compact_shape(n: int) -> tuple[int, int]:
    """Most compact (lx, ly) rectangle with lx*ly = n, lx <= ly."""
    best = (1, n)
    for lx in range(1, int(math.isqrt(n)) + 1):
        if n % lx == 0:
            best = (lx, n // lx)
    return best
