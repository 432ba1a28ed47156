"""Eigenstate structure diagnostics: basis-state weights and eigenstate entropy.

Because the J = 0 Hamiltonian is diagonal in the computational sector basis,
the squared components of an eigenvector are directly the probabilities W_i of
finding each noninteracting register state inside it.  S_q is the base-2
Shannon entropy of those weights: 0 for a pure register state, 1 for an equal
two-state mixture, up to log2(dim) for fully ergodic states.
"""

from __future__ import annotations

import numpy as np

from .eigensolve import EigenDecomposition


def weights(eigenvector: np.ndarray) -> np.ndarray:
    """W_i = (component i)^2 of an eigenvector in the sector basis."""
    v = np.asarray(eigenvector, dtype=float)
    return v * v


def entropy_sq(w: np.ndarray) -> float:
    """S_q = -sum_i W_i log2 W_i, with 0*log2(0) = 0."""
    w = np.asarray(w, dtype=float)
    nz = w[w > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def eigenstate_profile(eigenvector: np.ndarray, diag_energies: np.ndarray,
                       floor: float = 1e-12) -> np.ndarray:
    """(E_i, W_i) pairs with W_i > floor, sorted by noninteracting energy E_i.

    Returns a (k, 2) array; with floor=0 every basis state appears.
    """
    if floor < 0:
        raise ValueError("floor must be >= 0")
    w = weights(eigenvector)
    e = np.asarray(diag_energies, dtype=float)
    if len(w) != len(e):
        raise ValueError(f"dimension mismatch: {len(w)} weights vs {len(e)} energies")
    keep = w > floor if floor > 0 else np.ones(len(w), dtype=bool)
    e, w = e[keep], w[keep]
    order = np.argsort(e, kind="stable")
    return np.column_stack([e[order], w[order]])


def entropies(eigenvectors: np.ndarray) -> np.ndarray:
    """S_q for every eigenvector column at once."""
    w = eigenvectors * eigenvectors
    log_w = np.log2(w, out=np.zeros_like(w), where=w > 0.0)
    return -np.einsum("ij,ij->j", w, log_w)


def mean_entropy(decomp: EigenDecomposition, window: slice) -> tuple[float, float]:
    """Mean and SEM of S_q over the eigenstates in the given window."""
    vals = entropies(decomp.eigenvectors[:, window])
    if len(vals) == 0:
        raise ValueError("empty eigenstate window")
    sem = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return float(vals.mean()), sem
