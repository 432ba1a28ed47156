"""Eigenstate structure diagnostics: basis-state weights and eigenstate entropy.

Because the J = 0 Hamiltonian is diagonal in the computational sector basis,
the squared components of an eigenvector are directly the probabilities W_i of
finding each noninteracting register state inside it.  S_q is the base-2
Shannon entropy of those weights: 0 for a pure register state, 1 for an equal
two-state mixture, up to log2(dim) for fully ergodic states.
"""

from __future__ import annotations

import numpy as np


def entropies(eigenvectors: np.ndarray) -> np.ndarray:
    """S_q = -sum_i W_i log2 W_i (with 0*log2(0) = 0) for every eigenvector column."""
    w = eigenvectors * eigenvectors
    log_w = np.log2(w, out=np.zeros_like(w), where=w > 0.0)
    return -np.einsum("ij,ij->j", w, log_w)
