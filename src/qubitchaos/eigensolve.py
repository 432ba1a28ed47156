"""Eigendecomposition of dense real-symmetric matrices, full or over an index
window, with residual checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import SectorHamiltonian
from .errors import DiagonalizationError

ORTHO_TOL = 1e-10
EIGEN_TOL = 1e-9


@dataclass
class EigenDecomposition:
    """Ascending eigenvalues with orthonormal eigenvectors as matching columns.

    Holds either the whole spectrum or one contiguous index window of it; the
    eigenvectors always have one row per basis state.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        """Number of eigenpairs held (the matrix dimension for a full solve)."""
        return len(self.eigenvalues)


@dataclass
class ResidualReport:
    ortho_residual: float
    eigen_residual: float
    ortho_ok: bool
    eigen_ok: bool

    @property
    def passed(self) -> bool:
        return self.ortho_ok and self.eigen_ok


def _as_matrix(h) -> np.ndarray:
    return h.matrix if isinstance(h, SectorHamiltonian) else np.asarray(h, dtype=float)


def diagonalize(h, window: slice | None = None) -> EigenDecomposition:
    """Eigenpairs of a real-symmetric matrix: all of them, or one index window.

    Accepts a SectorHamiltonian or a plain 2-D array.  Without a window every
    eigenpair comes from the LAPACK divide-and-conquer driver (dsyevd).  A
    window, a contiguous slice of the ascending spectrum by index, computes
    only those eigenpairs with the MRRR subset driver (dsyevr), which never
    forms the other eigenvectors.  The accuracy contract is checked via
    validate().
    """
    m = _as_matrix(h)
    if not np.all(np.isfinite(m)):
        raise DiagonalizationError("matrix contains non-finite entries")
    if window is None:
        options = {"driver": "evd"}
    else:
        lo, hi, step = window.indices(len(m))
        if step != 1 or hi <= lo:
            raise ValueError(f"window {window} is not a non-empty contiguous slice")
        options = {"driver": "evr", "subset_by_index": [lo, hi - 1]}
    try:
        w, v = scipy.linalg.eigh(m, check_finite=False, **options)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise DiagonalizationError(f"eigensolver failed to converge: {exc}") from exc
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def validate(decomp: EigenDecomposition, h) -> ResidualReport:
    """Max orthonormality and eigen-equation residuals, flagged against tolerances.

    Works for a full or a windowed decomposition: the k eigenvectors must have
    one row per matrix row, with k <= dim.
    """
    m = _as_matrix(h)
    v = decomp.eigenvectors
    if v.shape[0] != len(m) or v.shape[1] > len(m):
        raise ValueError(f"dimension mismatch: vectors {v.shape} vs matrix {m.shape}")
    ortho = float(np.max(np.abs(v.T @ v - np.eye(v.shape[1]))))
    eigen = float(np.max(np.abs(m @ v - v * decomp.eigenvalues)))
    eigen_bound = EIGEN_TOL * max(1.0, float(np.max(np.abs(m))) * len(m))
    return ResidualReport(
        ortho_residual=ortho,
        eigen_residual=eigen,
        ortho_ok=ortho <= ORTHO_TOL,
        eigen_ok=eigen <= eigen_bound,
    )
