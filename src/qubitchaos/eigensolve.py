"""Eigendecomposition of dense real-symmetric matrices, full or over an index
window, with residual checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

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


def _lapack(routine: str, *args, **kwargs):
    """Call a scipy.linalg.lapack routine; a nonzero info is a DiagonalizationError."""
    *out, info = getattr(lapack, routine)(*args, **kwargs)
    if info != 0:
        raise DiagonalizationError(f"LAPACK {routine} failed with info = {info}")
    return out[0] if len(out) == 1 else out


def _window_eigh(m: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs lo..hi-1 (ascending) of a real-symmetric matrix.

    Reduces m to tridiagonal T = Q^T m Q (dsytrd), takes every eigenvalue of T
    by QR (dsterf), then only the window's eigenvectors of T by inverse
    iteration (dstein) and maps them back through Q's reflectors (dormqr).
    T is split into blocks by dstebz's test, so decoupled blocks stay exactly
    decoupled: a diagonal matrix gives exact unit eigenvectors.
    """
    n = len(m)
    if n == 1:
        return m[0].copy(), np.ones((1, 1))
    c, d, e, tau = _lapack("dsytrd", m, lower=1,
                           lwork=int(_lapack("dsytrd_lwork", n, lower=1)))
    ulp, safe_min = np.finfo(float).eps, np.finfo(float).tiny
    splits = np.abs(d[1:] * d[:-1]) * ulp**2 + safe_min > e**2
    ends = np.append(np.flatnonzero(splits), n - 1)  # last row of each block
    starts = np.concatenate(([0], ends[:-1] + 1))
    w = d.copy()  # a 1x1 block's eigenvalue is its diagonal entry
    for b0, b1 in zip(starts, ends):
        if b1 > b0:
            w[b0:b1 + 1] = _lapack("dsterf", d[b0:b1 + 1], e[b0:b1])
    block = np.repeat(np.arange(1, len(ends) + 1, dtype=np.int32), ends - starts + 1)
    pick = np.argsort(w, kind="stable")[lo:hi]  # the window, ascending
    order = np.argsort(block[pick], kind="stable")  # dstein wants block order
    iblock = np.zeros(n, dtype=np.int32)
    iblock[:hi - lo] = block[pick[order]]
    isplit = np.zeros(n, dtype=np.int32)
    isplit[:len(ends)] = ends + 1
    z = _lapack("dstein", d, e, w[pick[order]], iblock, isplit)
    ascending = np.argsort(order)
    # Q = diag(1, Q'); Q' is the product of the reflectors stored in c[1:, :n-1],
    # read in place as an (n, n-1) view with leading dimension n.
    reflectors = c.ravel(order="F")[1:1 + n * (n - 1)].reshape((n, n - 1), order="F")
    rows = z[1:, ascending]  # a Fortran-ordered copy that dormqr overwrites
    _, work = _lapack("dormqr", "L", "N", reflectors, tau, rows, -1, overwrite_c=1)
    z[1:], _ = _lapack("dormqr", "L", "N", reflectors, tau, rows, int(work[0]), overwrite_c=1)
    z[0] = z[0, ascending]
    return w[pick], z


def diagonalize(h, window: slice | None = None) -> EigenDecomposition:
    """Eigenpairs of a real-symmetric matrix: all of them, or one index window.

    Accepts a SectorHamiltonian or a plain 2-D array.  Without a window every
    eigenpair comes from the LAPACK divide-and-conquer driver (dsyevd).  A
    window, a contiguous slice of the ascending spectrum by index, computes
    every eigenvalue of the tridiagonal reduction (dsytrd, then QR in dsterf)
    but only the window's eigenvectors (inverse iteration in dstein, mapped
    back by dormqr), so the other eigenvectors are never formed.  The accuracy
    contract is checked via validate().
    """
    m = _as_matrix(h)
    if not np.all(np.isfinite(m)):
        raise DiagonalizationError("matrix contains non-finite entries")
    if window is not None:
        lo, hi, step = window.indices(len(m))
        if step != 1 or hi <= lo:
            raise ValueError(f"window {window} is not a non-empty contiguous slice")
        w, v = _window_eigh(m, lo, hi)
        return EigenDecomposition(eigenvalues=w, eigenvectors=v)
    try:
        w, v = scipy.linalg.eigh(m, check_finite=False, driver="evd")
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
