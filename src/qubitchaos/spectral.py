"""Level-spacing statistics: central window, normalization, reference laws, eta.

Spacings are nearest-neighbour gaps in the central window of levels, measured in
units of the window's mean gap (no polynomial unfolding; the window is narrow
enough that the density is locally flat).  The crossover parameter eta places
an empirical P(s) between Poisson (eta = 1) and Wigner-Dyson (eta = 0) by
comparing cumulative weight below the crossing point s0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWindowError, InsufficientStatisticsError

S0 = 0.4729

# Reference CDFs evaluated at the crossing point; eta is an affine map between them.
F_POISSON_S0 = 1.0 - np.exp(-S0)
F_WIGNER_S0 = 1.0 - np.exp(-np.pi * S0 * S0 / 4.0)


@dataclass
class SpacingSample:
    """Pooled normalized spacings from n_d disorder realizations."""

    spacings: np.ndarray
    n_s: int
    n_d: int


@dataclass
class Histogram:
    edges: np.ndarray
    density: np.ndarray


def poisson_pdf(s):
    return np.exp(-s)


def wigner_pdf(s):
    s = np.asarray(s, dtype=float)
    return (np.pi * s / 2.0) * np.exp(-np.pi * s * s / 4.0)


def select_central_levels(dim: int, fraction: float) -> slice:
    """Central 2*fraction of the dim levels by index (at least 4), as a slice.

    Counting states instead of energy keeps the selected density locally flat
    and the spacing count per realization fixed.  The window depends only on
    the dimension, so it is known before the solve.
    """
    if not 0.0 < fraction <= 0.5:
        raise ValueError(f"fraction={fraction} outside (0, 0.5]")
    if dim < 4:
        raise InsufficientStatisticsError(f"need >= 4 levels, got {dim}")
    k = min(dim, max(4, int(round(2.0 * fraction * dim))))
    lo = (dim - k) // 2
    return slice(lo, lo + k)


def normalized_spacings(window_eigenvalues: np.ndarray) -> np.ndarray:
    """Consecutive gaps divided by their mean over the window (mean becomes 1)."""
    e = np.asarray(window_eigenvalues, dtype=float)
    if len(e) < 3:
        raise InsufficientStatisticsError(f"need >= 3 levels, got {len(e)}")
    gaps = np.diff(e)
    mean = gaps.mean()
    if mean <= 0.0:
        raise DegenerateWindowError("all window levels degenerate; zero mean spacing")
    return gaps / mean


def _spacing_array(spacings) -> np.ndarray:
    sp = np.asarray(spacings)
    if len(sp) == 0:
        raise ValueError("empty spacing sample")
    return sp


def eta(spacings) -> float:
    """Crossover parameter: 1 for Poisson statistics, 0 for Wigner-Dyson.

    Computed from the empirical CDF at s0, which equals the integral-ratio
    definition exactly (the integral of an empirical density up to s0 is the
    fraction of spacings below s0).  Small excursions outside [0, 1] are
    ordinary statistical fluctuations.
    """
    sp = _spacing_array(spacings)
    f_hat = float(np.mean(sp < S0))
    return (f_hat - F_WIGNER_S0) / (F_POISSON_S0 - F_WIGNER_S0)


def spacing_histogram(spacings, bin_width: float, s_max: float) -> Histogram:
    """Density-normalized histogram of spacings over [0, s_max]."""
    if bin_width <= 0:
        raise ValueError("bin_width must be > 0")
    sp = _spacing_array(spacings)
    edges = np.arange(0.0, s_max + 0.5 * bin_width, bin_width)
    density, edges = np.histogram(sp, bins=edges, density=True)
    return Histogram(edges=edges, density=density)
