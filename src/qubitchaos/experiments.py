"""Ensemble orchestration: J-sweeps, critical couplings, scaling fits, melting map.

A realization is the unit of work.  Every realization k of a run derives its
own seed from (master_seed, k), so results are a pure function of the run
parameters, and the first m realizations of a run are those of any longer run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import build_hamiltonian, enumerate_sector
from .eigensolve import diagonalize
from .eigenstates import entropies
from .errors import (CapacityError, DegenerateWindowError, DiagonalizationError,
                     InsufficientStatisticsError, NotBracketedError)
from .model import (ModelParams, build_bonds, derive_seed, sample_disorder,
                    theoretical_jc)
from .spectral import SpacingSample, eta, normalized_spacings, select_central_levels

# Log-spaced through the chaos transition at n = 12; brackets both eta = 0.3
# and mean S_q = 1 there.
DEFAULT_J_GRID = (0.02, 0.03, 0.05, 0.08, 0.12, 0.18, 0.27, 0.40, 0.48)


@dataclass
class EnsembleResult:
    """Pooled spacing sample plus per-realization eta and window-entropy stats
    at coupling bound j; a J sweep is a list of these."""

    j: float
    sample: SpacingSample
    eta_pooled: float
    eta_sem: float
    eta_per_realization: np.ndarray
    sq_mean: float
    sq_sem: float
    sq_per_realization: np.ndarray
    n_skipped: int


@dataclass
class CriticalResult:
    j_crit: float
    target: str                      # "eta=0.3" style label
    bracket: tuple[float, float]
    ambiguous: bool = False


@dataclass
class FitResult:
    coefficient: float
    slope: float


@dataclass
class MeltingMap:
    j_values: np.ndarray
    bin_edges: np.ndarray            # relative energy bins over [0, 1]
    cells: np.ndarray                # (n_j, n_bins) mean S_q, NaN where empty
    counts: np.ndarray


def _one_realization(params: ModelParams, sector, bonds, seed: int):
    """Pipeline for one disorder realization; None when window stats are short.

    The central window is fixed by the sector dimension, so only its
    eigenpairs are computed.
    """
    try:
        window = select_central_levels(sector.dim, params.window_fraction)
        h = build_hamiltonian(sector, sample_disorder(params, seed, bonds), bonds)
        decomp = diagonalize(h, window)
        spacings = normalized_spacings(decomp.eigenvalues)
    except (InsufficientStatisticsError, DegenerateWindowError):
        return None
    return spacings, eta(spacings), float(entropies(decomp.eigenvectors).mean())


def run_ensemble(params: ModelParams, j: float, n_d: int, master_seed: int) -> EnsembleResult:
    """Diagonalize n_d disorder realizations at coupling bound j and pool stats.

    The central window holds the middle 2*window_fraction of the levels.
    Realizations whose window holds too few levels are skipped and counted;
    capacity or solver errors are re-raised with the offending (realization
    index, seed) attached.
    """
    if n_d < 1:
        raise ValueError("n_d must be >= 1")
    run_params = replace(params, j_bound=j)
    sector = enumerate_sector(params.n, params.parity_bit)
    bonds = build_bonds(params.lx, params.ly)
    kept = []
    for k in range(n_d):
        seed = derive_seed(master_seed, k)
        try:
            result = _one_realization(run_params, sector, bonds, seed)
        except (CapacityError, DiagonalizationError) as exc:
            raise type(exc)(f"realization {k} (seed {seed}): {exc}") from exc
        if result is not None:
            kept.append(result)
    n_skipped = n_d - len(kept)
    if not kept:
        raise InsufficientStatisticsError(
            f"all {n_d} realizations skipped (window too sparse or degenerate)")
    pooled = np.concatenate([r[0] for r in kept])
    etas = np.array([r[1] for r in kept])
    sqs = np.array([r[2] for r in kept])
    sample = SpacingSample(spacings=pooled, n_s=len(pooled), n_d=len(kept))
    return EnsembleResult(
        j=float(j),
        sample=sample,
        eta_pooled=eta(pooled),
        eta_sem=_sem(etas),
        eta_per_realization=etas,
        sq_mean=float(sqs.mean()),
        sq_sem=_sem(sqs),
        sq_per_realization=sqs,
        n_skipped=n_skipped,
    )


def _sem(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(len(values)))


def sweep_j(params: ModelParams, j_grid, n_d: int,
            master_seed: int) -> list[EnsembleResult]:
    """One ensemble per grid value, in ascending J."""
    j_grid = list(j_grid)
    if len(j_grid) < 2:
        raise ValueError("j_grid needs >= 2 points")
    if any(b < a for a, b in zip(j_grid, j_grid[1:])):
        raise ValueError("j_grid must be ascending")
    return [run_ensemble(params, j, n_d, master_seed) for j in j_grid]


def find_critical(sweep: list[EnsembleResult], target_kind: str,
                  target_value: float) -> CriticalResult:
    """Critical coupling where the observable crosses its target.

    Log-linear interpolation in (log J, observable) between the bracketing
    sweep points; first crossing in ascending J wins, further crossings only
    set the ambiguity flag.  Falls back to linear interpolation if the lower
    bracket sits at J = 0.
    """
    t = target_value
    if target_kind == "eta":
        ys = [p.eta_pooled for p in sweep]
    elif target_kind == "sq":
        ys = [p.sq_mean for p in sweep]
    else:
        raise ValueError(f"unknown target kind {target_kind!r}")
    js = [p.j for p in sweep]
    label = f"{target_kind}={t:g}"

    crossings = [i for i in range(len(ys) - 1)
                 if ys[i] != ys[i + 1] and (ys[i] - t) * (ys[i + 1] - t) <= 0.0]
    if not crossings:
        raise NotBracketedError(
            f"{label} never crossed on J grid [{js[0]:g}, {js[-1]:g}]")
    i = crossings[0]
    j1, j2, y1, y2 = js[i], js[i + 1], ys[i], ys[i + 1]
    frac = (t - y1) / (y2 - y1)
    if j1 > 0:
        j_crit = math.exp(math.log(j1) + frac * (math.log(j2) - math.log(j1)))
    else:
        j_crit = j1 + frac * (j2 - j1)
    return CriticalResult(j_crit=j_crit, target=label, bracket=(j1, j2),
                          ambiguous=len(crossings) > 1)


def fit_scaling(points, slope: float | None = None) -> FitResult:
    """Power-law fit j = coefficient * x^slope by least squares in log-log.

    With slope None both coefficient and slope are fitted; a given slope (-1
    for 1/n scaling, +1 for delta scaling) is kept and only the coefficient
    is fitted.
    """
    xs = np.array([p[0] for p in points], dtype=float)
    js = np.array([p[1] for p in points], dtype=float)
    if len(xs) < 2:
        raise ValueError("need >= 2 points")
    if np.any(xs <= 0) or np.any(js <= 0):
        raise ValueError("scaling fit requires positive inputs")
    lx, lj = np.log(xs), np.log(js)
    if slope is None:
        slope, intercept = np.polyfit(lx, lj, 1)
    else:
        intercept = np.mean(lj - slope * lx)
    return FitResult(coefficient=float(np.exp(intercept)), slope=float(slope))


def _energies_and_entropies(sector, realization, bonds) -> tuple[np.ndarray, np.ndarray]:
    """Relative energies (0 to 1) and S_q of every eigenstate of one realization.

    The matrix lives only through the solve and the eigenvectors only in this
    frame, so neither is held during the caller's next solve.
    """
    decomp = diagonalize(build_hamiltonian(sector, realization, bonds))
    e = decomp.eigenvalues
    span = e[-1] - e[0]
    rel = (e - e[0]) / span if span > 0 else np.zeros_like(e)
    return rel, entropies(decomp.eigenvectors)


def melting_map(params: ModelParams, j_grid, n_energy_bins: int,
                seed: int) -> MeltingMap:
    """Mean S_q per (relative eigenstate energy, J) cell for one realization.

    One underlying disorder draw is reused across the whole J grid: gammas
    stay fixed and the couplings scale proportionally to each grid value,
    which preserves the unit-interval draws (uniform on [-J, J] is J times
    uniform on [-1, 1]).
    """
    if n_energy_bins < 2:
        raise ValueError("n_energy_bins must be >= 2")
    sector = enumerate_sector(params.n, params.parity_bit)
    bonds = build_bonds(params.lx, params.ly)
    base = sample_disorder(replace(params, j_bound=1.0), seed, bonds)
    edges = np.linspace(0.0, 1.0, n_energy_bins + 1)
    j_values = np.asarray(list(j_grid), dtype=float)
    cells = np.full((len(j_values), n_energy_bins), np.nan)
    counts = np.zeros((len(j_values), n_energy_bins), dtype=int)
    for row, j in enumerate(j_values):
        realization = replace(base, couplings=j * base.couplings)
        rel, sq = _energies_and_entropies(sector, realization, bonds)
        idx = np.clip(np.digitize(rel, edges) - 1, 0, n_energy_bins - 1)
        for b in range(n_energy_bins):
            mask = idx == b
            counts[row, b] = int(mask.sum())
            if counts[row, b]:
                cells[row, b] = float(sq[mask].mean())
    return MeltingMap(j_values=j_values, bin_edges=edges, cells=cells, counts=counts)


def default_n_d(n: int, base: int) -> int:
    """Realization count: `base` at n = 12, doubled per qubit removed, capped."""
    return int(min(4000, max(5, base * 2 ** (12 - n))))


def grid_for_n(n: int, delta: float) -> np.ndarray:
    """Log grid spanning both borders (S_q = 1 near 0.4*delta/n, eta = 0.3 near C/n)."""
    jc, jcs = theoretical_jc(n, delta=delta)
    return np.geomspace(0.4 * jcs, 3.0 * jc, 12)


def grid_for_delta(n: int, delta: float) -> np.ndarray:
    """Log grid bracketing the entropy border at fixed n and given delta."""
    _, jcs = theoretical_jc(n, delta=delta)
    return np.geomspace(0.3 * jcs, 4.0 * jcs, 9)


def scaling_study(runs, n_d_base: int, master_seed: int, targets) -> list[list[float]]:
    """Critical couplings of each run: one row per (params, J grid) run, one
    crossing per (kind, value) target, in the order given.

    Each run sweeps its grid with `default_n_d(n, n_d_base)` realizations.
    """
    rows = []
    for params, j_grid in runs:
        sweep = sweep_j(params, j_grid, default_n_d(params.n, n_d_base), master_seed)
        rows.append([find_critical(sweep, kind, value).j_crit for kind, value in targets])
    return rows
