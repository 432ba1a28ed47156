import math
from dataclasses import replace

import numpy as np
import pytest

from qubitchaos.basis import build_hamiltonian, enumerate_sector
from qubitchaos.eigensolve import diagonalize
from qubitchaos.eigenstates import entropies
from qubitchaos.errors import InsufficientStatisticsError, NotBracketedError
from qubitchaos.experiments import (DEFAULT_J_GRID, SweepPoint, find_critical,
                                    fit_scaling, grid_for_delta, grid_for_n,
                                    default_n_d, melting_map, run_ensemble, sweep_j)
from qubitchaos.model import ModelParams, build_bonds, derive_seed, sample_disorder
from qubitchaos.spectral import eta, normalized_spacings


P6 = ModelParams(lx=2, ly=3, delta=1.0)


def synthetic_sweep(js, etas=None, sqs=None):
    etas = etas if etas is not None else [1.0] * len(js)
    sqs = sqs if sqs is not None else [0.0] * len(js)
    return [SweepPoint(j=j, eta_mean=e, eta_sem=0.0, sq_mean=s, sq_sem=0.0,
                       n_s=100, n_d=10) for j, e, s in zip(js, etas, sqs)]


class TestRunEnsemble:
    def test_deterministic(self):
        a = run_ensemble(P6, 0.1, 6, master_seed=42)
        b = run_ensemble(P6, 0.1, 6, master_seed=42)
        assert np.array_equal(a.sample.spacings, b.sample.spacings)
        assert a.eta_pooled == b.eta_pooled
        assert a.sq_mean == b.sq_mean

    def test_realization_prefix_determinism(self):
        # realization k depends only on (master_seed, k)
        a = run_ensemble(P6, 0.1, 4, master_seed=5)
        b = run_ensemble(P6, 0.1, 8, master_seed=5)
        assert a.sample.n_d == 4 and b.sample.n_d == 8
        assert np.array_equal(a.sample.spacings, b.sample.spacings[:a.sample.n_s])
        assert np.array_equal(a.sq_per_realization, b.sq_per_realization[:4])

    def test_j_zero_entropy_exactly_zero(self):
        r = run_ensemble(P6, 0.0, 5, master_seed=3)
        assert r.sq_mean == 0.0
        assert np.all(r.sq_per_realization == 0.0)

    def test_windowed_solve_matches_full_solve_oracle_n9(self):
        # oracle: full spectrum and every eigenvector, then the central 2*fraction
        # of the levels by slicing
        p9 = ModelParams(lx=3, ly=3, delta=1.0)
        j, n_d, master_seed = 0.3, 4, 11
        sector, bonds = enumerate_sector(9, 0), build_bonds(3, 3)
        k = max(4, round(2 * p9.window_fraction * sector.dim))
        window = slice((sector.dim - k) // 2, (sector.dim - k) // 2 + k)
        spacings, sqs = [], []
        for r in range(n_d):
            disorder = sample_disorder(replace(p9, j_bound=j),
                                       derive_seed(master_seed, r), bonds)
            full = diagonalize(build_hamiltonian(sector, disorder, bonds))
            spacings.append(normalized_spacings(full.eigenvalues[window]))
            sqs.append(entropies(full.eigenvectors[:, window]).mean())
        pooled = np.concatenate(spacings)

        result = run_ensemble(p9, j, n_d, master_seed)
        assert result.n_skipped == 0
        assert result.sample.n_s == len(pooled) == n_d * (k - 1)
        assert result.eta_pooled == pytest.approx(eta(pooled), abs=1e-10)
        assert result.sq_mean == pytest.approx(np.mean(sqs), abs=1e-10)

    def test_undersized_sector_skips_every_realization(self):
        with pytest.raises(InsufficientStatisticsError, match="all 3 realizations skipped"):
            run_ensemble(ModelParams(lx=1, ly=2, delta=1.0), 0.1, 3, master_seed=1)

    def test_invalid_nd(self):
        with pytest.raises(ValueError):
            run_ensemble(P6, 0.1, 0, master_seed=1)


class TestSweep:
    def test_point_fields(self):
        points = sweep_j(P6, [0.05, 0.3], 5, master_seed=9)
        assert [p.j for p in points] == [0.05, 0.3]
        for p in points:
            assert p.n_s > 0 and p.n_d > 0 and p.eta_sem >= 0 and p.sq_sem >= 0
        # entropy grows with coupling
        assert points[1].sq_mean > points[0].sq_mean

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_j(P6, [0.1], 2, 0)
        with pytest.raises(ValueError):
            sweep_j(P6, [0.3, 0.1], 2, 0)


class TestFindCritical:
    def test_constructed_curve(self):
        sweep = synthetic_sweep([0.5, 0.9], etas=[0.5, 0.1])
        res = find_critical(sweep, "eta", 0.3)
        expected = math.exp(math.log(0.5) + 0.5 * (math.log(0.9) - math.log(0.5)))
        assert res.j_crit == pytest.approx(expected)
        assert res.j_crit == pytest.approx(0.7, abs=0.05)
        assert res.bracket == (0.5, 0.9)
        assert not res.ambiguous

    def test_sq_target(self):
        sweep = synthetic_sweep([0.1, 0.2, 0.4], sqs=[0.2, 0.8, 2.0])
        res = find_critical(sweep, "sq", 1.0)
        assert 0.2 < res.j_crit < 0.4
        assert res.target == "sq=1"

    def test_not_bracketed(self):
        with pytest.raises(NotBracketedError):
            find_critical(synthetic_sweep([0.1, 0.2], etas=[0.9, 0.8]), "eta", 0.3)

    def test_ambiguous_flag(self):
        sweep = synthetic_sweep([0.1, 0.2, 0.3, 0.4], etas=[0.5, 0.2, 0.5, 0.2])
        res = find_critical(sweep, "eta", 0.3)
        assert res.ambiguous
        assert res.bracket == (0.1, 0.2)

    def test_grid_relabeling_covariance(self):
        js = [0.1, 0.2, 0.4, 0.8]
        etas = [0.9, 0.55, 0.2, 0.05]
        res1 = find_critical(synthetic_sweep(js, etas=etas), "eta", 0.3)
        res2 = find_critical(synthetic_sweep([3.0 * j for j in js], etas=etas),
                             "eta", 0.3)
        assert res2.j_crit == pytest.approx(3.0 * res1.j_crit)

    def test_zero_bracket_falls_back_to_linear(self):
        sweep = synthetic_sweep([0.0, 0.2], sqs=[0.0, 2.0])
        res = find_critical(sweep, "sq", 1.0)
        assert res.j_crit == pytest.approx(0.1)


class TestFitScaling:
    def test_exact_inverse_n(self):
        points = [(n, 3.16 / n) for n in (6, 9, 12)]
        fit = fit_scaling(points)
        assert fit.coefficient == pytest.approx(3.16)
        assert fit.slope == pytest.approx(-1.0)

    def test_fixed_slope(self):
        points = [(0.25, 0.011), (0.5, 0.022), (1.0, 0.044)]
        fit = fit_scaling(points, slope=1.0)
        assert fit.coefficient == pytest.approx(0.044, rel=0.01)

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            fit_scaling([(1.0, 0.0), (2.0, 1.0)])


class TestMeltingMap:
    def test_j_zero_row_is_zero(self):
        m = melting_map(P6, [0.0, 0.3], n_energy_bins=4, seed=5)
        row0 = m.cells[0]
        assert np.nansum(np.abs(row0)) == 0.0

    def test_cells_within_entropy_range(self):
        m = melting_map(P6, [0.0, 0.2, 0.4], n_energy_bins=5, seed=5)
        vals = m.cells[~np.isnan(m.cells)]
        assert np.all(vals >= 0.0) and np.all(vals <= 6.0)
        assert m.counts.sum(axis=1).tolist() == [32, 32, 32]

    def test_rescaling_matches_direct_sampling(self):
        # uniform(-J, J) draws are exactly J times the uniform(-1, 1) draws
        bonds = build_bonds(2, 3)
        base = sample_disorder(replace(P6, j_bound=1.0), seed=77, bonds=bonds)
        direct = sample_disorder(replace(P6, j_bound=0.37), seed=77, bonds=bonds)
        assert np.allclose(0.37 * base.couplings, direct.couplings, atol=1e-15)
        assert np.array_equal(base.gammas, direct.gammas)

    def test_bin_refinement_consistency(self):
        coarse = melting_map(P6, [0.3], n_energy_bins=4, seed=9)
        fine = melting_map(P6, [0.3], n_energy_bins=8, seed=9)
        for b in range(4):
            c_fine = fine.counts[0, 2 * b:2 * b + 2]
            if c_fine.sum() == 0:
                continue
            v_fine = np.nan_to_num(fine.cells[0, 2 * b:2 * b + 2])
            agg = (v_fine * c_fine).sum() / c_fine.sum()
            assert agg == pytest.approx(coarse.cells[0, b], abs=1e-10)

    def test_bins_validation(self):
        with pytest.raises(ValueError):
            melting_map(P6, [0.1, 0.2], n_energy_bins=1, seed=0)


class TestDefaults:
    def test_default_grid_shape(self):
        assert DEFAULT_J_GRID[0] == 0.02 and DEFAULT_J_GRID[-1] == 0.48
        assert list(DEFAULT_J_GRID) == sorted(DEFAULT_J_GRID)

    def test_default_n_d(self):
        assert default_n_d(12, 100) == 100
        assert default_n_d(9, 100) == 800
        assert default_n_d(6, 50) == 3200
        assert default_n_d(15, 100) >= 5

    def test_grids_bracket_theory(self):
        for n in (6, 9, 12):
            g = grid_for_n(n, 1.0)
            assert g[0] < 0.4 / n < 3.16 / n < g[-1]
        g = grid_for_delta(9, 0.25)
        assert g[0] < 0.4 * 0.25 / 9 < g[-1]
