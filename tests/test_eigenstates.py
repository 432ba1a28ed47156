import numpy as np
import pytest

from qubitchaos.basis import build_hamiltonian, enumerate_sector
from qubitchaos.eigensolve import diagonalize
from qubitchaos.eigenstates import entropies
from qubitchaos.experiments import run_ensemble
from qubitchaos.model import ModelParams, build_bonds, sample_disorder


def entropy_sq(w):
    """Scalar oracle: S_q = -sum_i W_i log2 W_i, with 0*log2(0) = 0."""
    w = np.asarray(w, dtype=float)
    nz = w[w > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def sector_decomposition(j_bound, seed=31, lx=2, ly=3):
    params = ModelParams(lx=lx, ly=ly, delta=1.0, j_bound=j_bound)
    bonds = build_bonds(lx, ly)
    h = build_hamiltonian(enumerate_sector(lx * ly, 0),
                          sample_disorder(params, seed, bonds), bonds)
    return h, diagonalize(h)


class TestWeights:
    def test_normalization(self):
        _, d = sector_decomposition(0.3)
        assert np.allclose((d.eigenvectors ** 2).sum(axis=0), 1.0, rtol=0, atol=1e-10)


class TestEntropy:
    def test_pure_state(self):
        w = np.zeros(16)
        w[5] = 1.0
        assert entropy_sq(w) == 0.0

    def test_two_state_mixture(self):
        w = np.zeros(16)
        w[0] = w[1] = 0.5
        assert entropy_sq(w) == pytest.approx(1.0)

    def test_uniform_sector(self):
        dim = 2 ** 11
        assert entropy_sq(np.full(dim, 1 / dim)) == pytest.approx(11.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        w = rng.dirichlet(np.ones(64))
        assert entropy_sq(w) == pytest.approx(entropy_sq(rng.permutation(w)))

    def test_zero_only_at_j_zero(self):
        _, d0 = sector_decomposition(0.0)
        assert np.all(entropies(d0.eigenvectors) == 0.0)
        _, d1 = sector_decomposition(0.3)
        assert np.all(entropies(d1.eigenvectors) > 0.0)

    def test_columns_match_entropy_sq(self):
        _, d = sector_decomposition(0.3)
        v = d.eigenvectors.copy()
        v[:, 0] = 0.0
        v[0, 0] = 1.0              # one exact basis state
        v[:, 1] = 0.0
        v[[2, 5], 1] = np.sqrt(0.5)  # an exact two-state mixture
        v[:3, 2] = 0.0             # exact zeros inside a generic column
        vals = entropies(v)
        assert vals[0] == 0.0 and vals[1] == pytest.approx(1.0)
        expected = [entropy_sq(v[:, k] ** 2) for k in range(v.shape[1])]
        assert np.allclose(vals, expected, rtol=0, atol=1e-13)

    def test_merge_never_increases_entropy(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            w = rng.dirichlet(np.ones(32))
            merged = w.reshape(16, 2).sum(axis=1)
            assert entropy_sq(merged) <= entropy_sq(w) + 1e-12

    def test_eigenbasis_unitarity_column_sums(self):
        _, d = sector_decomposition(0.4)
        w_matrix = d.eigenvectors ** 2
        assert np.allclose(w_matrix.sum(axis=1), 1.0, atol=1e-9)


class TestEigenstateProfile:
    def test_j_zero_single_pair(self):
        # at J = 0 every eigenstate is one noninteracting register state
        _, d = sector_decomposition(0.0)
        w = d.eigenvectors[:, 0] ** 2
        assert np.count_nonzero(w > 1e-12) == 1
        assert w.max() == pytest.approx(1.0)

    def test_strong_coupling_spread(self):
        _, d = sector_decomposition(0.48, lx=3, ly=3)
        w = d.eigenvectors[:, d.dim // 2] ** 2
        assert np.count_nonzero(w > 1e-6) > 10
        assert w.max() < 0.9


class TestMeanEntropy:
    def test_j_zero_exact(self):
        # the pipeline's per-realization window mean is exactly 0 at J = 0
        r = run_ensemble(ModelParams(lx=2, ly=3, delta=1.0), 0.0, 4, 31)
        assert r.sq_mean == 0.0
        assert np.all(r.sq_per_realization == 0.0)
