import numpy as np
import pytest
import scipy.linalg

from qubitchaos.basis import build_hamiltonian, enumerate_sector
from qubitchaos.eigensolve import EigenDecomposition, diagonalize, validate
from qubitchaos.eigenstates import entropies
from qubitchaos.errors import DiagonalizationError
from qubitchaos.model import ModelParams, build_bonds, sample_disorder
from qubitchaos.spectral import select_central_levels


def random_symmetric(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return (a + a.T) / 2


class TestDiagonalize:
    def test_2x2_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, c = rng.uniform(-2, 2, size=2)
            d = diagonalize(np.array([[a, c], [c, -a]]))
            r = np.hypot(a, c)
            assert d.eigenvalues == pytest.approx([-r, r], abs=1e-12)

    def test_diagonal_input(self):
        diag = np.array([3.0, -1.0, 2.0, 0.5])
        d = diagonalize(np.diag(diag))
        assert np.array_equal(d.eigenvalues, np.sort(diag))
        # eigenvectors are unit basis vectors up to permutation/sign
        assert np.array_equal(np.abs(d.eigenvectors), np.eye(4)[:, np.argsort(diag)])

    def test_random_100_contract(self):
        h = random_symmetric(100, seed=5)
        report = validate(diagonalize(h), h)
        assert report.passed

    def test_ascending(self):
        d = diagonalize(random_symmetric(50, seed=6))
        assert np.all(np.diff(d.eigenvalues) >= 0)

    def test_trace_matches_eigenvalue_sum(self):
        h = random_symmetric(200, seed=7)
        d = diagonalize(h)
        tol = 1e-9 * 200 * np.max(np.abs(h))
        assert abs(d.eigenvalues.sum() - np.trace(h)) <= tol

    def test_negation_metamorphic(self):
        h = random_symmetric(40, seed=8)
        w_pos = diagonalize(h).eigenvalues
        w_neg = diagonalize(-h).eigenvalues
        assert np.allclose(w_pos, -w_neg[::-1], atol=1e-10)

    def test_j_zero_sector_eigenvalues_are_sorted_diagonal(self):
        params = ModelParams(lx=3, ly=3, delta=1.0, j_bound=0.0)
        bonds = build_bonds(3, 3)
        h = build_hamiltonian(enumerate_sector(9, 0),
                              sample_disorder(params, 13, bonds), bonds)
        d = diagonalize(h)
        assert np.allclose(d.eigenvalues, np.sort(np.diag(h.matrix)), atol=1e-12)

    def test_nonfinite_input(self):
        h = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(DiagonalizationError):
            diagonalize(h)
        with pytest.raises(DiagonalizationError):
            diagonalize(h, slice(0, 1))


class TestWindowedDiagonalize:
    def test_central_window_matches_full_solve_n9(self):
        params = ModelParams(lx=3, ly=3, delta=1.0, j_bound=0.3)
        bonds = build_bonds(3, 3)
        h = build_hamiltonian(enumerate_sector(9, 0),
                              sample_disorder(params, 21, bonds), bonds)
        window = select_central_levels(h.dim, params.window_fraction)
        full = diagonalize(h)
        part = diagonalize(h, window)
        assert part.dim == window.stop - window.start
        assert part.eigenvectors.shape == (h.dim, part.dim)
        assert np.allclose(part.eigenvalues, full.eigenvalues[window], rtol=0, atol=1e-12)
        assert np.allclose(entropies(part.eigenvectors),
                           entropies(full.eigenvectors[:, window]), rtol=0, atol=1e-10)
        assert validate(part, h).passed

    def test_full_range_window_matches_full_solve(self):
        h = random_symmetric(30, seed=12)
        assert np.allclose(diagonalize(h, slice(None)).eigenvalues,
                           diagonalize(h).eigenvalues, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name, window", [
        ("identity", slice(3, 9)), ("zero", slice(2, 5)),
        ("repeated_blocks", slice(4, 10)), ("tiny_offdiagonal", slice(1, 7)),
        ("diagonal", slice(2, 6)), ("one_by_one", slice(None)),
        ("two_by_two", slice(1, 2)), ("full_range", slice(None))])
    def test_matches_evr_subset(self, name, window):
        rng = np.random.default_rng(16)
        b = random_symmetric(4, seed=17)
        tiny = np.diag(np.full(7, 1e-170), 1)
        h = {"identity": np.eye(12), "zero": np.zeros((8, 8)),
             "repeated_blocks": scipy.linalg.block_diag(b, b, b),
             "tiny_offdiagonal": np.diag(rng.standard_normal(8)) + tiny + tiny.T,
             "diagonal": np.diag(rng.standard_normal(9)),
             "one_by_one": np.array([[2.5]]),
             "two_by_two": np.array([[1.0, 2.0], [2.0, -1.0]]),
             "full_range": random_symmetric(40, seed=18)}[name]
        lo, hi, _ = window.indices(len(h))
        d = diagonalize(h, window)
        w = scipy.linalg.eigh(h, driver="evr", subset_by_index=[lo, hi - 1], eigvals_only=True)
        assert d.eigenvectors.shape == (len(h), hi - lo)
        assert np.allclose(d.eigenvalues, w, rtol=0, atol=1e-12)
        assert validate(d, h).passed
        if name == "diagonal":  # exact unit vectors, matched to their diagonal entries
            rows = np.argmax(np.abs(d.eigenvectors), axis=0)
            assert np.array_equal(np.abs(d.eigenvectors), np.eye(len(h))[:, rows])
            assert np.array_equal(d.eigenvalues, np.diag(h)[rows])

    @pytest.mark.parametrize("window", [slice(3, 3), slice(5, 2), slice(0, 6, 2)])
    def test_empty_or_strided_window_rejected(self, window):
        with pytest.raises(ValueError):
            diagonalize(random_symmetric(8, seed=13), window)


class TestValidate:
    def test_exact_diagonal_residuals_zero(self):
        h = np.diag([1.0, 2.0, 3.0])
        d = EigenDecomposition(eigenvalues=np.array([1.0, 2.0, 3.0]),
                               eigenvectors=np.eye(3))
        report = validate(d, h)
        assert report.ortho_residual == 0.0
        assert report.eigen_residual == 0.0
        assert report.passed

    def test_zeroed_eigenvector_flagged(self):
        h = random_symmetric(10, seed=9)
        d = diagonalize(h)
        d.eigenvectors[:, 0] = 0.0
        report = validate(d, h)
        assert not report.ortho_ok
        assert not report.passed

    def test_sector_end_to_end(self):
        params = ModelParams(lx=2, ly=5, delta=1.0, j_bound=0.3)
        bonds = build_bonds(2, 5)
        h = build_hamiltonian(enumerate_sector(10, 0),
                              sample_disorder(params, 17, bonds), bonds)
        assert validate(diagonalize(h), h).passed

    def test_windowed_decomposition(self):
        h = random_symmetric(60, seed=14)
        d = diagonalize(h, slice(20, 35))
        report = validate(d, h)
        assert report.passed
        assert report.ortho_residual <= 1e-12

    def test_windowed_zeroed_eigenvector_flagged(self):
        h = random_symmetric(60, seed=15)
        d = diagonalize(h, slice(20, 35))
        d.eigenvectors[:, 3] = 0.0
        assert not validate(d, h).passed

    def test_dimension_mismatch(self):
        d = diagonalize(random_symmetric(5, seed=10))
        with pytest.raises(ValueError):
            validate(d, random_symmetric(6, seed=11))
