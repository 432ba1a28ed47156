import numpy as np
import pytest

from qubitchaos.basis import build_hamiltonian, diagonal_energies, enumerate_sector, popcount
from qubitchaos.errors import CapacityError
from qubitchaos.model import Bond, DisorderRealization, ModelParams, build_bonds, sample_disorder


def diagonal_energy(state: int, gammas: np.ndarray) -> float:
    """Scalar oracle for diagonal_energies: sum_i Gamma_i * (1 - 2*b_i) for bits b_i."""
    bits = (int(state) >> np.arange(len(gammas))) & 1
    return float(np.dot(gammas, 1 - 2 * bits))


def realization(gammas, couplings):
    return DisorderRealization(gammas=np.asarray(gammas, dtype=float),
                               couplings=np.asarray(couplings, dtype=float))


class TestEnumerateSector:
    def test_n3_even(self):
        s = enumerate_sector(3, 0)
        assert s.states.tolist() == [0b000, 0b011, 0b101, 0b110]

    def test_n2_odd(self):
        assert enumerate_sector(2, 1).states.tolist() == [0b01, 0b10]

    def test_n12_dim(self):
        assert enumerate_sector(12, 0).dim == 2048
        assert enumerate_sector(12, 1).dim == 2048

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_invariants(self, n):
        for parity in (0, 1):
            s = enumerate_sector(n, parity)
            assert s.dim == 2 ** (n - 1) or n == 1
            assert np.all(np.diff(s.states.astype(np.int64)) > 0)
            assert np.all(popcount(s.states) % 2 == parity)
            assert np.array_equal(s.index_of[s.states], np.arange(s.dim))
        assert enumerate_sector(n, 0).dim + enumerate_sector(n, 1).dim == 2 ** n

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            enumerate_sector(17, 0)


class TestDiagonalEnergy:
    def test_all_down_bits(self):
        assert diagonal_energy(0, np.ones(12)) == pytest.approx(12.0)

    def test_two_qubits(self):
        assert diagonal_energy(0b01, np.array([0.8, 1.2])) == pytest.approx(0.4)

    def test_full_space_sum_is_zero(self):
        rng = np.random.default_rng(3)
        gammas = rng.uniform(0.5, 1.5, size=6)
        total = sum(diagonal_energy(s, gammas) for s in range(64))
        assert total == pytest.approx(0.0, abs=1e-10)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(4)
        gammas = rng.uniform(0.5, 1.5, size=5)
        states = np.arange(32, dtype=np.uint32)
        vec = diagonal_energies(states, gammas)
        for s in states:
            assert vec[s] == pytest.approx(diagonal_energy(int(s), gammas))


class TestBuildHamiltonian:
    def test_n2_even_sector_explicit(self):
        sector = enumerate_sector(2, 0)  # states {00, 11}
        g1, g2, j12 = 0.9, 1.1, 0.3
        h = build_hamiltonian(sector, realization([g1, g2], [j12]), [Bond(0, 1)])
        expected = np.array([[g1 + g2, j12], [j12, -g1 - g2]])
        assert np.array_equal(h.matrix, expected)

    def test_j_zero_is_diagonal(self):
        params = ModelParams(lx=2, ly=3, delta=1.0, j_bound=0.0)
        bonds = build_bonds(2, 3)
        sector = enumerate_sector(6, 0)
        disorder = sample_disorder(params, 7, bonds)
        h = build_hamiltonian(sector, disorder, bonds)
        energies = diagonal_energies(sector.states, disorder.gammas)
        assert np.array_equal(h.matrix, np.diag(energies))
        evals = np.linalg.eigvalsh(h.matrix)
        assert np.allclose(evals, np.sort(energies))

    def test_three_site_ring_row_support(self):
        # periodic 1D ring used as a unit-test geometry: 3 bonds
        bonds = [Bond(0, 1), Bond(0, 2), Bond(1, 2)]
        sector = enumerate_sector(3, 0)
        h = build_hamiltonian(sector, realization([1.0, 1.0, 1.0], [0.1, 0.2, 0.3]),
                              bonds)
        off = h.matrix - np.diag(np.diag(h.matrix))
        assert np.all((off != 0).sum(axis=1) == 3)

    def test_exact_symmetry_and_sector_trace(self):
        params = ModelParams(lx=3, ly=3, delta=1.0, j_bound=0.5)
        bonds = build_bonds(3, 3)
        r = sample_disorder(params, 21, bonds)
        trace = 0.0
        for parity in (0, 1):
            h = build_hamiltonian(enumerate_sector(9, parity), r, bonds)
            assert np.array_equal(h.matrix, h.matrix.T)
            trace += np.trace(h.matrix)
        assert trace == pytest.approx(0.0, abs=1e-9)

    def test_row_support_equals_bond_count(self):
        params = ModelParams(lx=3, ly=3, delta=1.0, j_bound=0.5)
        bonds = build_bonds(3, 3)
        sector = enumerate_sector(9, 0)
        h = build_hamiltonian(sector, sample_disorder(params, 2, bonds), bonds)
        off_support = ((h.matrix - np.diag(np.diag(h.matrix))) != 0).sum(axis=1)
        assert np.all(off_support == len(bonds))

    def test_offdiagonal_only_on_bond_flips(self):
        bonds = build_bonds(2, 2)
        sector = enumerate_sector(4, 0)
        rng = np.random.default_rng(8)
        h = build_hamiltonian(
            sector, realization(rng.uniform(0.5, 1.5, 4), rng.uniform(-1, 1, len(bonds))),
            bonds)
        masks = {(1 << b.i) | (1 << b.j) for b in bonds}
        for a in range(sector.dim):
            for b in range(sector.dim):
                if a != b and h.matrix[a, b] != 0:
                    assert int(sector.states[a] ^ sector.states[b]) in masks

    def test_mismatch_errors(self):
        bonds = build_bonds(2, 2)
        sector = enumerate_sector(4, 0)
        with pytest.raises(ValueError):
            build_hamiltonian(sector, realization(np.ones(3), np.zeros(len(bonds))), bonds)
        with pytest.raises(ValueError):
            build_hamiltonian(sector, realization(np.ones(4), np.zeros(2)), bonds)
