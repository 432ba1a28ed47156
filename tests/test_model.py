import math

import numpy as np
import pytest

from qubitchaos.errors import GeometryError
from qubitchaos.model import (Bond, ModelParams, build_bonds, compact_shape,
                              derive_seed, multiqubit_spacing_log10, sample_disorder,
                              theoretical_jc)


def torus_bonds_bruteforce(lx, ly):
    """Independent oracle: enumerate all site pairs adjacent on the torus."""
    def cell(s):
        return (s % lx, s // lx)

    def adjacent(a, b):
        (xa, ya), (xb, yb) = cell(a), cell(b)
        dx = min((xa - xb) % lx, (xb - xa) % lx)
        dy = min((ya - yb) % ly, (yb - ya) % ly)
        return (dx == 1 and dy == 0) or (dx == 0 and dy == 1)

    n = lx * ly
    return {(a, b) for a in range(n) for b in range(a + 1, n) if adjacent(a, b)}


class TestBuildBonds:
    @pytest.mark.parametrize("lx,ly,count", [(3, 3, 18), (1, 2, 1), (2, 2, 4), (2, 3, 9)])
    def test_counts(self, lx, ly, count):
        assert len(build_bonds(lx, ly)) == count

    def test_two_sites(self):
        assert build_bonds(1, 2) == [Bond(0, 1)]

    @pytest.mark.parametrize("lx,ly", [(1, 2), (2, 2), (2, 3), (3, 3), (3, 4),
                                       (1, 5), (4, 5), (2, 5), (3, 5)])
    def test_matches_bruteforce(self, lx, ly):
        got = {(b.i, b.j) for b in build_bonds(lx, ly)}
        assert got == torus_bonds_bruteforce(lx, ly)

    @pytest.mark.parametrize("lx,ly", [(3, 3), (3, 4), (4, 5), (3, 5)])
    def test_size_2n_when_extents_above_two(self, lx, ly):
        assert len(build_bonds(lx, ly)) == 2 * lx * ly

    @pytest.mark.parametrize("lx,ly", [(1, 2), (2, 2), (2, 3), (1, 5), (2, 5)])
    def test_size_below_2n_when_extent_at_most_two(self, lx, ly):
        assert len(build_bonds(lx, ly)) < 2 * lx * ly

    def test_no_duplicates_and_ordering(self):
        bonds = build_bonds(4, 4)
        assert len(set(bonds)) == len(bonds)
        assert all(b.i < b.j for b in bonds)

    def test_invalid_geometry(self):
        with pytest.raises(GeometryError):
            build_bonds(1, 1)


class TestSampleDisorder:
    def params(self, **kw):
        base = dict(lx=3, ly=3, delta=1.0, j_bound=0.5)
        base.update(kw)
        return ModelParams(**base)

    def test_zero_delta_gives_exact_gammas(self):
        r = sample_disorder(self.params(delta=0.0), seed=5)
        assert np.all(r.gammas == 1.0)

    def test_zero_j_gives_exact_zero_couplings(self):
        r = sample_disorder(self.params(j_bound=0.0), seed=5)
        assert np.all(r.couplings == 0.0) and not np.any(np.signbit(r.couplings))

    def test_reproducible(self):
        a = sample_disorder(self.params(), seed=99)
        b = sample_disorder(self.params(), seed=99)
        assert np.array_equal(a.gammas, b.gammas)
        assert np.array_equal(a.couplings, b.couplings)

    def test_bounds(self):
        p = self.params()
        gammas = np.concatenate([sample_disorder(p, seed=s).gammas
                                 for s in range(10_000 // p.n + 1)])
        assert gammas.min() >= 0.5 and gammas.max() <= 1.5
        couplings = np.concatenate([sample_disorder(p, seed=s).couplings
                                    for s in range(200)])
        assert np.all(np.abs(couplings) <= 0.5)

    def test_sample_mean(self):
        # uniform on width-1 interval: sd = 1/sqrt(12)
        p = self.params()
        n_samp = 100_000
        gammas = np.concatenate([sample_disorder(p, seed=s).gammas
                                 for s in range(n_samp // p.n + 1)])[:n_samp]
        assert abs(gammas.mean() - 1.0) <= 4 * (1 / math.sqrt(12)) / math.sqrt(n_samp)


class TestModelParams:
    def test_invariants(self):
        with pytest.raises(GeometryError):
            ModelParams(lx=1, ly=1)
        with pytest.raises(ValueError):
            ModelParams(lx=3, ly=3, delta=1.5)
        with pytest.raises(ValueError):
            ModelParams(lx=3, ly=3, j_bound=-0.1)
        with pytest.raises(ValueError):
            ModelParams(lx=3, ly=3, window_fraction=0.6)
        with pytest.raises(ValueError):
            ModelParams(lx=3, ly=3, parity="both")

    def test_derived_fields(self):
        p = ModelParams(lx=3, ly=4)
        assert p.n == 12
        assert p.parity_bit == 0
        assert ModelParams(lx=3, ly=4, parity="odd").parity_bit == 1


class TestSpacingEstimate:
    def test_small_n(self):
        assert multiqubit_spacing_log10(1) == pytest.approx(math.log10(0.5))
        assert multiqubit_spacing_log10(12) == pytest.approx(math.log10(12 / 4096))

    def test_n_1000_log10(self):
        expected = 3.0 - 1000 * math.log10(2.0)  # ~= -298.03
        assert multiqubit_spacing_log10(1000) == pytest.approx(expected)
        assert round(multiqubit_spacing_log10(1000)) == -298

    def test_huge_n_no_underflow_in_log_domain(self):
        assert multiqubit_spacing_log10(10_000) == pytest.approx(4 - 10_000 * math.log10(2))

    def test_invalid(self):
        with pytest.raises(ValueError):
            multiqubit_spacing_log10(0)


class TestTheoreticalJc:
    def test_n12(self):
        jc, jcs = theoretical_jc(12, delta=1.0)
        assert jc == pytest.approx(3.16 / 12, abs=1e-12)
        assert jcs == pytest.approx(0.4 / 12, abs=1e-12)

    def test_n1000(self):
        _, jcs = theoretical_jc(1000, delta=1.0)
        assert jcs == pytest.approx(4e-4)

    def test_degenerate(self):
        assert theoretical_jc(1, c=1.0, delta=0.7) == pytest.approx((1.0, 0.28))

    def test_invalid_c(self):
        with pytest.raises(ValueError):
            theoretical_jc(12, c=0.0)


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    seeds = {derive_seed(42, k) for k in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 0) != derive_seed(43, 0)


def test_compact_shape():
    assert compact_shape(6) == (2, 3)
    assert compact_shape(9) == (3, 3)
    assert compact_shape(12) == (3, 4)
    assert compact_shape(15) == (3, 5)
    assert compact_shape(7) == (1, 7)
