import numpy as np
import pytest

from qubitchaos.errors import DegenerateWindowError, InsufficientStatisticsError
from qubitchaos.spectral import (S0, F_POISSON_S0, F_WIGNER_S0, eta,
                                 normalized_spacings, poisson_pdf,
                                 select_central_levels, spacing_histogram,
                                 wigner_pdf)


class TestSelectCentralLevels:
    def test_dim_2048(self):
        w = select_central_levels(2048, fraction=0.0625)
        assert w.stop - w.start == 256
        assert w.start == (2048 - 256) // 2

    def test_minimum_four(self):
        w = select_central_levels(32, fraction=0.0625)
        assert w.stop - w.start == 4

    def test_too_few_levels(self):
        with pytest.raises(InsufficientStatisticsError):
            select_central_levels(3, 0.0625)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            select_central_levels(10, fraction=0.75)


class TestNormalizedSpacings:
    def test_equally_spaced(self):
        sp = normalized_spacings(np.arange(10.0))
        assert np.allclose(sp, 1.0)

    def test_two_gaps(self):
        sp = normalized_spacings(np.array([0.0, 1.0, 4.0]))
        assert sp == pytest.approx([0.5, 1.5])

    def test_mean_is_one(self):
        rng = np.random.default_rng(2)
        e = np.sort(rng.normal(size=500))
        assert normalized_spacings(e).mean() == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        e = np.sort(rng.normal(size=300))
        w = select_central_levels(len(e), 0.0625)
        assert np.allclose(normalized_spacings(e[w]),
                           normalized_spacings((e + 17.3)[w]), atol=1e-9)

    def test_degeneracy_yields_zero_spacing(self):
        sp = normalized_spacings(np.array([0.0, 1.0, 1.0, 2.0]))
        assert 0.0 in sp

    def test_fully_degenerate_error(self):
        with pytest.raises(DegenerateWindowError):
            normalized_spacings(np.array([1.0, 1.0, 1.0]))


class TestReferenceStatistics:
    def test_values_at_s0(self):
        assert F_POISSON_S0 == pytest.approx(0.37678, abs=1e-4)
        assert F_WIGNER_S0 == pytest.approx(0.16108, abs=1e-4)

    def test_pdf_crossing_at_s0(self):
        # s0 is defined as the intersection point of the two densities
        assert poisson_pdf(S0) == pytest.approx(0.6232, abs=1e-3)
        assert wigner_pdf(S0) == pytest.approx(0.6232, abs=1e-3)
        assert abs(poisson_pdf(S0) - wigner_pdf(S0)) < 1e-3


class TestEta:
    def test_closed_form_identity(self):
        # sample whose empirical CDF at s0 equals the Poisson value -> eta = 1
        k = 100_000
        below = int(round(F_POISSON_S0 * k))
        sp = np.concatenate([np.full(below, 0.2), np.full(k - below, 1.0)])
        assert eta(sp) == pytest.approx((below / k - F_WIGNER_S0)
                                        / (F_POISSON_S0 - F_WIGNER_S0))
        assert eta(sp) == pytest.approx(1.0, abs=1e-4)

    def test_wigner_fraction_gives_zero(self):
        k = 100_000
        below = int(round(F_WIGNER_S0 * k))
        sp = np.concatenate([np.full(below, 0.2), np.full(k - below, 1.0)])
        assert eta(sp) == pytest.approx(0.0, abs=1e-4)

    def test_exponential_sample(self):
        rng = np.random.default_rng(3)
        sp = rng.exponential(size=100_000)
        sp /= sp.mean()
        assert eta(sp) == pytest.approx(1.0, abs=0.02)

    def test_goe_sample_small(self):
        rng = np.random.default_rng(4)
        pool = []
        for _ in range(50):
            a = rng.standard_normal((100, 100))
            w = np.linalg.eigvalsh((a + a.T) / np.sqrt(2))
            pool.append(normalized_spacings(w[25:75]))
        assert eta(np.concatenate(pool)) == pytest.approx(0.0, abs=0.1)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        e = np.sort(rng.normal(size=400))
        sp1 = normalized_spacings(e)
        sp2 = normalized_spacings(7.7 * e)
        assert eta(sp1) == pytest.approx(eta(sp2), abs=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            eta(np.array([]))


class TestSpacingHistogram:
    def test_single_spacing_density(self):
        h = spacing_histogram(np.array([1.05]), bin_width=0.1, s_max=5.0)
        i = int(1.05 / 0.1)
        assert h.density[i] == pytest.approx(10.0)
        assert np.count_nonzero(h.density) == 1

    def test_poisson_synthetic(self):
        rng = np.random.default_rng(6)
        sp = rng.exponential(size=1_000_000)
        h = spacing_histogram(sp, bin_width=0.1, s_max=5.0)
        centers = 0.5 * (h.edges[:-1] + h.edges[1:])
        in_range = np.mean(sp < 5.0)
        for c, d, lo, hi in zip(centers, h.density, h.edges[:-1], h.edges[1:]):
            p = (np.exp(-lo) - np.exp(-hi)) / 0.1  # exact bin-average density
            sigma = np.sqrt(p * 0.1 / (len(sp) * in_range)) / 0.1
            assert abs(d * in_range - p) < 3.5 * sigma + 1e-12

    def test_empty_error(self):
        with pytest.raises(ValueError):
            spacing_histogram(np.array([]), 0.1, 5.0)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            spacing_histogram(np.array([1.0]), bin_width=0.0, s_max=5.0)
