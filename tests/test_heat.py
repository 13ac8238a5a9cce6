import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from awsym import (SampledField, desmooth_complex, desmooth_fourier,
                   gaussian_1d, make_grid, radial_gaussian, sample, smooth,
                   tensor)
from awsym.heat import ESpaceDivergenceError

from oracles import (desmooth_complex_per_node, heat_convolution_quadrature,
                     smooth_by_convolution)


def closed_form_desmoothed(a: float):
    """Phi with smooth(Phi) = e^{-a x^2}: spectrum sqrt(pi/a) e^{-b xi^2},
    b = pi^2/a - pi/2, valid for a < 2 pi."""
    b = math.pi**2 / a - math.pi / 2.0
    return gaussian_1d(math.pi**2 / b,
                       coeff=math.sqrt(math.pi / a) * math.sqrt(math.pi / b))


class TestSmooth:
    def test_heat_kernel_to_standard_gaussian(self, grid256):
        f = sample(gaussian_1d(2 * math.pi, coeff=math.sqrt(2.0)), grid256)
        out = smooth(f)
        ref = sample(gaussian_1d(math.pi), grid256)
        assert np.max(np.abs(out.values - ref.values)) < 1e-12

    def test_zero(self, grid256):
        z = SampledField(grid256, np.zeros(256))
        assert np.all(smooth(z).values == 0.0)

    def test_standard_gaussian_closed_form(self, grid256):
        out = smooth(sample(gaussian_1d(math.pi), grid256))
        ref = sample(gaussian_1d(2 * math.pi / 3.0,
                                 coeff=math.sqrt(2.0 / 3.0)), grid256)
        assert np.max(np.abs(out.values - ref.values)) < 1e-12

    def test_multiplier_agrees_with_convolution(self, grid256):
        u = gaussian_1d(math.pi, center=0.5) + gaussian_1d(2.0, power=1,
                                                           coeff=0.7j)
        f = sample(u, grid256)
        assert f.boundary_magnitude() < 1e-13
        a = smooth(f)
        b = smooth_by_convolution(f)
        assert np.max(np.abs(a.values - b.values)) < 1e-10

    def test_multiplier_agrees_with_convolution_2d(self, phase64):
        f = sample(radial_gaussian(2, math.pi), phase64)
        a = smooth(f)
        b = smooth_by_convolution(f)
        assert np.max(np.abs(a.values - b.values)) < 1e-10

    def test_against_dense_quadrature_oracle(self, grid256):
        u = gaussian_1d(1.5, power=2, coeff=0.8)
        out = smooth(sample(u, grid256))
        xs = np.array([-1.25, 0.0, 0.9375])   # node-aligned probes
        oracle = heat_convolution_quadrature(lambda v: u(v.astype(complex)),
                                             xs)
        got = [out.values[grid256.index_of(x)] for x in xs]
        assert_allclose(got, oracle, atol=1e-10)

    def test_commutes_with_whole_step_translations(self, grid256):
        f = sample(gaussian_1d(2.0), grid256)
        k = 12
        rolled_then_smoothed = smooth(SampledField(
            grid256, np.roll(f.values, k)))
        smoothed_then_rolled = np.roll(smooth(f).values, k)
        assert np.max(np.abs(rolled_then_smoothed.values
                             - smoothed_then_rolled)) < 1e-13


class TestDesmoothFourier:
    def test_well_posed_standard_gaussian(self, grid256):
        rep = desmooth_fourier(sample(gaussian_1d(math.pi), grid256))
        ref = sample(gaussian_1d(2 * math.pi, coeff=math.sqrt(2.0)), grid256)
        assert np.max(np.abs(rep.result.values - ref.values)) < 1e-5
        assert rep.residual < 1e-8
        assert rep.method == "fourier-regularized"

    def test_ill_posed_wide_gaussian_reports_large_residual(self, grid256):
        # e^{-x^2/4} decays too slowly for the box: its truncation floor
        # sits above the relative threshold and is amplified
        rep = desmooth_fourier(sample(gaussian_1d(0.25), grid256))
        assert rep.residual > 1e-2

    def test_zero(self, grid256):
        rep = desmooth_fourier(SampledField(grid256, np.zeros(256)))
        assert rep.result.sup_norm() == 0.0
        assert rep.residual == 0.0

    def test_threshold_validation(self, grid256):
        f = sample(gaussian_1d(math.pi), grid256)
        with pytest.raises(ValueError):
            desmooth_fourier(f, rel_threshold=0.0)
        with pytest.raises(ValueError):
            desmooth_fourier(f, rel_threshold=1.0)

    def test_cutoff_reported(self, grid256):
        rep = desmooth_fourier(sample(gaussian_1d(math.pi), grid256))
        # kept region of e^{-pi xi^2}: |xi| <= sqrt(12 ln 10 / pi) ~ 2.97
        assert 2.5 < rep.cutoff_frequency < 3.5


class TestDesmoothComplex:
    @pytest.mark.parametrize("a", [2.0, math.pi, 4.0])
    def test_matches_closed_form(self, grid256, a):
        rep = desmooth_complex(gaussian_1d(a), grid256, 3.0, 64)
        ref = sample(closed_form_desmoothed(a), grid256)
        assert np.max(np.abs(rep.result.values - ref.values)) < 1e-6
        assert rep.residual < 1e-6
        assert rep.method == "complex-shift"

    def test_standard_gaussian_gives_heat_kernel(self, grid256):
        rep = desmooth_complex(gaussian_1d(math.pi), grid256, 3.0, 64)
        ref = sample(gaussian_1d(2 * math.pi, coeff=math.sqrt(2.0)), grid256)
        assert np.max(np.abs(rep.result.values - ref.values)) < 1e-6

    def test_odd_input(self, grid256):
        rep = desmooth_complex(gaussian_1d(math.pi, power=1), grid256,
                               3.0, 64)
        vals = rep.result.values
        assert np.max(np.abs(vals[1:] + vals[1:][::-1])) < 1e-12
        assert rep.residual < 1e-6

    def test_divergent_width_rejected(self, grid256):
        with pytest.raises(ESpaceDivergenceError):
            desmooth_complex(gaussian_1d(2 * math.pi + 0.1), grid256, 3.0, 64)

    def test_2d_factorization(self, phase64):
        u = tensor(gaussian_1d(math.pi), gaussian_1d(2.0))
        rep = desmooth_complex(u, phase64, 3.0, 64)
        ref = sample(tensor(closed_form_desmoothed(math.pi),
                            closed_form_desmoothed(2.0)), phase64)
        assert np.max(np.abs(rep.result.values - ref.values)) < 1e-6
        assert rep.residual < 1e-8

    def test_left_inverse_over_width_range(self, grid256):
        for a in (math.pi / 2 + 0.2, 2.0, math.pi, 4.5, 5.8):
            u = gaussian_1d(a, center=0.4, power=1) \
                + gaussian_1d(min(a + 0.4, 6.0), coeff=0.5)
            rep = desmooth_complex(u, grid256, 3.0, 64)
            assert rep.residual < 1e-6, f"width {a}"


class TestStripBatching:
    """The batched strip pass against the literal per-node loop: result
    and residual must be equal bit for bit."""

    @pytest.mark.parametrize("u, npts, ell, strip, ynodes", [
        (gaussian_1d(math.pi), 256, 8.0, 3.0, 64),
        # 256 x 1024 slabs: large enough for numpy to elide temporaries
        (gaussian_1d(6.0, center=0.1, power=2, coeff=0.7 - 0.2j),
         1024, 16.0, 10.0, 256),
        (gaussian_1d(2.0, center=0.4, power=3, coeff=0.37 + 0.11j)
         + gaussian_1d(4.5, power=1), 256, 8.0, 3.0, 300),
        (tensor(gaussian_1d(math.pi), gaussian_1d(2.0, power=2)),
         256, 8.0, 3.0, 64),
        (tensor(gaussian_1d(1.5, center=0.5, power=1, coeff=0.77),
                gaussian_1d(2.0))
         + tensor(gaussian_1d(4.0, coeff=0.3 + 0.9j),
                  gaussian_1d(2.5, power=1, coeff=0.123 - 0.456j)),
         64, 4.0, 3.0, 48),
    ], ids=["1d", "1d-wide-strip", "1d-sum-powers", "2d-power",
            "2d-sum-powers"])
    def test_bytes_equal_per_node_loop(self, u, npts, ell, strip, ynodes):
        g = make_grid(u.dim, npts, ell)
        rep = desmooth_complex(u, g, strip, ynodes)
        values, residual = desmooth_complex_per_node(u, g, strip, ynodes)
        assert np.array_equal(rep.result.values, values)
        assert rep.residual == residual


class TestMethodAgreement:
    def test_agreement_when_full_spectrum_kept(self):
        # width and box chosen so no cutoff triggers and both routes see
        # the same (fully resolved) spectrum
        g = make_grid(1, 40, 4.0)
        u = gaussian_1d(2.4)
        rf = desmooth_fourier(sample(u, g))
        rc = desmooth_complex(u, g, 3.0, 64)
        edge = g.freq.half_extent
        assert rf.cutoff_frequency == pytest.approx(edge)
        assert np.max(np.abs(rf.result.values - rc.result.values)) < 1e-6
