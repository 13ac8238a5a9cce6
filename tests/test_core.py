import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from awsym import (Grid, GridMismatchError, SampledField, fourier, gaussian_1d,
                   inner, inverse_fourier, make_grid, radial_gaussian, sample)
from awsym.core import BAND_HALFWIDTH, RELATIVE_CUT, phase_table
from awsym.quantize import coherent_state

from oracles import ft_quadrature, inner_quadrature


class TestMakeGrid:
    def test_unit_spacing_nodes(self):
        g = make_grid(1, 8, 4.0)
        assert g.spacing == 1.0
        assert_allclose(g.axis_nodes(), np.arange(-4.0, 4.0))

    def test_desk_scale(self):
        g = make_grid(2, 256, 8.0)
        assert g.spacing == pytest.approx(1.0 / 16.0)
        assert g.size == 256**2

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            make_grid(1, 7, 4.0)

    def test_grid_itself_rejects_odd_n(self):
        # 9 = 4 * 1.5^2 passes the self-dual test, but the centring shifts
        # put x = 0 at index N/2 only for even N
        with pytest.raises(ValueError, match="npoints must be even"):
            Grid(1, 9, 1.5)
        with pytest.raises(ValueError, match="npoints must be even"):
            Grid(2, 9, 1.5)

    def test_rejects_bad_extent_and_dim(self):
        with pytest.raises(ValueError):
            make_grid(1, 8, 0.0)
        with pytest.raises(ValueError):
            make_grid(1, 8, math.inf)
        with pytest.raises(ValueError):
            make_grid(3, 8, 4.0)
        with pytest.raises(ValueError):
            make_grid(1, 4, 4.0)

    def test_freq_grid_layout(self):
        g = make_grid(1, 8, 4.0)
        assert g.freq.spacing == pytest.approx(1.0 / 8.0)
        assert g.freq.half_extent == pytest.approx(0.5)

    def test_self_duality(self):
        assert make_grid(1, 256, 8.0).is_self_dual()
        assert not make_grid(1, 128, 8.0).is_self_dual()


class TestSample:
    def test_gaussian_at_origin(self, grid256):
        f = sample(gaussian_1d(math.pi), grid256)
        assert f.values[grid256.index_of(0.0)] == pytest.approx(1.0)

    def test_odd_factor_vanishes_at_origin(self, grid256):
        f = sample(gaussian_1d(math.pi, power=1), grid256)
        assert f.values[grid256.index_of(0.0)] == 0.0

    def test_dimension_mismatch(self, grid256):
        with pytest.raises(GridMismatchError):
            sample(radial_gaussian(2, 1.0), grid256)

    def test_real_even_input_stays_real_even(self, grid256):
        u = gaussian_1d(2.0) + gaussian_1d(1.0, power=2, coeff=0.5)
        f = sample(u, grid256)
        assert np.max(np.abs(f.values.imag)) == 0.0
        vals = f.values.real
        assert_allclose(vals[1:], vals[1:][::-1], atol=1e-15)


class TestFourier:
    def test_standard_gaussian_self_dual(self, grid256):
        f = sample(gaussian_1d(math.pi), grid256)
        out = fourier(f)
        ref = sample(gaussian_1d(math.pi), out.grid)
        assert np.max(np.abs(out.values - ref.values)) < 1e-14

    def test_width_two_closed_form_and_quadrature(self, grid256):
        # closed form sqrt(pi/2) e^{-pi^2 xi^2 / 2}; oracle: dense trapezoid
        f = sample(gaussian_1d(2.0), grid256)
        out = fourier(f)
        xi = out.grid.axis_nodes()
        closed = np.sqrt(np.pi / 2.0) * np.exp(-np.pi**2 * xi**2 / 2.0)
        assert np.max(np.abs(out.values - closed)) < 1e-13
        probe = [-3.0, -0.5, 0.0, 1.25]
        oracle = ft_quadrature(lambda x: np.exp(-2.0 * x**2), probe)
        got = [out.values[out.grid.index_of(p)] for p in probe]
        assert_allclose(got, oracle, atol=1e-12)

    def test_zero_field(self, grid256):
        f = SampledField(grid256, np.zeros(256))
        assert np.all(fourier(f).values == 0.0)

    def test_round_trip(self, grid256):
        for u in (gaussian_1d(math.pi), gaussian_1d(2.0),
                  gaussian_1d(1.0, power=2, coeff=1.0 + 0.5j, center=0.7)):
            f = sample(u, grid256)
            back = inverse_fourier(fourier(f))
            assert back.grid == grid256
            assert np.max(np.abs(back.values - f.values)) < 1e-13

    def test_round_trip_2d(self, phase64):
        f = sample(radial_gaussian(2, math.pi), phase64)
        back = inverse_fourier(fourier(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-13

    def test_linearity_exact(self, grid256):
        f = sample(gaussian_1d(math.pi), grid256)
        g = sample(gaussian_1d(2.0, center=0.5), grid256)
        lhs = fourier(SampledField(grid256, 2.0 * f.values - 1.5j * g.values))
        rhs = 2.0 * fourier(f).values - 1.5j * fourier(g).values
        assert np.max(np.abs(lhs.values - rhs)) < 1e-14

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_linearity_property(self, a, b):
        g = make_grid(1, 64, 4.0)
        f1 = sample(gaussian_1d(math.pi), g)
        f2 = sample(gaussian_1d(1.5, center=0.3), g)
        lhs = fourier(SampledField(g, a * f1.values + b * f2.values)).values
        rhs = a * fourier(f1).values + b * fourier(f2).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestInner:
    def test_coherent_state_unit_norm(self, grid256):
        psi = coherent_state((0.0, 0.0), grid256)
        # oracle: dense quadrature of |2^{1/4} e^{-pi u^2}|^2
        oracle = inner_quadrature(
            lambda u: 2.0**0.25 * np.exp(-np.pi * u**2),
            lambda u: 2.0**0.25 * np.exp(-np.pi * u**2))
        assert inner(psi, psi) == pytest.approx(oracle, abs=1e-10)
        assert inner(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_zero_second_slot(self, grid256):
        f = sample(gaussian_1d(math.pi), grid256)
        z = SampledField(grid256, np.zeros(256))
        assert inner(f, z) == 0.0

    def test_gaussian_pair(self, grid256):
        f = sample(gaussian_1d(math.pi), grid256)
        # int e^{-2 pi x^2} dx = 2^{-1/2}; oracle: dense quadrature
        oracle = inner_quadrature(lambda x: np.exp(-np.pi * x**2),
                                  lambda x: np.exp(-np.pi * x**2))
        assert inner(f, f) == pytest.approx(2.0**-0.5, rel=1e-12)
        assert inner(f, f) == pytest.approx(oracle, rel=1e-10)

    def test_conjugate_linearity(self, grid256):
        f = sample(gaussian_1d(math.pi), grid256)
        g = sample(gaussian_1d(2.0, center=0.4), grid256)
        assert inner(f, 2j * g) == pytest.approx(-2j * inner(f, g))

    def test_grid_mismatch(self, grid256, grid64):
        f = sample(gaussian_1d(math.pi), grid256)
        g = sample(gaussian_1d(math.pi), grid64)
        with pytest.raises(GridMismatchError):
            inner(f, g)

    def test_parseval(self, grid256):
        u1 = gaussian_1d(math.pi, center=0.5) + gaussian_1d(2.0, power=1,
                                                            coeff=0.3j)
        u2 = gaussian_1d(1.0, power=2, coeff=0.9)
        f = sample(u1, grid256)
        g = sample(u2, grid256)
        assert f.boundary_magnitude() < 1e-14
        assert g.boundary_magnitude() < 1e-14
        pos = inner(f, g)
        frq = inner(fourier(f), fourier(g))
        assert abs(pos - frq) <= 1e-12 * abs(pos)


class TestSampledField:
    def test_rejects_nonfinite(self, grid64):
        vals = np.zeros(64)
        vals[3] = np.inf
        with pytest.raises(FloatingPointError):
            SampledField(grid64, vals)

    def test_rejects_wrong_shape(self, grid64):
        with pytest.raises(ValueError):
            SampledField(grid64, np.zeros(65))

    @pytest.mark.parametrize("dtype, kept", [
        (np.float64, np.float64), (np.float32, np.float64),
        (np.int64, np.float64), (np.complex128, np.complex128),
        (np.complex64, np.complex128)])
    def test_dtype_follows_the_array_not_its_values(self, grid64, dtype,
                                                     kept):
        # zero imaginary parts keep a complex array complex; a float64 or
        # complex128 array is kept as it is, without a copy
        vals = np.arange(64).astype(dtype)
        f = SampledField(grid64, vals)
        assert f.values.dtype == kept
        assert (f.values is vals) == (dtype == kept)
        assert np.array_equal(f.values, vals)

    def test_real_scalar_keeps_a_float_field_float(self, grid64):
        f = SampledField(grid64, np.linspace(-1.0, 1.0, 64))
        for scalar in (2.0, 3, np.float64(-0.5)):
            for g in (f * scalar, scalar * f):
                assert g.values.dtype == np.float64
                assert g.values.tobytes() == (f.values * scalar).tobytes()
        g = f * 1j
        assert g.values.dtype == np.complex128
        assert np.array_equal(g.values, 1j * f.values)

    def test_sample_dtype_follows_the_coefficients(self, grid64):
        assert sample(gaussian_1d(2.0, coeff=-0.5),
                      grid64).values.dtype == np.float64
        assert sample(gaussian_1d(2.0, coeff=0.5 + 0.0j),
                      grid64).values.dtype == np.float64
        assert sample(gaussian_1d(2.0, coeff=0.5j),
                      grid64).values.dtype == np.complex128

    def test_boundary_magnitude(self, grid64):
        f = sample(gaussian_1d(0.05), grid64)   # wide: visible at the edge
        # rightmost node sits at L - h, so the shell max is there
        edge = grid64.axis_nodes()[-1]
        assert f.boundary_magnitude() == pytest.approx(
            math.exp(-0.05 * edge**2), rel=1e-12)


def test_band_halfwidth_is_where_the_heat_factor_crosses_the_cut():
    # derived from RELATIVE_CUT, the band keeps its former literal value
    assert BAND_HALFWIDTH == math.sqrt(120.0 * math.log(2.0) / math.pi)
    assert math.exp(-0.5 * math.pi * BAND_HALFWIDTH**2) \
        == pytest.approx(RELATIVE_CUT, rel=1e-14)


class TestPhaseTable:
    """Angle-addition phase tables against the direct exp of each entry:
    within 8 eps of the largest argument, or of 1 where every argument is
    smaller, the rounding of one unit complex product."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(count=st.sampled_from([1, 2, 4, 15, 16, 17, 64, 129, 256, 329,
                                  2048]),
           scale=st.floats(-7.0, 7.0),
           start=st.floats(-20.0, 0.0),
           step=st.floats(1e-3, 1.0),
           x=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=32))
    def test_matches_direct_exp(self, count, scale, start, step, x):
        x = np.array(x)
        arg = scale * np.multiply.outer(x, start + step * np.arange(count))
        got = phase_table(x, scale, start, step, count)
        assert got.shape == (count, len(x))
        bound = 8 * np.finfo(float).eps * max(1.0, np.max(np.abs(arg)))
        assert np.max(np.abs(got.T - np.exp(1j * arg))) <= bound
