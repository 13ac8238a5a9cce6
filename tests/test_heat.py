import math
import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from awsym import (AntiWickFromSymbol, SampledField, antiwick_pair,
                   desmooth_complex, desmooth_fourier, gaussian_1d,
                   identity_kernel, make_grid, radial_gaussian, sample,
                   smooth, tensor)
from awsym import heat, pairing
from awsym.gaussians import AnalyticGaussianSum, OverflowGuardError
from awsym.gsnorm import strip_rule, strip_sum
from awsym.heat import ESpaceDivergenceError
from awsym.pairing import RESIDUAL_FLAG_THRESHOLD

from awsym.heat import factored_residual, smooth_factors, strip_factors

from oracles import (desmooth_complex_fft_route, desmooth_complex_per_node,
                     desmooth_fourier_centered, desmooth_fourier_dense_lift,
                     desmoothed,
                     heat_convolution_quadrature, smooth_axes_out_of_place,
                     smooth_by_convolution, smooth_centered_multiplier,
                     strip_factor_longdouble, strip_factors_per_node,
                     strip_trapezoid)


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

    def test_bytes_equal_out_of_place_passes(self, grid256, phase64):
        # the inputs above, against passes that each write a new array
        fields = [sample(u, g) for u, g in [
            (gaussian_1d(2 * math.pi, coeff=math.sqrt(2.0)), grid256),
            (gaussian_1d(math.pi), grid256),
            (gaussian_1d(math.pi, center=0.5)
             + gaussian_1d(2.0, power=1, coeff=0.7j), grid256),
            (radial_gaussian(2, math.pi), phase64),
            (gaussian_1d(1.5, power=2, coeff=0.8), grid256),
            (gaussian_1d(2.0), grid256)]]
        for f in fields + [SampledField(grid256, np.zeros(256))]:
            ref = smooth_axes_out_of_place(f.values, f.grid,
                                           range(f.grid.dim))
            assert smooth(f).values.tobytes() == ref.tobytes()

    def test_commutes_with_whole_step_translations(self, grid256):
        f = sample(gaussian_1d(2.0), grid256)
        k = 12
        rolled_then_smoothed = smooth(SampledField(
            grid256, np.roll(f.values, k)))
        smoothed_then_rolled = np.roll(smooth(f).values, k)
        assert np.max(np.abs(rolled_then_smoothed.values
                             - smoothed_then_rolled)) < 1e-13


def complex_noise(grid, seed: int) -> SampledField:
    rng = np.random.default_rng(seed)
    return SampledField(grid, rng.standard_normal(grid.shape)
                        + 1j * rng.standard_normal(grid.shape))


def plane_wave(grid, ks) -> SampledField:
    """exp(2 i pi xi . x) for the frequency node with centred index ks[a]
    on axis a, from exact integer phases: xi_k x_j = (k - N/2)(j - N/2)/N
    on every grid, so the samples carry no phase round-off."""
    n = grid.npoints
    j = np.arange(n) - n // 2
    parts = [((k - n // 2) * j) % n for k in ks]
    idx = reduce(np.add.outer, parts) if len(parts) > 1 else parts[0]
    return SampledField(grid, np.exp(2j * np.pi * (idx % n) / n))


class TestBandLimitedSmooth:
    """The unshifted band-limited passes against the centred dense
    multiplier, and plane waves near the band edge |xi| = T, where a
    missing gain, a narrower band or a pass on the wrong axis shows."""

    @pytest.mark.parametrize("dim, npts, ell", [
        (1, 1024, 16.0),   # 329 of 1024 frequencies in the band
        (2, 256, 2.0),     # 41 of 256 per axis
        (2, 256, 8.0),
        (2, 1024, 16.0),
        (2, 64, 4.0),      # N/(4L) = 4 <= T: the whole axis is the band
        (4, 16, 0.5),
        (2, 96, 4.0),      # N not a power of two
    ])
    def test_matches_centered_multiplier(self, dim, npts, ell):
        f = complex_noise(make_grid(dim, npts, ell), seed=npts + dim)
        out = smooth(f).values
        ref = smooth_centered_multiplier(f).values
        assert out.flags.c_contiguous
        assert np.max(np.abs(out - ref)) <= 2e-15 * f.sup_norm()
        # the in-place passes give the bytes of passes that each write a
        # new array
        assert out.tobytes() == smooth_axes_out_of_place(
            f.values, f.grid, range(dim)).tobytes()

    @pytest.mark.parametrize("dim, npts, ell", [
        (1, 1024, 16.0), (2, 256, 8.0), (2, 96, 4.0)])
    def test_plane_waves_near_band_edge(self, dim, npts, ell):
        # measured round-off here is at most 3.1e-16; the first node past
        # T - 0.5 has gain 1.6e-15 (1024/16) and 1.0e-15 (256/8)
        g = make_grid(dim, npts, ell)
        xi = g.freq.axis_nodes()
        centre = npts // 2
        for k in np.flatnonzero((np.abs(xi) >= 4.0) & (np.abs(xi) <= 5.5)):
            for ks in [(k,)] if dim == 1 else [(k, centre), (centre + 3, k)]:
                wave = plane_wave(g, ks)
                gain = math.exp(-0.5 * math.pi * sum(xi[q]**2 for q in ks))
                err = np.max(np.abs(smooth(wave).values - gain * wave.values))
                assert err <= 6e-16, f"frequency indices {ks}"


REAL_GRIDS = [
    (1, 1024, 16.0),
    (2, 256, 8.0),
    (2, 1024, 16.0),
    (2, 64, 4.0),      # the band is the whole axis: the Nyquist column counts
    (2, 96, 4.0),      # N not a power of two
    (4, 16, 0.5),
]


def real_noise(grid, seed: int) -> SampledField:
    return SampledField(grid, np.random.default_rng(seed).standard_normal(
        grid.shape))


def smoothed_real_sum(dim, npts, ell) -> SampledField:
    """smooth of a real tensor product of Gaussians whose widths suit the
    box: the real input of ``desmooth_fourier`` the heat-1024 cycle makes."""
    a = 1.5 if ell >= 4.0 else 40.0
    return smooth(sample(tensor(*[
        gaussian_1d(a * (1 + 0.25 * k), center=0.025 * ell * (-1)**k,
                    coeff=0.9 - 0.2 * k) for k in range(dim)]),
        make_grid(dim, npts, ell)))


def exactly_real(values) -> bool:
    """Every imaginary part is +0.0, not merely zero."""
    return not values.imag.any() and not np.signbit(values.imag).any()


def with_tiny_imaginary_part(f: SampledField, at: int = 5) -> SampledField:
    vals = f.values.astype(complex)
    vals.flat[at] += 1e-300j
    return SampledField(f.grid, vals)


class TestRealRoute:
    """Float64 fields take the half-spectrum passes in ``smooth`` (rfft
    first, irfft last) and the Hermitian half-spectrum inverse in
    ``desmooth_fourier``: the float64 result against the complex-transform
    oracle's real part, with the input unwritten.  The route follows the
    dtype alone: a complex128 field takes the complex passes whether its
    imaginary parts are all zero or one of them is 1e-300."""

    @pytest.mark.parametrize("dim, npts, ell", REAL_GRIDS)
    def test_smooth_matches_centered_multiplier(self, dim, npts, ell):
        f = real_noise(make_grid(dim, npts, ell), seed=npts + dim)
        before = f.values.tobytes()
        out = smooth(f).values
        assert f.values.tobytes() == before
        assert out.flags.c_contiguous
        assert exactly_real(out)
        ref = smooth_centered_multiplier(f).values
        assert np.max(np.abs(out - ref)) <= 2e-15 * f.sup_norm()

    @pytest.mark.parametrize("dim, npts, ell", REAL_GRIDS)
    def test_desmooth_fourier_matches_centered_route(self, dim, npts, ell):
        # the real smooth's exactly real output, divided back
        u = smoothed_real_sum(dim, npts, ell)
        assert exactly_real(u.values)
        before = u.values.tobytes()
        rep = desmooth_fourier(u)
        assert u.values.tobytes() == before
        values, cutoff, residual = desmooth_fourier_centered(u)
        assert_matches_centered(u, rep.result.values, values)
        assert rep.cutoff_frequency == cutoff
        assert (rep.residual > RESIDUAL_FLAG_THRESHOLD) \
            == (residual > RESIDUAL_FLAG_THRESHOLD)
        assert rep.result.values.tobytes() \
            == desmooth_fourier_dense_lift(u).tobytes()

    def test_nyquist_wave(self):
        # (-1)^j along an axis is the Nyquist column alone; the band is the
        # whole axis at 64/4, so it comes back times its gain e^{-8 pi}
        g = make_grid(2, 64, 4.0)
        sign, ones = (-1.0)**np.arange(64), np.ones(64)
        for wave, axes in ((np.outer(sign, ones), 1),
                           (np.outer(ones, sign), 1),
                           (np.outer(sign, sign), 2)):
            gain = math.exp(-8.0 * math.pi * axes)
            out = smooth(SampledField(g, wave)).values
            assert np.max(np.abs(out - gain * wave)) <= 6e-16

    @pytest.mark.parametrize("dim, npts, ell", [
        (1, 1024, 16.0), (2, 256, 8.0), (2, 96, 4.0)])
    def test_cosines_near_band_edge(self, dim, npts, ell):
        # the real parts of the plane waves above: each is two frequencies
        # with one gain, so a column missing from the half band shows
        g = make_grid(dim, npts, ell)
        xi = g.freq.axis_nodes()
        centre = npts // 2
        for k in np.flatnonzero((np.abs(xi) >= 4.0) & (np.abs(xi) <= 5.5)):
            for ks in [(k,)] if dim == 1 else [(k, centre), (centre + 3, k)]:
                wave = SampledField(g, plane_wave(g, ks).values.real)
                gain = math.exp(-0.5 * math.pi * sum(xi[q]**2 for q in ks))
                out = smooth(wave).values
                assert exactly_real(out)
                err = np.max(np.abs(out - gain * wave.values))
                assert err <= 6e-16, f"frequency indices {ks}"

    @pytest.mark.parametrize("dim, npts, ell", [
        (1, 1024, 16.0), (2, 256, 8.0), (2, 64, 4.0), (4, 16, 2.0)])
    def test_tiny_imaginary_part_takes_complex_route(self, dim, npts, ell):
        u = with_tiny_imaginary_part(smoothed_real_sum(dim, npts, ell))
        out = smooth(u).values
        assert out.imag.any()
        assert out.tobytes() == smooth_axes_out_of_place(
            u.values, u.grid, range(dim)).tobytes()

    @pytest.mark.parametrize("dim, npts, ell", [(1, 1024, 16.0),
                                                (2, 1024, 16.0)])
    def test_zero_imaginary_parts_take_complex_route(self, dim, npts, ell):
        # a complex128 copy of a real field is not scanned for realness:
        # it takes the complex passes, with round-off imaginary parts
        u = smoothed_real_sum(dim, npts, ell)
        v = SampledField(u.grid, u.values.astype(complex))
        out = smooth(v).values
        assert out.dtype == complex and out.imag.any()
        assert out.tobytes() == smooth_axes_out_of_place(
            v.values, v.grid, range(dim)).tobytes()

    @pytest.mark.parametrize("dim, npts, ell", [(1, 1024, 16.0),
                                                (2, 1024, 16.0)])
    def test_desmooth_zero_imaginary_parts_take_complex_route(
            self, dim, npts, ell):
        # the same for the heat inverse: the complex passes' bytes
        u = smoothed_real_sum(dim, npts, ell)
        v = SampledField(u.grid, u.values.astype(complex))
        got = desmooth_fourier(v).result.values
        assert got.dtype == complex and got.imag.any()
        assert got.tobytes() == desmooth_fourier_dense_lift(v).tobytes()


def assert_matches_centered(u, got, values):
    """``desmooth_fourier``'s values ``got`` against the centred complex
    oracle's ``values`` to 1e-14 of their peak.  For a float64 input the
    result is float64 and C-ordered, and it is held to the oracle's real
    part, the real part of the inverse the oracle approximates."""
    if not np.iscomplexobj(u.values):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        values = values.real
    assert np.max(np.abs(got - values)) <= 1e-14 * np.max(np.abs(values))


def a4_input(width, npts, ell):
    return sample(gaussian_1d(width), make_grid(1, npts, ell))


def heat_roundtrip_input():
    return smooth(sample(gaussian_1d(2.0, center=0.5), make_grid(1, 256, 8.0)))


def two_term_symbol_1024() -> SampledField:
    """smooth of a real two-term symbol at 1024/16, drawn as the heat-1024
    benchmark draws them: widths in (0.8, 1.2), centres in (-0.5, 0.5),
    one linear factor per term."""
    u = (tensor(gaussian_1d(0.9, center=0.3, power=1, coeff=0.8),
                gaussian_1d(1.1, center=-0.2, coeff=0.6))
         + tensor(gaussian_1d(1.0, center=-0.4, coeff=0.7),
                  gaussian_1d(1.2, center=0.1, power=1, coeff=0.9)))
    return smooth(sample(u, make_grid(2, 1024, 16.0)))


COMPLEX_1D_INPUTS = {
    "1d-complex": lambda: smooth(sample(
        gaussian_1d(2.0, center=0.3, coeff=0.4 + 0.7j),
        make_grid(1, 256, 8.0))),
    "1d-complex-1024": lambda: smooth(sample(
        gaussian_1d(0.9, center=0.3, power=1, coeff=0.8)
        + gaussian_1d(1.2, center=-0.2, coeff=0.6j),
        make_grid(1, 1024, 16.0))),
    "1d-noise": lambda: complex_noise(make_grid(1, 256, 8.0), seed=11),
}


def plane_wave_line_input() -> SampledField:
    """The inverse transform of a spectrum with its peak at xi = 0 and one
    node of a thousandth of it at unshifted index (5, 32): after the
    last-axis pass, line 32 is a plane wave along axis 0, whose 1-norm is
    N times its largest entry.  Its computed 1-norm falls an ulp below
    the node's computed magnitude, which the bound's factor 2 covers."""
    spec = np.zeros((64, 64), dtype=complex)
    spec[0, 0], spec[5, 32] = 64.0**2, 1e-3 * 64.0**2
    return SampledField(make_grid(2, 64, 4.0), np.fft.ifft2(spec))


def threshold_on_second_node(u: SampledField) -> float:
    """The largest threshold that keeps the second largest node of u's
    spectrum: that node then lies on the threshold."""
    peak, node = np.sort(np.abs(np.fft.fftn(u.values)), axis=None)[:-3:-1]
    tau = node / peak
    while tau * peak > node:
        tau = np.nextafter(tau, 0.0)
    return float(tau)


class TestDesmoothFourierAgainstCentered:
    """The unshifted kept-node division against the centred whole-grid
    route: results to 1e-14 relative (a real input's float result against
    the oracle's real part), the same cutoff and the same flag."""

    @pytest.mark.parametrize("make_input", [
        lambda: a4_input(2.0, 256, 8.0),
        lambda: a4_input(math.pi, 256, 8.0),
        lambda: a4_input(4.0, 256, 8.0),
        lambda: a4_input(6.0, 1024, 16.0),
        heat_roundtrip_input,
        lambda: sample(tensor(gaussian_1d(2.0, center=0.3),
                              gaussian_1d(3.0, power=1, coeff=0.5j)),
                       make_grid(2, 256, 8.0)),
        lambda: a4_input(0.25, 256, 8.0),   # ill-posed: flagged residual
    ], ids=["a4-2", "a4-pi", "a4-4", "a4-6", "heat-roundtrip", "2d",
            "wide-flagged"])
    def test_matches_centered_route(self, make_input):
        u = make_input()
        rep = desmooth_fourier(u)
        values, cutoff, residual = desmooth_fourier_centered(u)
        assert_matches_centered(u, rep.result.values, values)
        assert rep.cutoff_frequency == cutoff
        assert (rep.residual > RESIDUAL_FLAG_THRESHOLD) \
            == (residual > RESIDUAL_FLAG_THRESHOLD)

    @pytest.mark.parametrize("make_input, tau", [
        (lambda: a4_input(4.0, 256, 8.0), 1e-12),
        (lambda: a4_input(6.0, 1024, 16.0), 1e-12),
        (lambda: sample(tensor(gaussian_1d(2.0, center=0.3),
                               gaussian_1d(3.0, power=1, coeff=0.5j)),
                        make_grid(2, 256, 8.0)), 1e-12),
        (lambda: smooth(sample(tensor(gaussian_1d(1.5, center=-0.4),
                                      gaussian_1d(2.5, coeff=0.3 + 0.2j)),
                               make_grid(2, 1024, 16.0))), 1e-12),
        (lambda: complex_noise(make_grid(4, 16, 2.0), seed=7), 1e-12),
        (lambda: a4_input(0.25, 256, 8.0), 1e-12),
        (two_term_symbol_1024, 1e-12),
        (lambda: smoothed_real_sum(4, 16, 2.0), 1e-12),
        (lambda: SampledField(make_grid(2, 64, 4.0), np.zeros((64, 64))),
         1e-12),
        (lambda: sample(tensor(gaussian_1d(2.0, center=0.3),
                               gaussian_1d(3.0, power=1, coeff=0.5j)),
                        make_grid(2, 256, 8.0)), 1e-3),
        (two_term_symbol_1024, 0.5),
        (plane_wave_line_input, threshold_on_second_node),
        *[(make, tau) for make in COMPLEX_1D_INPUTS.values()
          for tau in (1e-12, 1e-3)],
    ], ids=["1d", "1d-1024", "2d", "2d-1024", "4d-noise", "wide-flagged",
            "2d-1024-real", "4d-real", "zeros", "2d-tau-1e-3",
            "2d-1024-real-tau-0.5", "plane-wave-line",
            *[f"{name}{tag}" for name in COMPLEX_1D_INPUTS
              for tag in ("", "-tau-1e-3")]])
    def test_kept_lines_pass_is_bit_identical(self, make_input, tau):
        # the forward pass along axis 0 on the candidate lines alone, and
        # the first inverse pass on the kept lines alone, equal fftn and
        # ifftn of the whole grid bit for bit, signed zeros included
        u = make_input()
        tau = tau(u) if callable(tau) else tau
        rep = desmooth_fourier(u, tau)
        ref = desmooth_fourier_dense_lift(u, tau)
        assert rep.result.values.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("width", [2.0, 0.25],
                             ids=["a4-2", "wide-flagged"])
    def test_kept_fraction_and_peak_log_gain(self, width):
        # the nodes the whole spectrum keeps, and in 1-d the gain at the
        # cutoff: the wide input keeps far more nodes, at a far larger gain
        u = a4_input(width, 256, 8.0)
        rep = desmooth_fourier(u)
        mag = np.abs(np.fft.fft(u.values))
        assert rep.kept_fraction \
            == np.count_nonzero(mag >= 1e-12 * mag.max()) / 256
        assert rep.peak_log_gain \
            == pytest.approx(0.5 * math.pi * rep.cutoff_frequency**2)
        assert (rep.kept_fraction < 0.5 and rep.peak_log_gain < 20.0) \
            == (width == 2.0)

    def test_node_on_the_threshold_keeps_its_line(self):
        # the second node sits exactly on the threshold, on a line whose
        # 1-norm is N times its largest entry: both nodes are kept
        u = plane_wave_line_input()
        rep = desmooth_fourier(u, threshold_on_second_node(u))
        assert rep.kept_fraction * u.values.size == 2

    def test_axis0_forward_pass_runs_on_few_lines(self, monkeypatch):
        # the heat-like input keeps its nodes in about 10 % of the lines;
        # the forward calls are those before the first inverse pass
        calls = []

        def spy(name):
            fn = getattr(np.fft, name)

            def wrapped(a, *args, axis=-1, **kwargs):
                calls.append((name, axis, np.shape(a)))
                return fn(a, *args, axis=axis, **kwargs)
            return wrapped

        u = two_term_symbol_1024()
        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, spy(name))
        desmooth_fourier(u)
        forward = calls[:[name for name, _, _ in calls].index("ifft")]
        lines = sum(shape[1] for _, axis, shape in forward if axis == 0)
        assert 0 < lines <= 0.15 * 1024

    @pytest.mark.parametrize("dim, npts, ell", [(1, 256, 8.0), (2, 64, 4.0),
                                                (4, 16, 2.0)])
    def test_overflowing_spectrum_raises(self, dim, npts, ell):
        # finite samples whose spectrum overflows: a FloatingPointError,
        # not numpy's warnings or an empty reduction
        g = make_grid(dim, npts, ell)
        with pytest.raises(FloatingPointError):
            desmooth_fourier(SampledField(g, np.full(g.shape, 1.7e308)))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("dim, npts, ell", [(1, 256, 8.0), (2, 64, 4.0),
                                                (4, 16, 2.0)])
    def test_zero_field_keeps_no_node(self, monkeypatch, dim, npts, ell,
                                      dtype):
        # every 1-norm is zero: the call returns before any transform along
        # axis 0 (the only axis in 1-d) and keeps nothing, where the
        # threshold tau * 0 = 0 would keep every node at the largest gain
        calls = []

        def spy(name):
            fn = getattr(np.fft, name)

            def wrapped(a, *args, axis=-1, **kwargs):
                calls.append((name, axis % np.ndim(a)))
                return fn(a, *args, axis=axis, **kwargs)
            return wrapped

        for name in ("fft", "ifft", "irfft"):
            monkeypatch.setattr(np.fft, name, spy(name))
        g = make_grid(dim, npts, ell)
        rep = desmooth_fourier(SampledField(g, np.zeros(g.shape, dtype)))
        assert calls == [("fft", axis) for axis in range(dim - 1, 0, -1)]
        phi = rep.result.values
        assert phi.dtype == dtype and phi.flags.c_contiguous
        assert phi.tobytes() == np.zeros(g.shape, dtype).tobytes()
        assert (rep.residual, rep.cutoff_frequency, rep.kept_fraction,
                rep.peak_log_gain) == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("dim, npts, ell", [(2, 64, 4.0),
                                                (4, 16, 2.0)])
    def test_axis_permuted_input(self, dim, npts, ell):
        # values whose memory runs axes last to first: the results equal
        # those of the C-ordered copy, and smooth returns a C-ordered array
        g = make_grid(dim, npts, ell)
        u = smooth(sample(tensor(*[gaussian_1d(1.5 + a, center=-0.3 * a)
                                   for a in range(dim)]), g))
        permuted = SampledField(g, np.ascontiguousarray(u.values.T).T)
        assert not permuted.values.flags.c_contiguous
        smoothed = smooth(permuted).values
        assert smoothed.flags.c_contiguous
        assert smoothed.tobytes() == smooth(u).values.tobytes()
        values, _, _ = desmooth_fourier_centered(permuted)
        got = desmooth_fourier(permuted).result.values
        assert_matches_centered(permuted, got, values)
        assert got.tobytes() == desmooth_fourier(u).result.values.tobytes()

    @pytest.mark.parametrize("width, npts, ell", [
        (2.0, 256, 8.0), (math.pi, 256, 8.0), (4.0, 256, 8.0),
        (6.0, 1024, 16.0)])
    def test_real_result_no_farther_from_exact_inverse(self, width, npts,
                                                       ell):
        # the exact inverse is real, and |Re z - e| <= |z - e|: the float
        # result is no farther from it than the complex oracle's values
        u = a4_input(width, npts, ell)
        exact = sample(desmoothed(gaussian_1d(width)), u.grid).values
        values, _, _ = desmooth_fourier_centered(u)
        got = desmooth_fourier(u).result.values
        assert got.dtype == np.float64
        assert np.max(np.abs(got - exact)) <= np.max(np.abs(values - exact))

    def test_overflow_guard_matches_centered_route(self):
        # a narrow Gaussian keeps |xi| up to 32, whose lift is e^1608
        u = sample(gaussian_1d(1000.0), make_grid(1, 256, 2.0))
        with pytest.raises(OverflowGuardError) as centered:
            desmooth_fourier_centered(u)
        with pytest.raises(OverflowGuardError) as unshifted:
            desmooth_fourier(u)
        # the weight h^d = 2^-6 moves the peak by 4.2
        assert str(centered.value) in str(unshifted.value)


def poison_entry(smooth_axes, at: int = 0):
    """``heat._smooth_axes`` with a NaN written into the entry ``at`` of its
    flattened result."""
    def poisoned(*args):
        out = smooth_axes(*args)
        out.flat[at] = np.nan
        return out
    return poisoned


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

    def test_lift_past_exp_range_stays_finite(self):
        # kept nodes need e^{pi xi^2 / 2} up to e^715, past exp()'s range,
        # but the guarded product is finite: the field comes back and the
        # residual flags the ill-posed division
        u = sample(gaussian_1d(1000.0, coeff=1e-5), make_grid(1, 256, 3.0))
        rep = desmooth_fourier(u)
        assert np.isfinite(rep.result.values).all()
        assert math.isfinite(rep.residual)
        assert rep.residual > RESIDUAL_FLAG_THRESHOLD

    def test_non_finite_residual_raises(self, grid256, monkeypatch):
        # the residual is formed in the smoothed buffer, not in a
        # SampledField, so a NaN there must still raise, not compare False
        # against the flag threshold
        monkeypatch.setattr(heat, "_smooth_axes",
                            poison_entry(heat._smooth_axes))
        with pytest.raises(FloatingPointError):
            desmooth_fourier(sample(gaussian_1d(math.pi), grid256))

    def test_non_finite_residual_in_last_block_raises(self, monkeypatch):
        # the residual is reduced a row block at a time (16 blocks here):
        # a NaN in the last block still reaches the verdict
        u = sample(radial_gaussian(2, math.pi), make_grid(2, 1024, 16.0))
        monkeypatch.setattr(heat, "_smooth_axes",
                            poison_entry(heat._smooth_axes, -1))
        with pytest.raises(FloatingPointError):
            desmooth_fourier(u)

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


GRID_256 = make_grid(1, 256, 8.0)
PHASE_64 = make_grid(2, 64, 4.0)


def exact_inverse_cases():
    """(id, u, grid): powers 0-2, centres +-0.5, widths up to 3.5, 1-d at
    256/8 and 2-d at 64/4 with a second term."""
    cases = []
    for p in (0, 1, 2):
        for b in (-0.5, 0.5):
            for a in (0.5, 1.0, 2.0, math.pi, 3.5):
                u = gaussian_1d(a, center=b, power=p, coeff=0.7 - 0.4j)
                cases.append((f"1d-p{p}-b{b}-a{a:.2f}", u, GRID_256))
            for a in (1.0, 3.5):
                u = tensor(gaussian_1d(a, center=b, power=p, coeff=0.7 - 0.4j),
                           gaussian_1d(2.0, center=-b, power=2 - p)) \
                    + tensor(gaussian_1d(1.5, power=1), gaussian_1d(a, center=b))
                cases.append((f"2d-p{p}-b{b}-a{a:.2f}", u, PHASE_64))
    return cases


EXACT_CASES = exact_inverse_cases()


class TestDesmoothComplexAgainstExactInverse:
    """``desmooth_complex`` at strip 3 with 64 nodes against the exact
    Gaussian pre-image of :func:`oracles.desmoothed`, relative to max|Phi|.
    Below width 2 the error is round-off.  Above it the strip truncation
    dominates: about 0.13, 1.1 and 6.7 times e^{-(2 pi - a) Y^2} at Y = 3
    for powers 0, 1 and 2 (1.65e-10 at width 4, power 0), so the
    tolerance is that bound times 8^p."""

    @pytest.mark.parametrize("u, grid", [c[1:] for c in EXACT_CASES],
                             ids=[c[0] for c in EXACT_CASES])
    def test_oracle_smooths_back(self, u, grid):
        target = sample(u, grid).values
        back = sample(desmoothed(u).smoothed(), grid).values
        assert np.max(np.abs(back - target)) <= 2e-15 * np.max(np.abs(target))

    @pytest.mark.parametrize("a", [0.5, 2.0, math.pi, 4.0, 5.5])
    def test_oracle_matches_power_zero_closed_form(self, a):
        u = gaussian_1d(a)
        ref = sample(closed_form_desmoothed(a), GRID_256).values
        got = sample(desmoothed(u), GRID_256).values
        assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("u, grid", [c[1:] for c in EXACT_CASES],
                             ids=[c[0] for c in EXACT_CASES])
    def test_matches_exact_inverse(self, u, grid):
        ref = sample(desmoothed(u), grid).values
        got = desmooth_complex(u, grid, 3.0, 64).result.values
        a = max(f.width for term in u.terms for f in term)
        p = max(f.power for term in u.terms for f in term)
        tol = 2e-15 + 8.0**p * math.exp(-(2 * math.pi - a) * 9.0)
        assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


STRIP_CASES = [
    (gaussian_1d(math.pi), 256, 8.0, 3.0, 64),
    # 1024 points: 256 nodes in 64 blocks of 4
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
    # node counts around the slab blocks of 16 nodes at 256 points
    *((gaussian_1d(2.0, center=0.3, power=1, coeff=0.5 + 0.2j),
       256, 8.0, 3.0, ynodes) for ynodes in (4, 15, 16, 17, 33)),
]
STRIP_IDS = ["1d", "1d-wide-strip", "1d-sum-powers", "2d-power",
             "2d-sum-powers", "y4", "y15", "y16", "y17", "y33"]


STRIP_1024 = (tensor(gaussian_1d(4.0), gaussian_1d(2.3, center=0.2)),
              1024, 16.0, 3.0, 64)


def residual_matches(got: float, dense: float) -> bool:
    """The factored residual against a dense recomputation: 1e-15
    absolute or 1 % relative, as either one is round-off of the other."""
    return abs(got - dense) <= max(1e-15, 0.01 * dense)


class TestStripBatching:
    """The angle-addition strip sum against the per-node loop, which
    evaluates every node's slab directly: each factor within 2e-15 of its
    peak, and the residual against the loop's dense recomputation to
    round-off."""

    @pytest.mark.parametrize("u, npts, ell, strip, ynodes", STRIP_CASES,
                             ids=STRIP_IDS)
    def test_bytes_equal_per_node_loop(self, u, npts, ell, strip, ynodes):
        g = make_grid(u.dim, npts, ell)
        got = strip_factors(u, g, strip, ynodes)
        ref = strip_factors_per_node(u, g, strip, ynodes)
        peak = np.max(np.abs(ref), axis=-1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 2e-15 * peak)
        rep = desmooth_complex(u, g, strip, ynodes)
        _, residual = desmooth_complex_per_node(u, g, strip, ynodes)
        assert residual_matches(rep.residual, residual)


LONGDOUBLE_CASES = [
    (gaussian_1d(6.0), 1024, 16.0, 10.0, 256),      # A4's width 6
    STRIP_CASES[1],
    (gaussian_1d(5.5, power=2), 256, 8.0, 3.0, 64),
]


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
class TestStripAgainstLongDouble:
    """The widest phase arguments (strip 10, widths up to 6) against a
    strip sum in long double: the angle-addition factors and the per-node
    loop both within 2e-15 of the factor's peak."""

    @pytest.mark.parametrize("u, npts, ell, strip, ynodes",
                             LONGDOUBLE_CASES,
                             ids=["a4-width6", "1d-wide-strip", "power2"])
    def test_factor_within_round_off(self, u, npts, ell, strip, ynodes):
        g = make_grid(1, npts, ell)
        ref = strip_factor_longdouble(u.terms[0][0], g.axis_nodes(), strip,
                                      ynodes)
        bound = 2e-15 * np.max(np.abs(ref))
        for got in (strip_factors(u, g, strip, ynodes),
                    strip_factors_per_node(u, g, strip, ynodes)):
            assert np.max(np.abs(got[0, 0] - ref)) <= bound


class TestStripAgainstFFTRoute:
    """The y-quadrature against the transform route it replaced: the same
    sum up to the FFT's round-off and the 2^-60 cut."""

    @pytest.mark.parametrize("u, npts, ell, strip, ynodes",
                             STRIP_CASES + [STRIP_1024],
                             ids=STRIP_IDS + ["2d-1024"])
    def test_matches_fft_route(self, u, npts, ell, strip, ynodes):
        g = make_grid(u.dim, npts, ell)
        rep = desmooth_complex(u, g, strip, ynodes)
        values, _ = desmooth_complex_fft_route(u, g, strip, ynodes)
        peak = np.max(np.abs(values))
        assert np.max(np.abs(rep.result.values - values)) <= 1e-15 * peak

    def test_no_subnormal_entries(self):
        u, npts, ell, strip, ynodes = STRIP_1024
        vals = desmooth_complex(u, make_grid(2, npts, ell), strip,
                                ynodes).result.values
        for part in (vals.real, vals.imag):
            tiny = (part != 0.0) & (np.abs(part) < np.finfo(float).tiny)
            assert not tiny.any()

    def test_memory_does_not_grow_with_y_nodes(self, grid256):
        tracemalloc.start()
        try:
            desmooth_complex(gaussian_1d(math.pi), grid256, 3.0, 2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestFactors:
    """``strip_factors`` and the residual taken from them, against the
    densified field and its dense smooth."""

    @pytest.mark.parametrize("u, npts, ell, strip, ynodes",
                             STRIP_CASES + [STRIP_1024],
                             ids=STRIP_IDS + ["2d-1024"])
    def test_factors_make_up_the_field(self, u, npts, ell, strip, ynodes):
        g = make_grid(u.dim, npts, ell)
        factors = strip_factors(u, g, strip, ynodes)
        assert factors.shape == (len(u.terms), u.dim, npts)
        dense = np.zeros(g.shape, dtype=complex)
        for term in factors:
            dense += reduce(np.multiply.outer, term)
        rep = desmooth_complex(u, g, strip, ynodes)
        assert np.array_equal(rep.result.values, dense)
        ref = float(np.max(np.abs(smooth(rep.result).values
                                  - sample(u, g).values)))
        assert residual_matches(rep.residual, ref)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_function(self, dim):
        g = make_grid(dim, 64, 4.0)
        u = AnalyticGaussianSum(dim, ())
        assert strip_factors(u, g).shape == (0, dim, 64)
        rep = desmooth_complex(u, g)
        assert rep.residual == 0.0
        assert np.all(rep.result.values == 0.0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_factor_raises(self):
        # finite, strip-integrable terms whose strip sum overflows: the
        # factors must not go on to a NaN value or residual
        u = tensor(gaussian_1d(6.0, coeff=1e308), gaussian_1d(6.0))
        with pytest.raises(FloatingPointError):
            strip_factors(u, make_grid(2, 64, 4.0))

    @pytest.mark.parametrize("dim, npts, ell", [(2, 1024, 16.0), (4, 16, 2.0)])
    def test_residual_sees_a_defect_anywhere(self, dim, npts, ell):
        # one factor entry off by 1e-6 shows in the residual at the size a
        # dense smooth of the damaged field gives; at 1024 points it sits
        # in the ninth of sixteen row blocks
        g = make_grid(dim, npts, ell)
        u = tensor(*(gaussian_1d(2.0 + 0.5 * a, center=0.1 * a, power=a % 2)
                     for a in range(dim))) \
            + tensor(*(gaussian_1d(3.0, coeff=0.4j) for _ in range(dim)))
        factors = strip_factors(u, g)
        factors[1, 0, npts // 2 + 3] += 1e-6
        dense = np.zeros(g.shape, dtype=complex)
        for term in factors:
            dense += reduce(np.multiply.outer, term)
        ref = float(np.max(np.abs(smooth(SampledField(g, dense)).values
                                  - sample(u, g).values)))
        got = factored_residual(smooth_factors(factors, g), u, g)
        assert ref > 1e-9
        assert residual_matches(got, ref)

    @pytest.mark.parametrize("module", [heat, pairing], ids=[
        "desmooth_complex", "antiwick_pair"])
    def test_nan_in_late_head_row_raises(self, module, monkeypatch):
        # the residual is reduced over blocks of head rows (16 here): a NaN
        # in head row 1000 must reach the verdict, not compare False against
        # the flag threshold
        g = make_grid(2, 1024, 16.0)
        u = tensor(gaussian_1d(2.0), gaussian_1d(3.0, center=0.2))
        smooth_factors_ = module.smooth_factors

        def poisoned(factors, grid):
            out = smooth_factors_(factors, grid)
            out[0, 0, 1000] = np.nan
            return out

        monkeypatch.setattr(module, "smooth_factors", poisoned)
        with pytest.raises(FloatingPointError):
            if module is heat:
                desmooth_complex(u, g)
            else:
                antiwick_pair(AntiWickFromSymbol(sample(
                    radial_gaussian(2, math.pi), g)), u)

    @pytest.mark.parametrize("npts, ell", [(256, 8.0), (1024, 16.0)])
    def test_batched_smooth_is_smooth_per_factor(self, npts, ell):
        # the fine and stride-two factors of a pair, smoothed in one call
        # along the node axis, bit for bit as ``smooth`` of each 1-d field
        g = make_grid(2, npts, ell)
        u = tensor(gaussian_1d(4.0), gaussian_1d(2.3, center=0.2)) \
            + tensor(gaussian_1d(2.0, center=-0.3, power=1, coeff=0.5j),
                     gaussian_1d(3.0, power=1))
        factors = strip_factors(u, g)
        even = np.arange(npts) % 2 == 0
        both = np.concatenate([factors, np.where(even, factors, 0.0)])
        got = smooth_factors(both, g)
        axis = make_grid(1, npts, ell)
        for t, a in np.ndindex(both.shape[:2]):
            ref = smooth(SampledField(axis, both[t, a])).values
            assert np.array_equal(got[t, a], ref)


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


class TestInputsUntouched:
    """The passes that run in place write only buffers the call owns:
    every input array keeps its bytes."""

    @pytest.mark.parametrize("dim, npts, ell",
                             [(1, 256, 8.0), (2, 64, 4.0), (4, 16, 2.0)])
    def test_smooth_and_desmooth_fourier(self, dim, npts, ell):
        g = make_grid(dim, npts, ell)
        for f in (complex_noise(g, seed=dim),
                  smooth(sample(radial_gaussian(dim, math.pi), g))):
            before = f.values.tobytes()
            smooth(f)
            desmooth_fourier(f)
            assert f.values.tobytes() == before

    def test_smooth_factors(self):
        g = make_grid(2, 256, 8.0)
        u = tensor(gaussian_1d(4.0), gaussian_1d(2.3, center=0.2)) \
            + tensor(gaussian_1d(2.0, power=1, coeff=0.5j), gaussian_1d(3.0))
        factors = strip_factors(u, g)
        before = factors.tobytes()
        got = smooth_factors(factors, g)
        assert factors.tobytes() == before
        ref = smooth_axes_out_of_place(factors, g, (2,))
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("make_op, dim", [
        (lambda: AntiWickFromSymbol(sample(radial_gaussian(2, math.pi),
                                           make_grid(2, 64, 4.0))), 2),
        (lambda: AntiWickFromSymbol(sample(radial_gaussian(4, math.pi),
                                           make_grid(4, 16, 2.0))), 4),
        (lambda: identity_kernel(make_grid(1, 64, 4.0).refined()), 2),
    ], ids=["antiwick-2d", "antiwick-4d", "kernel"])
    def test_complex_shift_pair(self, make_op, dim):
        op = make_op()
        values = op.symbol.values if isinstance(op, AntiWickFromSymbol) \
            else op.matrix
        before = values.tobytes()
        antiwick_pair(op, radial_gaussian(dim, 2.0))
        assert values.tobytes() == before


def peak_grids(call) -> float:
    """Peak memory traced while ``call()`` runs, in complex 1024^2 grids."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (16 * 1024**2)


class TestMemoryBudget:
    """Peak traced memory of one heat call at 2-d 1024/16, in grid-sized
    complex arrays.  Measured 1.43, 2.49 and 1.11 for ``smooth``,
    ``desmooth_fourier`` and ``desmooth_complex``; with every pass writing
    a new array and a zero-filled Phi they were 2.64, 5.30 and 2.02.  On
    the real route, ``smooth`` measured 0.68 on a float field (its float
    result is the field's array; 1.56 when it was copied into a complex
    one), ``desmooth_fourier`` 1.28 and ``desmooth_complex`` of a real sum
    0.58 (its float64 Phi is half a grid).  Its forward pass holds no
    grid-sized magnitudes since the axis-0 pass runs on the candidate
    lines alone, and the lifted values go into a new half-spectrum buffer
    (0.5) once the spectrum's buffer (1.0) is freed; it measured 1.59 when
    its inverse passes ran in a view of that buffer.  On the complex passes
    (2.49; 2.50 while the lifted values were staged in a separate array)
    the peak is the residual's ``smooth``: Phi and the smoothed field."""

    U = tensor(gaussian_1d(1.5, center=-0.4),
               gaussian_1d(2.5, coeff=0.3 + 0.2j))
    U_REAL = tensor(gaussian_1d(1.5, center=-0.4), gaussian_1d(2.5, coeff=0.3))

    def test_smooth(self):
        f = sample(self.U, make_grid(2, 1024, 16.0))
        assert peak_grids(lambda: smooth(f)) <= 1.6

    def test_desmooth_fourier(self):
        f = smooth(sample(self.U, make_grid(2, 1024, 16.0)))
        assert peak_grids(lambda: desmooth_fourier(f)) <= 3.0

    def test_smooth_real(self):
        f = sample(self.U_REAL, make_grid(2, 1024, 16.0))
        assert f.values.dtype == np.float64
        assert peak_grids(lambda: smooth(f)) <= 0.75

    def test_desmooth_fourier_real(self):
        f = smooth(sample(self.U_REAL, make_grid(2, 1024, 16.0)))
        assert f.values.dtype == np.float64
        assert peak_grids(lambda: desmooth_fourier(f)) <= 1.4

    def test_desmooth_complex(self):
        g = make_grid(2, 1024, 16.0)
        assert peak_grids(lambda: desmooth_complex(self.U, g)) <= 1.3

    def test_desmooth_complex_real(self):
        g = make_grid(2, 1024, 16.0)
        assert peak_grids(lambda: desmooth_complex(self.U_REAL, g)) <= 0.65


REAL_SUMS = {
    "2d-1024": (tensor(gaussian_1d(4.0), gaussian_1d(2.3, center=0.2)),
                make_grid(2, 1024, 16.0)),
    "2d-sum": (tensor(gaussian_1d(1.5, center=0.5, power=1, coeff=0.77),
                      gaussian_1d(2.0))
               + tensor(gaussian_1d(5.0, center=-0.6),
                        gaussian_1d(3.3, power=2, coeff=-0.5)),
               make_grid(2, 64, 4.0)),
    "1d-power": (gaussian_1d(5.5, center=0.3, power=2, coeff=0.6)
                 + gaussian_1d(2.0, power=1, coeff=-1.3), GRID_256),
}


def whole_rule(strip, ynodes):
    """First node, step and weights of the trapezoid rule on every node
    -strip + k step of |y| <= strip: the reference for the nodes y >= 0
    of ``strip_rule``."""
    _, weights = strip_trapezoid(strip, ynodes)
    return -strip, 2.0 * strip / (ynodes - 1), weights


def whole_rule_factors(u, g, strip, ynodes):
    """The factors of every node of the whole rule, as complex128 with each
    coefficient inside its slabs, and the 2^-60 cut."""
    start, step, wy = whole_rule(strip, ynodes)
    factors = np.array([[strip_sum([f], g.axis_nodes(), start, step,
                                   math.sqrt(2.0) * wy) for f in term]
                        for term in u.terms], dtype=complex)
    mag = np.abs(factors)
    factors[mag < 2.0**-60 * mag.max(axis=-1, keepdims=True)] = 0.0
    return factors


def complex_route(u, g, strip=3.0, ynodes=64):
    """Phi of u from the factors of the whole rule."""
    return sum(reduce(np.multiply.outer, term)
               for term in whole_rule_factors(u, g, strip, ynodes))


def complex_route_pair(op, u):
    """(value, residual) of the complex-shift pairing of an anti-Wick
    operator with Phi from the whole rule, every object dense: the sum of
    F smooth(Phi) h^d, and sup |smooth(Phi) - u|."""
    g = op.symbol.grid
    smoothed = smooth(SampledField(g, complex_route(u, g))).values
    value = complex(np.sum(op.symbol.values * smoothed) * g.spacing**g.dim)
    residual = float(np.max(np.abs(smoothed - sample(u, g).values)))
    return value, residual


class TestRealSums:
    """Every strip sum runs on the nodes y >= 0 of the strip rule, scaled
    by the coefficient: a sum whose coefficients are all real runs the
    complex-shift inverse in float64, and a complex coefficient gives
    complex128 factors, both within round-off of the whole rule."""

    @pytest.mark.parametrize("name", sorted(REAL_SUMS))
    def test_real_sum_is_float64(self, name):
        u, g = REAL_SUMS[name]
        assert u.has_real_coefficients()
        factors = strip_factors(u, g)
        assert factors.dtype == np.float64
        assert smooth_factors(factors, g).dtype == np.float64
        assert desmooth_complex(u, g).result.values.dtype == np.float64

    @pytest.mark.parametrize("name", sorted(REAL_SUMS))
    def test_complex_coefficient_keeps_the_whole_rule(self, name):
        # within 2e-15 of each factor's peak of the whole rule's factors
        real, g = REAL_SUMS[name]
        first = replace(real.terms[0][0], coeff=0.3 + 0.2j)
        u = AnalyticGaussianSum(real.dim, ((first,) + real.terms[0][1:],)
                                + real.terms[1:])
        assert not u.has_real_coefficients()
        factors = strip_factors(u, g)
        assert factors.dtype == np.complex128
        ref = whole_rule_factors(u, g, 3.0, 64)
        peak = np.max(np.abs(ref), axis=-1, keepdims=True)
        assert np.all(np.abs(factors - ref) <= 2e-15 * peak)
        phi = desmooth_complex(u, g).result.values
        assert phi.dtype == np.complex128

    @pytest.mark.parametrize("nodes", [4, 5, 64, 65, 129])
    def test_half_rule_nodes_mirror_exactly(self, nodes):
        start, step, weights = strip_rule(3.0, nodes)
        full_start, full_step, full_weights = whole_rule(3.0, nodes)
        assert step == full_step
        assert start == (0.0 if nodes % 2 else 0.5 * step)
        assert len(weights) == (nodes + 1) // 2
        # the nodes as strip_sum forms them, and their mirror image
        ys = start + step * np.arange(len(weights))
        mirror = np.concatenate([-ys[::-1][:len(ys) - nodes % 2], ys])
        assert np.array_equal(mirror, -mirror[::-1])
        full = full_start + full_step * np.arange(nodes)
        assert np.max(np.abs(mirror - full)) <= 4 * np.finfo(float).eps * 3.0
        # each weight counts its node and the mirror, y = 0 once
        halves = weights / 2
        if nodes % 2:
            halves[0] = weights[0]
        spread = np.concatenate([halves[::-1][:len(ys) - nodes % 2], halves])
        assert np.array_equal(spread, full_weights)

    @pytest.mark.parametrize("name", sorted(REAL_SUMS))
    def test_within_round_off_of_complex_route(self, name):
        u, g = REAL_SUMS[name]
        ref = complex_route(u, g).real
        got = desmooth_complex(u, g).result.values
        assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", sorted(k for k in REAL_SUMS
                                            if k.startswith("2d")))
    def test_pair_within_round_off_of_complex_route(self, name):
        u, g = REAL_SUMS[name]
        symbol = sample(tensor(gaussian_1d(1.5, center=-0.4),
                               gaussian_1d(2.5, center=0.3, coeff=0.7)), g)
        assert symbol.values.dtype == np.float64
        op = AntiWickFromSymbol(symbol)
        got = antiwick_pair(op, u)
        value, residual = complex_route_pair(op, u)
        assert abs(got.value - value.real) <= 2e-15 * abs(value)
        assert residual_matches(got.residual, residual)

    @staticmethod
    def error_no_larger(u, strip):
        # the rows of the strip-truncation table: 1-d 256/8, 64 y nodes
        exact = sample(desmoothed(u), GRID_256).values
        peak = np.max(np.abs(exact))
        got = desmooth_complex(u, GRID_256, strip, 64).result.values
        ref = complex_route(u, GRID_256, strip, 64)
        err, ref_err = (np.max(np.abs(v - exact)) / peak for v in (got, ref))
        assert err <= ref_err + 4 * np.finfo(float).eps

    @pytest.mark.parametrize("strip", [3.0, 5.0])
    @pytest.mark.parametrize("a", [4.0, 5.0, 5.5, 6.0, 6.2])
    def test_error_against_exact_inverse_no_larger(self, a, strip):
        self.error_no_larger(gaussian_1d(a), strip)

    @pytest.mark.parametrize("strip", [3.0, 5.0])
    @pytest.mark.parametrize("a", [4.0, 5.0, 5.5, 6.0, 6.2])
    def test_complex_coefficient_error_no_larger(self, a, strip):
        self.error_no_larger((0.6 + 0.8j) * gaussian_1d(a), strip)
