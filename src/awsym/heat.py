"""The Gaussian smoothing semigroup at the fixed time 1/(8 pi), and its
two numerical inverses.

``smooth`` is the Fourier multiplier exp(-pi |xi|^2 / 2); under the
package's transform convention this is identical to the convolution
2^{d/2} (f ∗ exp(-2 pi |.|^2)), the dimension-d form of the phase-space
smoothing that links anti-Wick and Weyl symbols.

A Fourier multiplier commutes with the centring shifts of
``core.fourier``, and its weights h^d and (2 L_f)^d multiply out to one,
so ``smooth`` and ``desmooth_fourier`` run on plain unshifted FFTs:
smooth(f) = ifftn(m * fftn(f)) with m in unshifted frequency order.  The
multiplier is below 2^-60 for |xi| > T = ``core.BAND_HALFWIDTH`` (about
5.1455, the cut anti-Wick assembly uses), so ``smooth`` carries only the
frequencies |xi| <= T of each axis.  Neither writes its input: the first
forward pass writes a new array, and every later pass runs in place
(``out=``) in a buffer the call already holds, not in a new one per pass.

Desmoothing is ill-posed in general, and both inverses make that visible
instead of hiding it:

* ``desmooth_fourier`` divides by the multiplier on frequencies where the
  spectrum is above a relative threshold and zeroes the rest.  The report
  carries the residual  sup |smooth(result) - input|  recomputed from the
  returned field, so noise amplification shows up as a large residual
  rather than as silent garbage.

* ``desmooth_complex`` implements the constructive inverse for entire
  inputs with Gaussian strip decay as a y-quadrature, with no transform:

      Phi(x) = sqrt(2) \\int u(x+iy) exp(-2 pi y^2) dy     (per axis)

  over |y| <= strip_halfwidth, since F[u(. + iy)](xi) = e^{-2 pi y xi} Fu(xi)
  and sqrt(2) \\int e^{-2 pi y^2 - 2 pi y xi} dy = e^{pi xi^2 / 2}.  The
  weight is folded into each y node's real exponent, e^{(a - 2 pi) y^2}, so
  e^{a y^2} never overflows alone, and the phases e^{-2 i a (x - b) y} are
  formed by angle addition (``gsnorm.strip_sum``).  Each tensor-product
  term of u gives one 1-d factor per axis, in one (term, axis, node)
  array (``strip_factors``); Phi is the sum of their outer products.  The
  residual is recomputed from those factors:
  ``smooth`` is separable, so smooth(Phi) is the sum of the outer products
  of the factors' 1-d smooths, one band pass along the node axis, compared
  with u's samples, also taken per axis, without a dense transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .core import BAND_HALFWIDTH, RELATIVE_CUT, Grid, SampledField
from .gaussians import (_EXP_GUARD, AnalyticGaussianSum, OverflowGuardError,
                        _outer_sum)
from .gsnorm import e_space_divergent, strip_rule, strip_sum

__all__ = [
    "DesmoothReport",
    "ESpaceDivergenceError",
    "smooth",
    "desmooth_fourier",
    "desmooth_complex",
]

# entries per block of the factored residual's difference (1 MiB complex)
_RESIDUAL_BLOCK_ENTRIES = 2**16


class ESpaceDivergenceError(ValueError):
    """The strip integrand of the input grows; the construction diverges."""


@dataclass
class DesmoothReport:
    """Outcome of a heat-inverse run; the residual is recomputed, never
    estimated, so ill-posedness is visible in the report itself: from the
    returned field for the Fourier route, and from the 1-d factors the
    returned field is made of for the complex-shift route."""

    result: SampledField
    method: str
    residual: float
    cutoff_frequency: Optional[float] = None
    rel_threshold: Optional[float] = None
    strip_halfwidth: Optional[float] = None
    y_nodes: Optional[int] = None


def _unshifted_freqs(grid: Grid) -> np.ndarray:
    """The 1-d frequency nodes of ``grid`` in unshifted FFT order (xi = 0
    first, the negative half last): the centred node values, rolled."""
    return np.fft.ifftshift(grid.freq.axis_nodes())


def smooth(f: SampledField) -> SampledField:
    """Heat smoothing as the frequency multiplier exp(-pi |xi|^2 / 2), on
    unshifted FFTs (see the module notes), over every axis of ``f``."""
    return SampledField(f.grid,
                        _smooth_axes(f.values, f.grid, range(f.grid.dim)))


def _smooth_axes(vals: np.ndarray, grid: Grid, axes) -> np.ndarray:
    """``smooth`` along ``axes`` of ``vals``, each an axis of ``grid``; the
    other axes of ``vals`` ride along as a batch.  The multiplier is
    separable and below 2^-60 for |xi| > T = ``BAND_HALFWIDTH``, so each
    axis is transformed, cut to its band |xi| <= T and multiplied by its
    1-d gain in one pass; the inverse passes zero-pad each axis back to N.
    When N/(4L) <= T the band is the whole axis.

    The forward passes run last axis first.  Only the first one writes a
    new array, C-ordered whatever the strides of ``vals``, so ``vals`` is
    never written and the result is C-ordered; each later forward pass
    transforms the previous pass's band array in place.  Each inverse pass
    zeroes the out-of-band slab of its forward pass's buffer, copies the
    band in and inverts there, so the result lands in the first pass's
    buffer."""
    n, ndim = grid.npoints, vals.ndim
    xi = _unshifted_freqs(grid)
    gain = np.exp(-0.5 * math.pi * xi**2)
    # the band is a prefix (xi >= 0) and a suffix (xi < 0) of the axis;
    # the band array keeps the two side by side
    inband = np.abs(xi) <= BAND_HALFWIDTH
    pos = int(np.count_nonzero(inband[:n // 2]))
    neg = int(np.count_nonzero(inband[n // 2:]))
    spans = ((slice(0, pos), slice(0, pos)),
             (slice(n - neg, n), slice(pos, pos + neg)))

    def on(axis, part):
        return (slice(None),) * axis + (part,)

    specs = []
    for axis in reversed(axes):
        out = vals if specs else np.empty(vals.shape, dtype=complex)
        spec = np.fft.fft(vals, axis=axis, out=out)
        specs.append(spec)
        vals = np.empty(spec.shape[:axis] + (pos + neg,)
                        + spec.shape[axis + 1:], dtype=complex)
        for full, band in spans:
            np.multiply(spec[on(axis, full)],
                        gain[full].reshape((-1,) + (1,) * (ndim - 1 - axis)),
                        out=vals[on(axis, band)])
    for axis, spec in zip(axes, reversed(specs)):
        spec[on(axis, slice(pos, n - neg))] = 0.0
        for full, band in spans:
            spec[on(axis, full)] = vals[on(axis, band)]
        vals = np.fft.ifft(spec, axis=axis, out=spec)
    return vals


def desmooth_fourier(u: SampledField,
                     rel_threshold: float = 1e-12) -> DesmoothReport:
    """Regularized spectral division by the heat multiplier.

    Frequencies where |Fu| falls below rel_threshold * max|Fu| are zeroed;
    everything kept is divided by exp(-pi |xi|^2 / 2).  As in ``smooth``,
    the division commutes with the centring shifts and the transform
    weights cancel, so it runs on unshifted FFTs; the weight h^d enters
    only the overflow guard, and the logarithm and the gain are evaluated
    on the kept nodes alone.  The first inverse pass runs along axis 0,
    only on the lines that hold kept nodes; the passes along the other
    axes run in place in the forward transform's buffer, and the residual
    is formed in the smoothed field's buffer.  No attempt is made to decide
    well-posedness for the caller: the recomputed residual in the report
    is the verdict.
    """
    if not 0.0 < rel_threshold < 1.0:
        raise ValueError("rel_threshold must lie in (0, 1)")
    grid, n = u.grid, u.grid.npoints
    # last axis first; the first pass writes the C-ordered buffer, which the
    # later passes and the inverse passes reuse in place
    spec = np.fft.fftn(u.values, out=np.empty(grid.shape, dtype=complex))
    mag = np.abs(spec)
    # never empty: the largest node is always kept
    kept = np.nonzero(mag >= rel_threshold * float(mag.max()))

    xi = _unshifted_freqs(grid)
    sq = sum(xi[idx]**2 for idx in kept)
    with np.errstate(divide="ignore"):
        log_gain = np.log(mag[kept]) + 0.5 * math.pi * sq
    del mag
    peak = float(np.max(log_gain)) + grid.dim * math.log(grid.spacing)
    if peak > _EXP_GUARD:
        raise OverflowGuardError(
            f"regularized division overflows double precision "
            f"(max log magnitude {peak:.1f}); raise rel_threshold or "
            "shrink the frequency box")

    # the first inverse pass runs along axis 0, only on the lines (indices
    # on the other axes) that hold a kept node; the other lines stay exact
    # zeros.  Once spec[kept] is lifted, spec's buffer is free, and the
    # whole passes along the other axes run in place there
    lines, col = np.unique(np.ravel_multi_index(kept[1:], grid.shape[1:]),
                           return_inverse=True)
    lifted = np.zeros((len(lines), n), dtype=complex)
    # two halves, as exp() alone overflows where the product need not
    half = np.exp(0.25 * math.pi * sq)
    with np.errstate(over="ignore", invalid="ignore"):
        lifted[col, kept[0]] = spec[kept] * half * half
    np.fft.ifft(lifted, out=lifted)
    vals = spec.reshape(n, -1)
    vals.fill(0.0)
    vals[:, lines] = lifted.T
    np.fft.ifftn(spec, axes=range(1, grid.dim), out=spec)
    phi = SampledField(grid, spec)
    kept_cut = max(float(np.max(np.abs(xi[idx]))) for idx in kept)
    # sup |smooth(phi) - u|, recomputed from the returned field and formed
    # in the smoothed field's buffer
    diff = _smooth_axes(spec, grid, range(grid.dim))
    np.subtract(diff, u.values, out=diff)
    residual = float(np.max(np.abs(diff)))
    if not math.isfinite(residual):
        raise FloatingPointError("smoothed field contains NaN/Inf samples")
    return DesmoothReport(phi, "fourier-regularized", residual,
                          cutoff_frequency=kept_cut,
                          rel_threshold=rel_threshold)


def strip_factors(u: AnalyticGaussianSum, g: Grid,
                  strip_halfwidth: float = 3.0,
                  y_nodes: int = 64) -> np.ndarray:
    """The 1-d factors phi[t, a] of the complex-shift heat inverse, one
    (term, axis, node) array, so that Phi = sum_t (x)_a phi[t, a] on ``g``.

    The input must be numerically in the strip-integrable class: every
    axis width below 2 pi (checked before any evaluation; divergent inputs
    raise :class:`ESpaceDivergenceError`).  Each factor is the trapezoid
    sum sqrt(2) sum_y w_y f(x + iy) e^{-2 pi y^2} of ``gsnorm.strip_sum``
    on the axis nodes, its phases formed by angle addition from the
    strip rule's start and step; its entries below 2^-60 of its peak are
    zeroed, so tails hold exact zeros, not subnormals.  An overflow raises
    ``FloatingPointError``; the zero function (no terms) gives an empty
    array.
    """
    if u.dim != g.dim:
        raise ValueError(f"function dimension {u.dim} != grid dimension {g.dim}")
    start, step, wy = strip_rule(strip_halfwidth, y_nodes)
    u.require_gaussian_decay("complex-shift desmoothing")
    if e_space_divergent(u):
        raise ESpaceDivergenceError(
            "strip integrand grows (some axis width >= 2 pi); the "
            "complex-shift construction diverges for this input")

    xs = g.axis_nodes()
    weights = math.sqrt(2.0) * wy
    factors = np.array([[strip_sum([f], xs, start, step, weights)
                         for f in term] for term in u.terms],
                       dtype=complex).reshape(len(u.terms), g.dim, g.npoints)
    if not np.isfinite(factors).all():
        raise FloatingPointError("strip factors overflow to NaN/Inf")
    mag = np.abs(factors)
    factors[mag < RELATIVE_CUT * mag.max(axis=-1, keepdims=True)] = 0.0
    return factors


def smooth_factors(factors: np.ndarray, g: Grid) -> np.ndarray:
    """``smooth`` of each 1-d factor of a (term, axis, node) array."""
    return _smooth_axes(factors, g, (2,))


def factored_residual(smoothed: np.ndarray, u: AnalyticGaussianSum,
                      g: Grid) -> float:
    """sup |sum_t (x)_a smoothed[t, a] - u| over the nodes of ``g``.

    u's samples are taken per axis too, so the difference is one sum of
    tensor products, with u's terms negated: its rank-K matrix
    head @ tail.T (head: the axis-0 factors, tail: the flattened products
    over the other axes) is formed in blocks of axis-0 rows, and no
    grid-sized array is ever held.  The zero function (no terms) has
    residual 0.
    """
    if not u.terms:
        return 0.0
    xs = g.axis_nodes()
    samples = np.array([[-term[0](xs)] + [f(xs) for f in term[1:]]
                        for term in u.terms])
    terms = np.concatenate([smoothed, samples])
    head = np.ascontiguousarray(terms[:, 0].T)
    tail = np.stack([reduce(np.multiply.outer, t[1:], np.ones(())).ravel()
                     for t in terms], axis=1)
    rows = max(1, _RESIDUAL_BLOCK_ENTRIES // len(tail))
    return max(float(np.max(np.abs(head[start:start + rows] @ tail.T)))
               for start in range(0, g.npoints, rows))


def desmooth_complex(u: AnalyticGaussianSum, g: Grid,
                     strip_halfwidth: float = 3.0,
                     y_nodes: int = 64) -> DesmoothReport:
    """Constructive heat inverse as a y-quadrature over the complex strip.

    Phi is the sum over u's tensor-product terms of the outer products of
    the factors of :func:`strip_factors`; the residual is recomputed from
    those same factors through 1-d smooths (:func:`factored_residual`), so
    it checks the field that is returned without a dense transform.
    """
    factors = strip_factors(u, g, strip_halfwidth, y_nodes)
    phi_vals = _outer_sum(factors, g.shape)
    residual = factored_residual(smooth_factors(factors, g), u, g)
    return DesmoothReport(SampledField(g, phi_vals), "complex-shift",
                          residual, strip_halfwidth=strip_halfwidth,
                          y_nodes=y_nodes)
