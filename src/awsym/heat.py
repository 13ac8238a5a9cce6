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
forward pass of ``smooth`` writes a new array (``desmooth_fourier``
copies its input into a complex buffer first), and every later pass runs
in place (``out=``), not in a new array per pass, except
``desmooth_fourier``'s two passes along axis 0, which run on copies
gathered from the few lines that can hold a kept node.

The route follows the dtype alone: a float64 field takes half-spectrum
transforms and gives a float64 result, a complex128 one the complex
passes, even with all-zero imaginary parts (``fieldio.load_field`` loads
real files as float64).  ``smooth`` runs ``rfft`` first and ``irfft``
last, on the columns 0 <= j <= N/2 of the last axis (a real field's
spectrum is Hermitian).  ``desmooth_fourier`` keeps the complex forward
transform, since its division lifts round-off by up to exp(pi |xi|^2 / 2)
and a half-spectrum forward pass moves even the result's real part (by
3e-7 of the peak at width 6, 1024/16); its inverse ends in ``irfft`` of
the lifted spectrum's Hermitian part, the real part of the complex one.

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

  A sum whose coefficients are all real (centres and widths always are)
  has u(x - iy) = conj u(x + iy), so each pair of nodes +-y of the
  symmetric trapezoid rule adds up to 2 Re of one, and every factor is
  real.  Such a sum runs in float64 from end to end: the strip sums
  evaluate the nodes y >= 0 alone (``gsnorm._half_rule``, whose nodes
  mirror exactly; the y = 0 node of an odd rule counts once) and keep
  the real part, so Phi is float64, its factors take ``_smooth_axes``'
  real route and the residual's block products are real.  A complex
  coefficient keeps the complex factors of the whole rule.
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
from .gsnorm import _half_rule, e_space_divergent, strip_rule, strip_sum

__all__ = [
    "DesmoothReport",
    "ESpaceDivergenceError",
    "smooth",
    "desmooth_fourier",
    "desmooth_complex",
]

# entries per block of a residual's difference and of the 1-norms of
# ``desmooth_fourier``'s lines (1 MiB complex)
_BLOCK_ENTRIES = 2**16


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
    kept_fraction: Optional[float] = None
    peak_log_gain: Optional[float] = None


def _unshifted_freqs(grid: Grid) -> np.ndarray:
    """The 1-d frequency nodes of ``grid`` in unshifted FFT order (xi = 0
    first, the negative half last): the centred node values, rolled."""
    return np.fft.ifftshift(grid.freq.axis_nodes())


def _row_blocks(vals: np.ndarray):
    """Slices along axis 0 of ``vals`` of about ``_BLOCK_ENTRIES`` entries
    each, in order."""
    rows = max(1, _BLOCK_ENTRIES * len(vals) // vals.size)
    return (slice(start, start + rows) for start in range(0, len(vals), rows))


def smooth(f: SampledField) -> SampledField:
    """Heat smoothing as the frequency multiplier exp(-pi |xi|^2 / 2), on
    unshifted FFTs (see the module notes), over every axis of ``f``.  A
    float64 ``f`` takes the half-spectrum route and gives a float result."""
    return SampledField(f.grid, _smooth_axes(f.values, f.grid,
                                             range(f.grid.dim)))


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
    band in and inverts there, so a complex result lands in the first
    pass's buffer.

    A real ``vals`` (float dtype) takes the half-spectrum route: the first
    pass is ``rfft``, whose columns 0..N/2 hold xi >= 0 and then the
    Nyquist column, so its band is one prefix, the in-band xi >= 0 plus
    the Nyquist column when the band is the whole axis.  The matching last
    inverse pass is ``irfft`` of that band to N points, which zero-pads it
    itself, and the result is a new real array."""
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

    def gains(part, axis):
        return gain[part].reshape((-1,) + (1,) * (ndim - 1 - axis))

    axes, real = list(axes), not np.iscomplexobj(vals)
    # overflow shows as NaN/Inf in the result, which the callers check
    with np.errstate(over="ignore", invalid="ignore"):
        if real:
            last = axes.pop()
            prefix = slice(0, pos + int(inband[n // 2]))
            spec = np.fft.rfft(vals, axis=last, out=np.empty(
                vals.shape[:last] + (n // 2 + 1,) + vals.shape[last + 1:],
                dtype=complex))
            vals = spec[on(last, prefix)] * gains(prefix, last)
            del spec
        specs = []
        for axis in reversed(axes):
            out = vals if specs or real else np.empty(vals.shape, complex)
            spec = np.fft.fft(vals, axis=axis, out=out)
            specs.append(spec)
            vals = np.empty(spec.shape[:axis] + (pos + neg,)
                            + spec.shape[axis + 1:], dtype=complex)
            for full, band in spans:
                np.multiply(spec[on(axis, full)], gains(full, axis),
                            out=vals[on(axis, band)])
        for axis, spec in zip(axes, reversed(specs)):
            spec[on(axis, slice(pos, n - neg))] = 0.0
            for full, band in spans:
                spec[on(axis, full)] = vals[on(axis, band)]
            vals = np.fft.ifft(spec, axis=axis, out=spec)
        return np.fft.irfft(vals, n, axis=last) if real else vals


def desmooth_fourier(u: SampledField,
                     rel_threshold: float = 1e-12) -> DesmoothReport:
    """Regularized spectral division by the heat multiplier.

    Frequencies where |Fu| falls below rel_threshold * max|Fu| are zeroed;
    everything kept is divided by exp(-pi |xi|^2 / 2).  As in ``smooth``,
    the division commutes with the centring shifts and the transform
    weights cancel, so it runs on unshifted FFTs; the weight h^d enters
    only the overflow guard, and the logarithm and the gain are evaluated
    on the kept nodes alone.  Once the forward buffer is freed the lifted
    values go straight into the inverse's zero buffer (half the grid for a
    float ``u``), whose pass along axis 0 runs only on the lines holding
    nonzeros.  No attempt is made to decide well-posedness for the caller:
    the recomputed residual in the report is the verdict.
    A float64 ``u`` gives the float64 real part of the complex route's
    result (see the module notes).  The zero field keeps no node: its
    cutoff, ``kept_fraction`` and ``peak_log_gain`` are 0.

    The forward ``fftn`` is pruned along axis 0, bit for bit.  Its passes
    along axes d-1 .. 1 run over the whole buffer, in ``fftn``'s order; the
    pass along axis 0 runs only on the lines (indices on the other axes)
    whose 1-norm nu = sum_r |x_r| can reach the threshold.  nu bounds every
    entry of the line's transform, and the peak m0 of the transformed line
    of largest nu bounds the spectrum's peak from below, so a line with
    2 nu < rel_threshold * m0 (the 2 covers round-off, O(eps log N)
    relative) holds neither a kept node nor the peak.  A line's transform
    does not depend on its batch, so Phi, the residual and the cutoff are
    those of the whole ``fftn``, byte for byte.  A NaN or Inf in a 1-norm
    or a transformed line raises ``FloatingPointError``; a NaN 1-norm
    keeps its line.  ``kept_fraction`` is the share of grid nodes kept,
    and ``peak_log_gain`` the largest pi |xi|^2 / 2 of a kept node.
    """
    if not 0.0 < rel_threshold < 1.0:
        raise ValueError("rel_threshold must lie in (0, 1)")
    grid, n, vals = u.grid, u.grid.npoints, u.values
    real = not np.iscomplexobj(vals)
    # a C-ordered complex copy, where the passes along axes d-1 .. 1 run in
    # place, as do the inverse passes; by_line's columns are the lines
    spec = np.array(vals, dtype=complex, order="C")
    by_line = spec.reshape(n, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        for axis in reversed(range(1, grid.dim)):
            np.fft.fft(spec, axis=axis, out=spec)
        nu = sum(np.abs(by_line[rows]).sum(axis=0)
                 for rows in _row_blocks(by_line))
        if not nu.any():
            # every line is zero: Phi = 0, and its residual is sup |u|
            return DesmoothReport(
                SampledField(grid, np.zeros(grid.shape, vals.dtype)),
                "fourier-regularized", u.sup_norm(), 0.0, rel_threshold,
                kept_fraction=0.0, peak_log_gain=0.0)
        m0 = np.abs(np.fft.fft(by_line[:, np.argmax(nu)])).max()
        cand = np.flatnonzero(~(2.0 * nu < rel_threshold * m0))
        spec_cand = np.fft.fft(by_line[:, cand], axis=0)
        mag = np.abs(spec_cand)
    spec_peak = float(mag.max())
    if not (math.isfinite(spec_peak) and np.isfinite(nu).all()):
        raise FloatingPointError("spectrum overflows to NaN/Inf")
    # never empty: the largest node is always kept; (row, cand[column]) in
    # C order, as np.nonzero on the whole grid, since cand ascends
    hit = np.nonzero(mag >= rel_threshold * spec_peak)
    kept = np.unravel_index(hit[0] * by_line.shape[1] + cand[hit[1]],
                            grid.shape)

    xi = _unshifted_freqs(grid)
    sq = sum(xi[idx]**2 for idx in kept)
    with np.errstate(divide="ignore"):
        log_gain = np.log(mag[hit]) + 0.5 * math.pi * sq
    del mag
    peak = float(np.max(log_gain)) + grid.dim * math.log(grid.spacing)
    if peak > _EXP_GUARD:
        raise OverflowGuardError(
            f"regularized division overflows double precision "
            f"(max log magnitude {peak:.1f}); raise rel_threshold or "
            "shrink the frequency box")

    # two halves, as exp() alone overflows where the product need not
    half = np.exp(0.25 * math.pi * sq)
    with np.errstate(over="ignore", invalid="ignore"):
        lifted = spec_cand[hit] * half * half
    del spec, spec_cand, by_line
    # the inverse's input, scattered into its zero buffer part by part
    # (each part's indices unique): the lifted spectrum L on the kept nodes,
    # or for a real input its Hermitian part (L[k] + conj L[-k]) / 2 on the
    # columns 0..N/2 of the last axis, which ``irfft`` inverts to Re(ifftn(L))
    shape, parts = grid.shape, [(kept, lifted)]
    if real:
        shape = shape[:-1] + (n // 2 + 1,)
        lifted *= 0.5
        parts = [(tuple(k[on] for k in idx), v[on]) for idx, v in (
            (kept, lifted), (tuple(-k % n for k in kept), lifted.conj()))
            for on in [idx[-1] < shape[-1]]]
    spec = np.zeros(shape, dtype=complex)
    for j, (idx, v) in enumerate(parts):
        spec[idx] = v if j == 0 else spec[idx] + v
    if grid.dim > real:
        # the complex passes (a real input's last axis is irfft's): along
        # axis 0 on a gathered copy of the lines (indices on the other axes)
        # that hold a nonzero, the others stay exact zeros; then in place
        by_line = spec.reshape(n, -1)
        lines = np.unique(np.hstack([np.ravel_multi_index(idx[1:], shape[1:])
                                     for idx, _ in parts]))
        on_lines = by_line[:, lines]
        by_line[:, lines] = np.fft.ifft(on_lines, axis=0, out=on_lines)
        del by_line, on_lines
        np.fft.ifftn(spec, axes=range(1, grid.dim - real), out=spec)
    phi_vals = np.fft.irfft(spec, n) if real else spec
    del spec
    phi = SampledField(grid, phi_vals)
    kept_cut = max(float(np.max(np.abs(xi[idx]))) for idx in kept)
    # sup |smooth(phi) - u|, recomputed from the returned field and formed
    # in the smoothed field's buffer; the magnitudes a row block at a time,
    # and np.max keeps a block's NaN
    diff = _smooth_axes(phi_vals, grid, range(grid.dim))
    np.subtract(diff, vals, out=diff)
    residual = float(np.max([np.abs(diff[rows]).max()
                             for rows in _row_blocks(diff)]))
    if not math.isfinite(residual):
        raise FloatingPointError("smoothed field contains NaN/Inf samples")
    return DesmoothReport(phi, "fourier-regularized", residual,
                          cutoff_frequency=kept_cut,
                          rel_threshold=rel_threshold,
                          kept_fraction=len(kept[0]) / math.prod(grid.shape),
                          peak_log_gain=0.5 * math.pi * float(np.max(sq)))


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

    The array is float64 when every coefficient of u is real: the sum then
    runs over the nodes y >= 0 of the rule, each weighted for itself and
    its mirror -y, and keeps the real part (see the module notes).  Any
    complex coefficient gives complex128 from every node of the rule.
    """
    if u.dim != g.dim:
        raise ValueError(f"function dimension {u.dim} != grid dimension {g.dim}")
    real = u.has_real_coefficients()
    start, step, wy = (_half_rule if real else strip_rule)(strip_halfwidth,
                                                           y_nodes)
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
    if real:    # each weight counts a node and its mirror: 2 Re
        factors = factors.real.copy()
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
    grid-sized array is ever held.  u's samples are the real parts of the
    complex evaluation when every coefficient is real, so real smoothed
    factors give real products.  The zero function (no terms) has
    residual 0; a non-finite residual raises ``FloatingPointError``.
    """
    if not u.terms:
        return 0.0
    xs = g.axis_nodes()
    samples = np.array([[-term[0](xs)] + [f(xs) for f in term[1:]]
                        for term in u.terms])
    if u.has_real_coefficients():
        samples = samples.real
    terms = np.concatenate([smoothed, samples])
    head = np.ascontiguousarray(terms[:, 0].T)
    tail = np.stack([reduce(np.multiply.outer, t[1:], np.ones(())).ravel()
                     for t in terms], axis=1)
    rows = max(1, _BLOCK_ENTRIES // len(tail))

    def sup(block):
        # a real block's magnitudes overwrite it: a new array per block
        # faults its pages in again, which cost more than the product
        real = not np.iscomplexobj(block)
        return np.abs(block, out=block if real else None).max()

    # np.max keeps a block's NaN, which Python's max would drop
    residual = float(np.max([sup(head[start:start + rows] @ tail.T)
                             for start in range(0, g.npoints, rows)]))
    if not math.isfinite(residual):
        raise FloatingPointError("smoothed factors contain NaN/Inf entries")
    return residual


def desmooth_complex(u: AnalyticGaussianSum, g: Grid,
                     strip_halfwidth: float = 3.0,
                     y_nodes: int = 64) -> DesmoothReport:
    """Constructive heat inverse as a y-quadrature over the complex strip.

    Phi is the sum over u's tensor-product terms of the outer products of
    the factors of :func:`strip_factors`, in their dtype: float64 when
    every coefficient of u is real, else complex128.  The residual is
    recomputed from those same factors through 1-d smooths
    (:func:`factored_residual`), so it checks the field that is returned
    without a dense transform.
    """
    factors = strip_factors(u, g, strip_halfwidth, y_nodes)
    phi_vals = _outer_sum(factors, g.shape, factors.dtype)
    residual = factored_residual(smooth_factors(factors, g), u, g)
    return DesmoothReport(SampledField(g, phi_vals), "complex-shift",
                          residual, strip_halfwidth=strip_halfwidth,
                          y_nodes=y_nodes)
