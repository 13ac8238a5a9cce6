"""Evaluating the anti-Wick symbol of an operator as a functional.

For an operator A the anti-Wick symbol need not be a function, but it can
still be paired against good test functions u: writing u = smooth(Phi),

    <T(A), u> = \\int sigma_weyl(A)(X) Phi(X) dX,

which is what :func:`antiwick_pair` computes.  The pairing is bilinear:
it is the plain quadrature sum of sigma Phi, with no conjugation, so real
symbols paired with real test functions give real values, and for an
operator built from a bounded continuous symbol F the value reproduces
\\int F u (the direct quadrature of which,
:func:`antiwick_pair_reference`, is the validation oracle).

Test functions are Gaussian sums because the default desmoothing method
walks the complex strip; sampled-only inputs can use the regularized
Fourier route, whose recomputed residual is carried in the result so an
ill-posed inversion is never silent.

On the complex-shift route Phi is never formed on the grid.  It is a sum
of tensor products of 1-d factors (``heat.strip_factors``), so the sum of
sigma Phi is taken one axis at a time: the last axis of a dense field
against every factor in one matrix product, then each remaining axis.
``smooth`` is, per axis, a real symmetric circulant (its gain is real and
even in xi), so for an anti-Wick symbol F

    <smooth F, Phi> = <F, smooth Phi>,   smooth Phi = sum_t (x)_a smooth(phi_ta),

and F itself is contracted with the 1-d smooths of the factors: the
pairing runs no 2-d transform.  Kernels and coherent combinations
contract their Weyl symbol with the factors.  The residual is recomputed
from the same smoothed factors, and the stride-two estimate is the same
contraction with each factor zeroed off the stride.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid, GridMismatchError, SampledField, sample
from .gaussians import AnalyticGaussianSum
from .gsnorm import e_space_divergent
from .heat import (desmooth_fourier, factored_residual, smooth,
                   smooth_factors, strip_factors)
from .quantize import (AntiWickFromSymbol, CoherentCombo, DenseKernel,
                       OperatorRep, kernel_from_coherent, position_grid_of,
                       weyl_from_kernel)

__all__ = [
    "PairingResult",
    "weyl_symbol",
    "antiwick_pair",
    "antiwick_pair_reference",
    "RESIDUAL_FLAG_THRESHOLD",
]

RESIDUAL_FLAG_THRESHOLD = 1e-4


@dataclass
class PairingResult:
    value: complex
    method: str
    residual: float
    quadrature_error_estimate: float
    flags: tuple[str, ...] = ()


def weyl_symbol(op: OperatorRep, phase_grid: Grid) -> SampledField:
    """Weyl symbol of any representation, sampled on the phase grid.

    Kernels transform through the midpoint slices; coherent combinations
    densify on the refined position grid first; anti-Wick symbols are heat
    smoothed in place.
    """
    if isinstance(op, AntiWickFromSymbol):
        if op.symbol.grid != phase_grid:
            raise GridMismatchError("symbol lives on a different phase grid")
        return smooth(op.symbol)
    if isinstance(op, DenseKernel):
        sigma = weyl_from_kernel(op)
        if sigma.grid != phase_grid:
            raise GridMismatchError(
                f"kernel induces phase grid {sigma.grid}, expected {phase_grid}")
        return sigma
    if isinstance(op, CoherentCombo):
        refined = position_grid_of(phase_grid).refined()
        return weyl_from_kernel(kernel_from_coherent(op, refined))
    raise TypeError(f"not an operator representation: {type(op)!r}")


def _infer_phase_grid(op: OperatorRep, phase_grid: Grid | None) -> Grid:
    if isinstance(op, AntiWickFromSymbol):
        inferred = op.symbol.grid
    elif isinstance(op, DenseKernel):
        inferred = Grid(2 * op.grid.dim, op.grid.npoints // 2,
                        op.grid.half_extent)
    else:
        inferred = None
    if phase_grid is None:
        if inferred is None:
            raise ValueError(
                "coherent combinations carry no grid; pass phase_grid")
        return inferred
    if inferred is not None and inferred != phase_grid:
        raise GridMismatchError(
            f"operator implies phase grid {inferred}, got {phase_grid}")
    return phase_grid


def antiwick_pair(op: OperatorRep, u: AnalyticGaussianSum,
                  method: str = "complex-shift",
                  phase_grid: Grid | None = None,
                  rel_threshold: float = 1e-12,
                  strip_halfwidth: float = 3.0,
                  y_nodes: int = 64) -> PairingResult:
    """Pair the anti-Wick symbol of ``op`` against the test function ``u``.

    The heat inverse of u is built with the requested method and
    integrated against the Weyl symbol of the operator on the phase grid
    (on the complex-shift route as 1-d factors, see the module notes).
    Results always carry the desmoothing residual and a
    stride-two quadrature error estimate; a residual above
    ``RESIDUAL_FLAG_THRESHOLD`` flags the result but the value is still
    returned.  Test functions outside the admissible width range (some
    axis width >= 2 pi) abort the complex-shift construction, which
    genuinely diverges for them, and only flag the Fourier route.
    """
    grid = _infer_phase_grid(op, phase_grid)
    if u.dim != grid.dim:
        raise GridMismatchError(
            f"test function dimension {u.dim} != phase dimension {grid.dim}")

    flags: list[str] = []
    if method == "complex-shift":
        value, residual, estimate = _factored_pair(
            op, u, grid, strip_halfwidth, y_nodes)
    elif method == "fourier-regularized":
        if e_space_divergent(u):
            flags.append("e-space-divergent")
        report = desmooth_fourier(sample(u, grid), rel_threshold=rel_threshold)
        sigma = weyl_symbol(op, grid)
        value = _bilinear(sigma, report.result, 1)
        estimate = abs(value - _bilinear(sigma, report.result, 2))
        residual = report.residual
    else:
        raise ValueError(
            "method must be 'complex-shift' or 'fourier-regularized'")

    if residual > RESIDUAL_FLAG_THRESHOLD:
        flags.append("excessive-residual")
    return PairingResult(value, method, residual, estimate, tuple(flags))


def _bilinear(sigma: SampledField, phi: SampledField, step: int) -> complex:
    """Quadrature of \\int sigma phi on the subgrid of every ``step``-th
    node per axis, weighted by its cell volume (step h)^d."""
    sub = (slice(None, None, step),) * sigma.grid.dim
    return complex(np.sum(sigma.values[sub] * phi.values[sub])
                   * (step * sigma.grid.spacing)**sigma.grid.dim)


def _factored_pair(op: OperatorRep, u: AnalyticGaussianSum, grid: Grid,
                   strip_halfwidth: float,
                   y_nodes: int) -> tuple[complex, float, float]:
    """(value, residual, stride-two estimate) of the complex-shift pairing,
    with Phi kept as its 1-d factors.

    An anti-Wick symbol F is contracted with the smoothed factors, by the
    adjoint identity <smooth F, Phi> = <F, smooth Phi>; every other
    operator's Weyl symbol with the factors themselves.  The stride-two
    sum is the same contraction with each factor zeroed off the stride,
    smoothed after the zeroing for F, at the cell volume (2h)^d.
    """
    factors = strip_factors(u, grid, strip_halfwidth, y_nodes)
    smoothed = smooth_factors(factors, grid)
    residual = factored_residual(smoothed, u, grid)
    even = np.arange(grid.npoints) % 2 == 0
    coarse = [[np.where(even, phi, 0.0) for phi in term] for term in factors]
    if isinstance(op, AntiWickFromSymbol):
        field = op.symbol.values
        terms = smoothed + smooth_factors(coarse, grid)
    else:
        field = weyl_symbol(op, grid).values
        terms = factors + coarse
    sums = _contract(field, terms)
    fine = len(factors)
    value = complex(np.sum(sums[:fine]) * grid.spacing**grid.dim)
    estimate = abs(value - complex(np.sum(sums[fine:])
                                   * (2 * grid.spacing)**grid.dim))
    return value, residual, estimate


def _contract(field: np.ndarray, terms: list[list[np.ndarray]]) -> np.ndarray:
    """sum_X field[X] prod_a terms[t][a][X_a] for every t, one axis at a
    time: the last axis of the field against every term's factor in one
    matrix product, then each remaining axis per term, so nothing larger
    than the field divided by one axis is formed."""
    part = field @ np.stack([t[-1] for t in terms], axis=1)
    for axis in reversed(range(field.ndim - 1)):
        part = np.sum(part * np.stack([t[axis] for t in terms], axis=1),
                      axis=-2)
    return part


def antiwick_pair_reference(symbol: SampledField,
                            u: AnalyticGaussianSum) -> complex:
    """Direct quadrature of \\int F(X) u(X) dX for bounded continuous F.

    This is the value the pairing must reproduce when the operator is
    assembled from F; it never touches the heat semigroup, which is what
    makes it an independent oracle.
    """
    if u.dim != symbol.grid.dim:
        raise GridMismatchError(
            f"test function dimension {u.dim} != symbol dimension "
            f"{symbol.grid.dim}")
    uvals = sample(u, symbol.grid).values
    return complex(np.sum(symbol.values * uvals) * symbol.grid.cell_volume)
