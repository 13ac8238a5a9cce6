"""Evaluating the anti-Wick symbol of an operator as a functional.

For an operator A the anti-Wick symbol need not be a function, but it can
still be paired against good test functions u: writing u = smooth(Phi),

    <T(A), u> = \\int sigma_weyl(A)(X) Phi(X) dX,

which is what :func:`antiwick_pair` computes.  The pairing is bilinear:
it is the plain quadrature sum of sigma Phi, with no conjugation, so real
symbols paired with real test functions give real values, and for an
operator built from a bounded continuous symbol F the value reproduces
\\int F u.  The direct quadrature of that integral,
:func:`antiwick_pair_reference`, is the validation oracle: it runs no heat
smoothing, and it contracts F with u's own 1-d factors the way the
pairing below contracts it with Phi's, so u is never sampled on the grid.

Test functions are Gaussian sums because the default desmoothing method
walks the complex strip; sampled-only inputs can use the regularized
Fourier route, whose recomputed residual is carried in the result so an
ill-posed inversion is never silent.

On the complex-shift route Phi is never formed on the grid.  It is a sum
of tensor products of 1-d factors (``heat.strip_factors``, one (term,
axis, node) array), so the sum of sigma Phi runs one axis at a time: the
field's last axis against every factor in one matrix product, then the rest.
``smooth`` is, per axis, a real symmetric circulant (its gain is real and
even in xi), so for an anti-Wick symbol F

    <smooth F, Phi> = <F, smooth Phi>,   smooth Phi = sum_t (x)_a smooth(phi_ta),

and F itself is contracted with the factors' 1-d smooths, one batched band
pass: the pairing runs no 2-d transform.  A test function whose
coefficients are all real has float64 factors, so a float F meets them
in one real product.  A dense kernel's Weyl symbol is
sigma = h^n DFT_o S of its midpoint-slice table S[x, o] = K(x + t/2,
x - t/2) over the offsets o, and the centred DFT matrix is symmetric, so

    sum_xi sigma(x, xi) phi(xi) = h^n sum_o S[x, o] (DFT phi)(o)

per axis: S is contracted with the position factors and the DFTs of the
xi factors, and sigma is never formed.  The residual is recomputed from
the same smoothed factors, and the stride-two estimate is the same
contraction with each factor zeroed off the stride.

A coherent combination needs no quadrature at all.  The anti-Wick symbol
of |Psi_X><Psi_Y| is not a tempered distribution but a functional carried
by one complex point: with X = (x, xi) and Y = (y, eta),

    <T(|Psi_X><Psi_Y|), u> = e^{-pi |X-Y|^2/2} e^{i pi (y.xi - x.eta)}
                             u((x+y)/2 + i(xi-eta)/2, (xi+eta)/2 + i(y-x)/2),

which needs u entire; along the imaginary shift a width-a factor grows
like e^{a |X-Y|^2/4} against the overlap's e^{-pi |X-Y|^2/2}, so the
product stays bounded exactly for a < 2 pi, the boundary of the test
class.  This route reports the method ``closed-form`` with residual and
quadrature estimate 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid, GridMismatchError, SampledField, centered_fft, sample
from .gaussians import AnalyticGaussianSum
from .gsnorm import e_space_divergent, strip_rule
from .heat import (ESpaceDivergenceError, desmooth_fourier, factored_residual,
                   smooth, smooth_factors, strip_factors)
from .quantize import (AntiWickFromSymbol, CoherentCombo, DenseKernel,
                       OperatorRep, _midpoint_slices, kernel_from_coherent,
                       position_grid_of, weyl_from_kernel)

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
    smoothed in place.  The complex-shift pairing needs none of these: it
    contracts F, a kernel's midpoint-slice table or nothing (a coherent
    combination's closed form); the Fourier route and the dense test
    oracle still pair with this dense symbol.  A symbol or kernel whose
    phase grid is not ``phase_grid`` raises GridMismatchError.
    """
    _infer_phase_grid(op, phase_grid)
    if isinstance(op, AntiWickFromSymbol):
        return smooth(op.symbol)
    if isinstance(op, DenseKernel):
        return weyl_from_kernel(op)
    if isinstance(op, CoherentCombo):
        refined = position_grid_of(phase_grid).refined()
        return weyl_from_kernel(kernel_from_coherent(op, refined))
    raise TypeError(f"not an operator representation: {type(op)!r}")


def _infer_phase_grid(op: OperatorRep, phase_grid: Grid | None) -> Grid | None:
    """The implied or given phase grid (checked to agree); None if neither."""
    if isinstance(op, AntiWickFromSymbol):
        inferred = op.symbol.grid
    elif isinstance(op, DenseKernel):
        inferred = Grid(2 * op.grid.dim, op.grid.npoints // 2,
                        op.grid.half_extent)
    else:
        inferred = None
    if phase_grid is None:
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
    On the complex-shift route a coherent combination is paired in closed
    form instead, with no phase grid (method ``closed-form``, residual and
    estimate 0; the strip parameters are checked but not used).  Other
    results carry the desmoothing residual and a stride-two quadrature
    error estimate; a residual above ``RESIDUAL_FLAG_THRESHOLD`` flags the
    result but the value is still returned.  Test functions outside the
    admissible width range (some axis width >= 2 pi) abort the
    complex-shift construction, which genuinely diverges for them, and
    only flag the Fourier route.
    """
    grid = _infer_phase_grid(op, phase_grid)
    if grid is not None and u.dim != grid.dim:
        raise GridMismatchError(
            f"test function dimension {u.dim} != phase dimension {grid.dim}")
    if isinstance(op, CoherentCombo) and op.terms \
            and 2 * op.position_dim != u.dim:
        raise GridMismatchError(
            f"test function dimension {u.dim} != phase dimension "
            f"{2 * op.position_dim} of the coherent combination")

    if method == "complex-shift" and isinstance(op, CoherentCombo):
        strip_rule(strip_halfwidth, y_nodes)    # unused, but still checked
        return PairingResult(_closed_form_pair(op, u), "closed-form", 0.0, 0.0)
    if grid is None:
        raise ValueError("coherent combinations carry no grid; pass "
                         "phase_grid for the fourier-regularized route")
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


def _closed_form_pair(combo: CoherentCombo,
                      u: AnalyticGaussianSum) -> complex:
    """sum_j c_j <T(|Psi_X><Psi_Y|), u> with X = (x, xi), Y = (y, eta) per
    term, in closed form:

        e^{-pi |X - Y|^2 / 2} e^{i pi (y . xi - x . eta)}
            u((x + y)/2 + i (xi - eta)/2, (xi + eta)/2 + i (y - x)/2).

    Each axis factor of u is evaluated with its share of the overlap
    exponent as ``log_weight`` (-pi (xi_j - eta_j)^2 / 2 on position axis
    j, -pi (x_j - y_j)^2 / 2 on axis n + j), so the exponent's real part is
    at most (a - 2 pi) times the squared imaginary shift and nothing
    overflows for widths a < 2 pi, however far X is from Y.  Wider (or
    non-decaying) test functions are outside the class the functional is
    defined on and raise, as on the strip route.
    """
    if not combo.terms:
        return 0j
    n = combo.position_dim
    u.require_gaussian_decay("closed-form pairing")
    if e_space_divergent(u):
        raise ESpaceDivergenceError(
            "test function outside the class (some axis width >= 2 pi); "
            "the coherent pairing diverges for it")
    c = np.array([t[0] for t in combo.terms], dtype=complex)
    big_x = np.array([t[1] for t in combo.terms], dtype=float)
    big_y = np.array([t[2] for t in combo.terms], dtype=float)
    x, xi = big_x[:, :n], big_x[:, n:]
    y, eta = big_y[:, :n], big_y[:, n:]
    # rows: axes (x_1..x_n, xi_1..xi_n); columns: the combination's terms
    re = np.concatenate([x + y, xi + eta], axis=1).T / 2
    im = np.concatenate([xi - eta, y - x], axis=1).T / 2
    log_w = -0.5 * np.pi * np.concatenate([xi - eta, x - y], axis=1).T**2
    total = sum(np.prod([f.shifted_values(re[a], im[a], log_w[a])
                         for a, f in enumerate(term)], axis=0)
                for term in u.terms)
    phase = np.exp(1j * np.pi * (np.sum(y * xi, axis=1)
                                 - np.sum(x * eta, axis=1)))
    return complex(np.sum(c * phase * total))


def _factored_pair(op: OperatorRep, u: AnalyticGaussianSum, grid: Grid,
                   strip_halfwidth: float,
                   y_nodes: int) -> tuple[complex, float, float]:
    """(value, residual, stride-two estimate) of the complex-shift pairing,
    with Phi kept as its 1-d factors.

    F or a kernel's midpoint-slice table is contracted with the factors as
    the module notes describe.  The stride-two sum is the same contraction
    with each factor zeroed off the stride (smoothed or transformed after
    the zeroing), at the cell volume (2h)^d.
    """
    factors = strip_factors(u, grid, strip_halfwidth, y_nodes)
    fine = len(factors)
    even = np.arange(grid.npoints) % 2 == 0
    terms = np.concatenate([factors, np.where(even, factors, 0.0)])
    if isinstance(op, AntiWickFromSymbol):
        field = op.symbol.values
        terms = smooth_factors(terms, grid)
        smoothed = terms[:fine]
    elif isinstance(op, DenseKernel):
        field = _midpoint_slices(op)
        smoothed = smooth_factors(factors, grid)
        n = grid.dim // 2
        # the xi factors' transforms are complex, whatever the factors
        terms = terms.astype(complex, copy=False)
        terms[:, n:] = centered_fft(terms[:, n:], axes=(-1,)) * grid.spacing
    else:
        raise TypeError(f"not an operator representation: {type(op)!r}")
    residual = factored_residual(smoothed, u, grid)
    sums = _contract(field, terms)
    value = complex(np.sum(sums[:fine]) * grid.spacing**grid.dim)
    estimate = abs(value - complex(np.sum(sums[fine:])
                                   * (2 * grid.spacing)**grid.dim))
    return value, residual, estimate


def _contract(field: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_X field[X] prod_a terms[t, a, X_a] for every t, one axis at a
    time: one axis of the field against every term's factor in one matrix
    product, then each remaining axis per term, last first, so nothing
    larger than the field divided by one axis is formed.

    A complex field's last axis goes first.  A real field is never cast to
    complex: its first axis meets real factors, or complex factors' (re, im)
    rows, in one real product, (terms, N) @ (N, rest) or (2 terms, N) @
    (N, rest), the shape BLAS runs fastest for a few terms."""
    cols = np.ascontiguousarray(terms.transpose(1, 2, 0))   # (axis, node, t)
    if np.iscomplexobj(field):
        part, rest = field @ cols[-1], range(field.ndim - 1)
    else:
        pairs = np.iscomplexobj(cols)
        rows = cols[0].view(float) if pairs else cols[0]
        part = np.ascontiguousarray(
            (rows.T @ field.reshape(len(field), -1)).T)
        part = (part.view(complex) if pairs else part).reshape(
            field.shape[1:] + (-1,))
        rest = range(1, field.ndim)
    for axis in reversed(rest):
        part = np.sum(part * cols[axis], axis=-2)
    return part


def antiwick_pair_reference(symbol: SampledField,
                            u: AnalyticGaussianSum) -> complex:
    """Direct quadrature of \\int F(X) u(X) dX for bounded continuous F.

    This is the value the pairing must reproduce when the operator is
    assembled from F; it never touches the heat semigroup, which is what
    makes it an independent oracle.  u is not sampled on the grid: each
    term's 1-d factors are evaluated on the axis nodes and F is contracted
    with them by :func:`_contract`, so nothing grid-sized is formed.  The
    factors are float64 (their real parts) when every coefficient of u is
    real, so a float F meets them in one real product.
    """
    if u.dim != symbol.grid.dim:
        raise GridMismatchError(
            f"test function dimension {u.dim} != symbol dimension "
            f"{symbol.grid.dim}")
    nodes = symbol.grid.axis_nodes()
    real = u.has_real_coefficients()
    # filled as (axis, node, term), the layout _contract reads: no copy
    cols = np.empty((u.dim, len(nodes), len(u.terms)),
                    dtype=float if real else complex)
    for t, term in enumerate(u.terms):
        for a, f in enumerate(term):
            vals = f(nodes)
            cols[a, :, t] = vals.real if real else vals
    return complex(np.sum(_contract(symbol.values, cols.transpose(2, 0, 1)))
                   * symbol.grid.cell_volume)
