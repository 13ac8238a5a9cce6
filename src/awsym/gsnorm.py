"""Numerical regularity classifiers for Gaussian-sum functions.

The checks quantify, over finite probe ranges, the memberships the rest of
the package leans on:

* ``gs_constant``     -- smallest A with |x^a d^b u| <= A^{|a|+|b|} (a!)^lam (b!)^mu
                         over the probed multi-indices,
* ``holo_bound_check``-- the weighted strip bound e^{phi(x)} |u(x+iy)| <= K e^{psi(y)},
* ``e_space_norm``    -- the strip integral of e^{-2 pi |Im z|^2} (1+|Re z|)^m |u|,
* ``hermite_sup`` / ``hermite_bound_margin``
                      -- the derivative-of-Gaussian sup bound
                         sqrt(2) (2 pi)^{1/4} sqrt(m!) (m+1)^{1/4},
* ``hermite_l2_log_margin`` -- the matching L2 bound sqrt(2 pi) m!,
* ``gevrey_order_estimate`` -- least-squares Gevrey order of derivative sups.

All factorial and sup arithmetic runs in log space; sup norms are taken
over grids that provably contain every stationary point of the probed
Gaussian sums, with the boundary value checked against the interior
maximum as the tail guard.  ``gs_constant`` reduces one axis at a time,
so each derivative order takes its weighted sups for every alpha at once.

The scaled Hermite recurrence lives in :mod:`awsym.gaussians` alone; each
check runs it once per grid for all its orders.  The Hermite checks share
one grid t_k = k h (h = 5/16384) up to MAX_HERMITE_ORDER (orders up to 8
read a small table of their own) and cache each pass's sups and L2 norms.

Membership is always reported as an estimate over finite ranges together
with a stabilization diagnostic; nothing here claims a proof.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import phase_table
from .gaussians import (_EXP_GUARD, AnalyticGaussianSum, GaussFactor,
                        scaled_hermite_orders, sum_derivatives)

__all__ = [
    "WeightParams",
    "GSEstimate",
    "phi_weight",
    "psi_weight",
    "gs_constant",
    "HoloBoundResult",
    "holo_bound_check",
    "ESpaceReport",
    "e_space_norm",
    "e_space_divergent",
    "hermite_sup",
    "hermite_bound_margin",
    "hermite_l2_log_margin",
    "GevreyFit",
    "gevrey_order_estimate",
]

TWO_PI = 2.0 * math.pi
MAX_PROBE_ORDER = 40
MAX_HERMITE_ORDER = 200


@dataclass(frozen=True)
class WeightParams:
    """Parameters (lambda, mu, A) of the strip weights phi and psi."""

    lam: float
    mu: float
    const_a: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError("lambda must be positive")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if not self.const_a > 0.0:
            raise ValueError("A must be positive")


def phi_weight(x, w: WeightParams):
    """phi(x) = (lambda/2) * sum_j |x_j / A| ** (1/lambda)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return 0.5 * w.lam * np.sum(
        np.abs(x / w.const_a) ** (1.0 / w.lam), axis=0)


def psi_weight(y, w: WeightParams):
    """psi(y) = 2 (1 - mu) * sum_j |A y_j| ** (1/(1-mu))."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return 2.0 * (1.0 - w.mu) * np.sum(
        np.abs(w.const_a * y) ** (1.0 / (1.0 - w.mu)), axis=0)


# ---------------------------------------------------------------------------
# sup norms of x^alpha d^beta u over tail-safe grids
# ---------------------------------------------------------------------------

def _axis_extent(u: AnalyticGaussianSum, axis: int, extra_order: int) -> float:
    """Half-extent beyond which |x^a d^b term| is provably decreasing.

    For a factor (z-b)^p e^{-a(z-b)^2} with polynomial load up to
    p + extra_order, every stationary point lies within
    sqrt((p + extra_order + 1) / (2a)) of the center; a few standard
    deviations are added on top so the grid max is the global sup.  Every
    factor must decay (width > 0); the callers check that first.
    """
    r = 1.0
    for term in u.terms:
        f = term[axis]
        load = f.power + extra_order + 1
        r = max(r, abs(f.center) + math.sqrt(load / (2.0 * f.width))
                + 8.0 / math.sqrt(2.0 * f.width))
    return r


def _sup_axes(u: AnalyticGaussianSum, extra_order: int,
              points_per_axis: int) -> list[np.ndarray]:
    extents = [_axis_extent(u, j, extra_order) for j in range(u.dim)]
    return [np.linspace(-r, r, points_per_axis) for r in extents]


def _multi_indices(dim: int, max_total: int):
    """Length-dim multi-indices of total order <= max_total, lexicographic."""
    if dim == 0:
        yield ()
        return
    for k in range(max_total + 1):
        for rest in _multi_indices(dim - 1, max_total - k):
            yield (k,) + rest


def _weighted_sups(absd: np.ndarray, coord_pows) -> np.ndarray:
    """sup_x |x^alpha| absd(x) for every alpha in the box, axis by axis.

    Entry [alpha] equals np.max(absd * |x_0|^a_0 * |x_1|^a_1 * ...) bit for
    bit: rounding is monotone, so for q >= 0 the max over x_j of c * p
    times q is the max of c * p * q, and each axis is reduced as soon as
    its power has been multiplied in.
    """
    sups = absd
    for j, pows in enumerate(coord_pows):
        shape = [1] * sups.ndim
        shape[j] = -1   # the leading j axes already index alpha_0..alpha_{j-1}
        sups = np.stack([np.max(sups * p.reshape(shape), axis=j)
                         for p in pows], axis=j)
    return sups


@dataclass
class GSEstimate:
    """Empirical Gelfand-Shilov data for one (lambda, mu) pair."""

    lam: float
    mu: float
    a_est: float
    max_alpha: int
    max_beta: int
    a_by_total_order: tuple[float, ...] = field(default_factory=tuple)
    unbounded: bool = False


def gs_constant(u: AnalyticGaussianSum, lam: float, mu: float,
                max_alpha: int, max_beta: int,
                points_per_axis: int = 0) -> GSEstimate:
    """Smallest A making the seminorm bound hold over the probed orders.

    For every pair of multi-indices with |alpha| <= max_alpha,
    |beta| <= max_beta and alpha + beta != 0 the candidate

        ( sup_x |x^alpha d^beta u| / ((alpha!)^lam (beta!)^mu) )^(1/(|alpha|+|beta|))

    is computed in log space; the estimate is their maximum, recorded
    cumulatively per total order so stabilization can be judged.  Inputs
    without Gaussian decay (constants, e^{+z^2}) are reported as unbounded
    with a_est = inf.
    """
    if not (0.0 < lam < math.inf and 0.0 < mu < math.inf):
        raise ValueError("lambda and mu must be positive and finite, got "
                         f"{lam} and {mu}")
    if min(max_alpha, max_beta) < 0:
        raise ValueError(f"max_alpha and max_beta must be >= 0, got "
                         f"{max_alpha} and {max_beta}")
    if max(max_alpha, max_beta) > MAX_PROBE_ORDER:
        raise ValueError(f"probe orders are capped at {MAX_PROBE_ORDER}")
    if max_alpha + max_beta < 1:
        raise ValueError("need at least one nonzero probe order")
    if not u.has_gaussian_decay():
        if u.is_zero():
            return GSEstimate(lam, mu, 0.0, max_alpha, max_beta)
        return GSEstimate(lam, mu, math.inf, max_alpha, max_beta,
                          unbounded=True)
    if points_per_axis <= 0:
        points_per_axis = 4097 if u.dim == 1 else (257 if u.dim == 2 else 49)

    axes = _sup_axes(u, max_alpha + max_beta, points_per_axis)
    # |x_j|^a for a = 0..max_alpha, one row per power
    coord_pows = [[np.abs(ax) ** a for a in range(max_alpha + 1)]
                  for ax in axes]
    alphas = [(alpha, sum(alpha),
               lam * sum(math.lgamma(a + 1) for a in alpha))
              for alpha in _multi_indices(u.dim, max_alpha)]

    betas = list(_multi_indices(u.dim, max_beta))
    best_by_total: dict[int, float] = {}
    for beta, d_beta in zip(betas, sum_derivatives(u, betas, axes)):
        sups = _weighted_sups(np.abs(d_beta), coord_pows)
        mu_beta = mu * sum(math.lgamma(b + 1) for b in beta)
        for alpha, order, lam_alpha in alphas:
            total = order + sum(beta)
            if total == 0:
                continue
            sup = float(sups[alpha])
            if sup == 0.0:
                continue
            cand = (math.log(sup) - lam_alpha - mu_beta) / total
            if cand > best_by_total.get(total, -math.inf):
                best_by_total[total] = cand

    running = -math.inf
    cumulative = []
    for total in range(1, max_alpha + max_beta + 1):
        running = max(running, best_by_total.get(total, -math.inf))
        cumulative.append(math.exp(running))
    return GSEstimate(lam, mu, math.exp(running), max_alpha, max_beta,
                      tuple(cumulative))


# ---------------------------------------------------------------------------
# holomorphic extension bound
# ---------------------------------------------------------------------------

class HoloBoundResult(NamedTuple):
    k_est: float
    ok: bool
    k_inner: float


def holo_bound_check(u: AnalyticGaussianSum, w: WeightParams,
                     x_extent: float, y_extent: float) -> HoloBoundResult:
    """Empirical constant in  e^{phi(x)} |u(x+iy)| <= K e^{psi(y)}.

    K_est is the grid maximum of the log-evaluated ratio over the rectangle
    |x_j| <= x_extent, |y_j| <= y_extent, sampled with 201 points per axis
    in dimension one and 33 otherwise.  ``ok`` demands that K_est is
    finite and that growing the rectangle from the inner one, scaled by
    0.7, changed it by a factor of at most e^{0.10}; blow-up along either
    axis (non-members like e^{+z^2}) fails the stability test.
    """
    points_per_axis = 201 if u.dim == 1 else 33
    k_outer = _holo_rect_max(u, w, x_extent, y_extent, points_per_axis)
    k_inner = _holo_rect_max(u, w, 0.7 * x_extent, 0.7 * y_extent,
                             points_per_axis)
    ok = bool(np.isfinite(k_outer)
              and k_outer <= math.exp(0.10) * k_inner)
    return HoloBoundResult(float(k_outer), ok, float(k_inner))


def _holo_rect_max(u: AnalyticGaussianSum, w: WeightParams,
                   x_extent: float, y_extent: float, n: int) -> float:
    xs = np.linspace(-x_extent, x_extent, n)
    ys = np.linspace(-y_extent, y_extent, n)
    axes = [xs] * u.dim + [ys] * u.dim
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    coords = [mesh[j] + 1j * mesh[u.dim + j] for j in range(u.dim)]
    log_u = u.log_abs(*coords)
    # one axis at a time: the sparse mesh axes do not stack into one array
    phi = sum(phi_weight(mesh[j][None], w) for j in range(u.dim))
    psi = sum(psi_weight(mesh[u.dim + j][None], w) for j in range(u.dim))
    log_ratio = phi + log_u - psi
    peak = float(np.max(log_ratio))
    if peak > _EXP_GUARD:
        return math.inf
    return math.exp(peak)


# ---------------------------------------------------------------------------
# E-space membership integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ESpaceReport:
    value: float
    divergent: bool
    strip_halfwidth: float
    moment: int


def e_space_divergent(u: AnalyticGaussianSum) -> bool:
    """True when the strip integrand grows: some axis width >= 2 pi or <= 0."""
    if u.is_zero():
        return False
    for term in u.terms:
        for f in term:
            if f.width >= TWO_PI or f.width <= 0.0:
                return True
    return False


def strip_rule(strip_halfwidth: float,
               nodes: int) -> tuple[float, float, np.ndarray]:
    """Trapezoid rule of ``nodes`` nodes over the strip |y| <= strip_halfwidth,
    for an integrand whose values at -y and y are conjugate (or of equal
    modulus), on its nodes y >= 0: first node, step and weights, with node
    j at start + j step.  The start is 0 for an odd count and step/2 for an
    even one, so the mirror of every node is exact; each weight counts its
    node and its mirror -y, except the y = 0 node of an odd rule, which
    counts once."""
    if nodes < 4:
        raise ValueError("need at least 4 y nodes")
    if not (math.isfinite(strip_halfwidth) and strip_halfwidth > 0.0):
        raise ValueError("strip half-width must be finite and positive, "
                         f"got {strip_halfwidth}")
    step = 2.0 * strip_halfwidth / (nodes - 1)
    weights = np.full((nodes + 1) // 2, 2.0 * step)
    weights[-1] = step      # the ends +-strip_halfwidth
    if nodes % 2:
        weights[0] = step   # y = 0
    return (0.0 if nodes % 2 else 0.5 * step), step, weights


def _factor_sum(slabs):
    """The per-factor slabs added up (one factor's slab as it is)."""
    return slabs[0] if len(slabs) == 1 else slabs.sum(axis=0)


def strip_sum(factors, xs, start, step, weights, rows=_factor_sum):
    """sum_k weights[k] rows(S)[k] for the per-factor slabs
    S[f, k] = f(xs + i y_k) e^{-2 pi y_k^2} over the strip nodes
    y_k = start + k step; the default ``rows`` sums the factors.

    For a factor c (z - b)^p e^{-a (z - b)^2} and w = x - b,

        f(x + iy) e^{-2 pi y^2}
            = c (w + iy)^p e^{-a w^2} e^{(a - 2 pi) y^2} e^{-2 i a w y},

    and only the last factor is grid sized.  The nodes go in blocks of
    R = ceil(sqrt(K)) rows; block m's phases are the coarse row
    e^{-2 i a w (start + R m step)}, which carries c e^{-a w^2}, times the
    R x N fine table e^{-2 i a w r step}, both from ``core.phase_table``,
    and the block adds in as one weights @ rows(slabs) product (rows'
    result is indexed by node first).  For the callers' widths
    0 < a < 2 pi no real exponent is positive, so only the coefficient
    and the power can overflow.
    """
    count = len(weights)
    block = math.isqrt(count - 1) + 1
    ys = start + step * np.arange(count)
    # every block reuses these buffers: fresh ones fault their pages in
    # again per block, which cost more than the arithmetic
    slabs = np.empty((len(factors), block, len(xs)), dtype=complex)
    z = np.empty_like(slabs[0])
    total = 0.0
    # an overflow shows as Inf/NaN in the returned sum, not as a warning:
    # ``heat.strip_factors`` raises on it, ``e_space_norm`` returns it
    with np.errstate(over="ignore", invalid="ignore"):
        tables = []
        for f in factors:
            w = xs - f.center
            scale = -2.0 * f.width
            coarse = phase_table(w, scale, start, block * step,
                                 -(-count // block))
            coarse *= f.coeff * np.exp(-f.width * w * w)
            tables.append((f.power, w,
                           np.exp((f.width - TWO_PI) * ys * ys)[:, None],
                           phase_table(w, scale, 0.0, step, block), coarse))
        for m, lo in enumerate(range(0, count, block)):
            n = min(block, count - lo)
            for i, (power, w, damp, fine, coarse) in enumerate(tables):
                vals = slabs[i, :n]
                np.multiply(fine[:n], coarse[m], out=vals)
                real = vals.view(float)  # real damping: scale (re, im)
                real *= damp[lo:lo + n]
                if power:
                    z[:n].real, z[:n].imag = w, ys[lo:lo + n, None]
                    for _ in range(power):      # faster than ** for small p
                        vals *= z[:n]
            total = total + weights[lo:lo + n] @ rows(slabs[:, :n])
    return total


def e_space_norm(u: AnalyticGaussianSum, moment: int = 0,
                 strip_halfwidth: float = 3.0) -> ESpaceReport:
    """Truncated-strip quadrature of  int e^{-2 pi |Im z|^2} (1+|Re z|)^m |u|.

    Trapezoid rules with 129 y nodes over the strip, summed on the 65 nodes
    y >= 0 of ``strip_rule`` by ``strip_sum`` in blocks of 9 nodes, and
    2049 x nodes per axis over the tail-safe ``_axis_extent``.  Centres
    and widths are real, so |u(x - iy)| = |ubar(x + iy)|, ubar being u
    with conjugated coefficients.  One factor's modulus is thus even in y
    (a single term, or dim > 1, where each strip sum holds one factor), and
    so is a real sum's; a 1-d sum of two or more terms with a complex
    coefficient takes the mean of |u| and |ubar| from one set of phase
    tables.

    The y integrand of a width-a factor scales like e^{(a - 2 pi) y^2}, so
    widths a >= 2 pi (or a <= 0, which already breaks the x integral) are
    reported as divergent with value = inf rather than integrated.  In
    dimension one the integral is computed directly; in higher dimension
    the returned value is the term-wise product bound
    sum_t prod_j int (1+|x_j|)^m |factor_{t,j}(x_j + i y_j)| e^{-2 pi y_j^2},
    which dominates the defining integral because
    1 + |Re z| <= prod_j (1 + |x_j|).
    """
    if not 0 <= moment <= 16:
        raise ValueError(f"moment must lie in [0, 16], got {moment}")
    start, step, wy = strip_rule(strip_halfwidth, 129)
    if e_space_divergent(u):
        return ESpaceReport(math.inf, True, strip_halfwidth, moment)
    if u.is_zero():     # ``strip_sum`` needs at least one factor
        return ESpaceReport(0.0, False, strip_halfwidth, moment)

    def axis_integral(factors, j,
                      modulus=lambda slabs: np.abs(_factor_sum(slabs))):
        """Strip integral over axis j of the factors' modulus, weighted."""
        ext = _axis_extent(u, j, moment)
        xs = np.linspace(-ext, ext, 2049)
        weight = (1.0 + np.abs(xs)) ** moment
        return strip_sum(factors, xs, start, step, wy * (xs[1] - xs[0]),
                         lambda slabs: np.sum(modulus(slabs) * weight, axis=1))

    if u.dim > 1:
        total = sum(math.prod(axis_integral([f], j)
                              for j, f in enumerate(term))
                    for term in u.terms)
    elif len(u.terms) == 1 or u.has_real_coefficients():
        total = axis_integral([term[0] for term in u.terms], 0)
    else:
        # the factors at unit coefficient, combined with c and conj c
        factors = [term[0] for term in u.terms]
        c = np.array([complex(f.coeff) for f in factors])
        units = [GaussFactor(1.0, f.power, f.width, f.center)
                 for f in factors]
        total = axis_integral(units, 0, lambda slabs: 0.5 * (
            np.abs(np.tensordot(c, slabs, 1))
            + np.abs(np.tensordot(c.conj(), slabs, 1))))
    return ESpaceReport(float(total), False, strip_halfwidth, moment)


# ---------------------------------------------------------------------------
# derivative-of-Gaussian bound (Hermite recurrence)
# ---------------------------------------------------------------------------

# node spacing t_k = k h of the shared Hermite grid: the finest spacing of
# the former per-order grids (16385 nodes on [0, 5], order zero)
_HERMITE_STEP = 5.0 / 16384
# orders up to this one are read from a small table of their own, so a lone
# low-order call (a process's first check, say m = 0) costs milliseconds,
# not the full pass to MAX_HERMITE_ORDER
_HERMITE_LOW_TOP = 8


@functools.cache
def _hermite_table(top: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Sups and squared L2 norms of g_m = f_m / sqrt(m!), m = 0..top.

    One pass of ``gaussians.scaled_hermite_orders`` runs over the shared
    grid t_k = k h.  Order m reads sup |g_m| over 0 <= t <= sqrt(2m) + 5
    (|g_m| is even) and the trapezoid value of
    int g_m^2 over |t| <= sqrt(2m) + 8, the nodes inside each domain.  The
    recurrence is pointwise in t and each order reduces its own prefix of
    nodes, so an order's entries do not depend on ``top``.  Only the two
    tuples are cached, never the recurrence arrays.
    """
    h = _HERMITE_STEP
    t = np.arange(int((math.sqrt(2.0 * top) + 8.0) / h) + 1) * h
    work = np.empty_like(t)
    sups, sq_norms = [], []
    for m, g in enumerate(scaled_hermite_orders(top, t, work)):
        head = g[:int((math.sqrt(2.0 * m) + 5.0) / h) + 1]
        sups.append(max(float(head.max()), float(-head.min())))
        # trapezoid on nodes -K..K from the half-line nodes 0..K
        n_l2 = int((math.sqrt(2.0 * m) + 8.0) / h) + 1
        sq = np.square(g[:n_l2], out=work[:n_l2])
        sq_norms.append(h * (2.0 * float(sq.sum()) - float(sq[0])
                             - float(sq[-1])))
    return tuple(sups), tuple(sq_norms)


def _hermite_entry(m: int) -> tuple[float, float]:
    """(sup |g_m|, ||g_m||^2) from the low-order or the full table."""
    if m < 0 or m > MAX_HERMITE_ORDER:
        raise ValueError(f"order must lie in [0, {MAX_HERMITE_ORDER}]")
    sups, sq_norms = _hermite_table(
        _HERMITE_LOW_TOP if m <= _HERMITE_LOW_TOP else MAX_HERMITE_ORDER)
    return sups[m], sq_norms[m]


def hermite_sup(m: int) -> float:
    """sup_x |d^m/dx^m e^{-x^2/2}| over the real line, on the shared grid."""
    return _hermite_entry(m)[0] * math.exp(0.5 * math.lgamma(m + 1))


def hermite_bound_margin(m: int) -> float:
    """Ratio bound/sup for sqrt(2) (2 pi)^{1/4} sqrt(m!) (m+1)^{1/4}; >= 1 expected."""
    log_bound_scaled = (0.5 * math.log(2.0) + 0.25 * math.log(TWO_PI)
                        + 0.25 * math.log(m + 1.0))
    return math.exp(log_bound_scaled - math.log(_hermite_entry(m)[0]))


def hermite_l2_log_margin(m: int) -> float:
    """log( sqrt(2 pi) m! ) - log ||d^m e^{-x^2/2}||_{L2}^2; >= 0 expected.

    The squared norm is the trapezoid value on the shared grid of
    ``_hermite_table``; orders are capped at MAX_HERMITE_ORDER.
    """
    return 0.5 * math.log(TWO_PI) - math.log(_hermite_entry(m)[1])


# ---------------------------------------------------------------------------
# Gevrey order fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GevreyFit:
    s_est: float
    c_est: float
    k_est: float
    fit_residual: float
    degenerate: bool = False


def gevrey_order_estimate(u: AnalyticGaussianSum, m_max: int = 40,
                          axis: int = 0) -> GevreyFit:
    """Least-squares Gevrey order of u along one axis.

    Fits log sup|d^m u| = log K + m log C + s log(m!) over m = 2..m_max
    (the first two orders are excluded to avoid constant-term bias;
    log-factorials via lgamma).  The fit residual is the RMS log residual
    relative to the RMS spread of the data, so it is scale-free.  Sups
    are taken over 4097 nodes in dimension one and 129 per axis otherwise.
    Inputs without Gaussian decay degenerate (their derivative sups are
    not factorially controlled) and are flagged instead of fitted.
    """
    if m_max > 60:
        raise ValueError("m_max is capped at 60")
    if m_max < 6:
        raise ValueError("need m_max >= 6 for a meaningful fit")
    if not 0 <= axis < u.dim:
        raise ValueError(f"axis must lie in [0, {u.dim}), got {axis}")
    if not u.has_gaussian_decay() or u.is_zero():
        return GevreyFit(math.nan, math.nan, math.nan, math.nan,
                         degenerate=True)
    axes = _sup_axes(u, m_max, 4097 if u.dim == 1 else 129)
    unit = [0] * u.dim
    unit[axis] = 1
    order_list = [[m * e for e in unit] for m in range(2, m_max + 1)]
    sups = []
    for vals in sum_derivatives(u, order_list, axes):
        sup = float(np.max(np.abs(vals)))
        if sup == 0.0:
            return GevreyFit(math.nan, math.nan, math.nan, math.nan,
                             degenerate=True)
        sups.append(sup)

    ms = np.arange(2, m_max + 1, dtype=float)
    y = np.log(np.asarray(sups))
    design = np.column_stack([np.ones_like(ms), ms,
                              np.vectorize(math.lgamma)(ms + 1.0)])
    coefs, *_ = np.linalg.lstsq(design, y, rcond=None)
    log_k, log_c, s_est = coefs
    resid = design @ coefs - y
    spread = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
    rel_resid = float(np.sqrt(np.mean(resid**2))) / spread if spread else 0.0
    return GevreyFit(float(s_est), float(math.exp(log_c)),
                     float(math.exp(log_k)), rel_resid)
