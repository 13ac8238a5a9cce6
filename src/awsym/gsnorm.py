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
* ``gevrey_order_estimate`` -- least-squares Gevrey order of derivative sups.

All factorial and sup arithmetic runs in log space; sup norms are taken
over grids that provably contain every stationary point of the probed
Gaussian sums, with the boundary value checked against the interior
maximum as the tail guard.

Membership is always reported as an estimate over finite ranges together
with a stabilization diagnostic; nothing here claims a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .gaussians import (AnalyticGaussianSum, gaussian_derivative_values,
                        sum_derivative_values)

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
    deviations are added on top so the grid max is the global sup.
    """
    r = 1.0
    for term in u.terms:
        f = term[axis]
        if f.width <= 0.0:
            continue
        load = f.power + extra_order + 1
        r = max(r, abs(f.center) + math.sqrt(load / (2.0 * f.width))
                + 8.0 / math.sqrt(2.0 * f.width))
    return r


def _sup_axes(u: AnalyticGaussianSum, extra_order: int,
              points_per_axis: int) -> list[np.ndarray]:
    return [np.linspace(-_axis_extent(u, j, extra_order),
                        _axis_extent(u, j, extra_order), points_per_axis)
            for j in range(u.dim)]


def _multi_indices(dim: int, max_total: int):
    if dim == 1:
        for k in range(max_total + 1):
            yield (k,)
        return
    def rec(prefix, remaining, axes_left):
        if axes_left == 1:
            for k in range(remaining + 1):
                yield prefix + (k,)
            return
        for k in range(remaining + 1):
            yield from rec(prefix + (k,), remaining - k, axes_left - 1)
    yield from rec((), max_total, dim)


@dataclass
class GSEstimate:
    """Empirical Gelfand-Shilov data for one (lambda, mu) pair."""

    lam: float
    mu: float
    a_est: float
    max_alpha: int
    max_beta: int
    a_by_total_order: tuple[float, ...] = field(default_factory=tuple)
    k_est: Optional[float] = None
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
    if lam <= 0 or mu <= 0:
        raise ValueError("lambda and mu must be positive")
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
    coord_pows = {}

    best_by_total: dict[int, float] = {}
    for beta in _multi_indices(u.dim, max_beta):
        dvals = sum_derivative_values(u, beta, axes)
        absd = np.abs(dvals)
        for alpha in _multi_indices(u.dim, max_alpha):
            total = sum(alpha) + sum(beta)
            if total == 0:
                continue
            weighted = absd
            for j, aj in enumerate(alpha):
                if aj:
                    key = (j, aj)
                    if key not in coord_pows:
                        shape = [1] * u.dim
                        shape[j] = -1
                        coord_pows[key] = (np.abs(axes[j]) ** aj).reshape(shape)
                    weighted = weighted * coord_pows[key]
            sup = float(np.max(weighted))
            if sup == 0.0:
                continue
            log_ratio = (math.log(sup)
                         - lam * sum(math.lgamma(a + 1) for a in alpha)
                         - mu * sum(math.lgamma(b + 1) for b in beta))
            cand = log_ratio / total
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
                     x_extent: float, y_extent: float,
                     points_per_axis: int = 0,
                     shrink: float = 0.7,
                     rtol: float = 0.10) -> HoloBoundResult:
    """Empirical constant in  e^{phi(x)} |u(x+iy)| <= K e^{psi(y)}.

    K_est is the grid maximum of the log-evaluated ratio over the rectangle
    |x_j| <= x_extent, |y_j| <= y_extent.  ``ok`` demands that K_est is
    finite and that growing the rectangle from the ``shrink``-scaled inner
    one changed it by at most ``rtol``; blow-up along either axis
    (non-members like e^{+z^2}) fails the stability test.
    """
    if points_per_axis <= 0:
        points_per_axis = 201 if u.dim == 1 else 33
    k_outer = _holo_rect_max(u, w, x_extent, y_extent, points_per_axis)
    k_inner = _holo_rect_max(u, w, shrink * x_extent, shrink * y_extent,
                             points_per_axis)
    ok = bool(np.isfinite(k_outer)
              and k_outer <= math.exp(rtol) * k_inner)
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
    if peak > 700.0:
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


def e_space_norm(u: AnalyticGaussianSum, moment: int = 0,
                 strip_halfwidth: float = 3.0,
                 x_points: int = 2049, y_points: int = 129,
                 x_extent: Optional[float] = None) -> ESpaceReport:
    """Truncated-strip quadrature of  int e^{-2 pi |Im z|^2} (1+|Re z|)^m |u|.

    The y integrand of a width-a factor scales like e^{(a - 2 pi) y^2}, so
    widths a >= 2 pi (or a <= 0, which already breaks the x integral) are
    reported as divergent with value = inf rather than integrated.  In
    dimension one the integral is computed directly; in higher dimension
    the returned value is the term-wise product bound
    sum_t prod_j int (1+|x_j|)^m |factor_{t,j}(x_j + i y_j)| e^{-2 pi y_j^2},
    which dominates the defining integral because
    1 + |Re z| <= prod_j (1 + |x_j|).
    """
    if moment > 16:
        raise ValueError("moment weight is capped at m = 16")
    if e_space_divergent(u):
        return ESpaceReport(math.inf, True, strip_halfwidth, moment)
    ys = np.linspace(-strip_halfwidth, strip_halfwidth, y_points)
    wy = np.full(y_points, ys[1] - ys[0])
    wy[0] *= 0.5
    wy[-1] *= 0.5

    if u.dim == 1:
        ext = x_extent or _axis_extent(u, 0, moment)
        xs = np.linspace(-ext, ext, x_points)
        hx = xs[1] - xs[0]
        weight = (1.0 + np.abs(xs)) ** moment
        total = 0.0
        for y, wyk in zip(ys, wy):
            vals = np.zeros(x_points, dtype=complex)
            for term in u.terms:
                vals += term[0].shifted_values(xs, y, -TWO_PI * y * y)
            total += wyk * hx * float(np.sum(np.abs(vals) * weight))
        return ESpaceReport(total, False, strip_halfwidth, moment)

    total = 0.0
    for term in u.terms:
        prod = 1.0
        for j, f in enumerate(term):
            ext = x_extent or _axis_extent(u, j, moment)
            xs = np.linspace(-ext, ext, x_points)
            hx = xs[1] - xs[0]
            weight = (1.0 + np.abs(xs)) ** moment
            axis_int = 0.0
            for y, wyk in zip(ys, wy):
                vals = f.shifted_values(xs, y, -TWO_PI * y * y)
                axis_int += wyk * hx * float(np.sum(np.abs(vals) * weight))
            prod *= axis_int
        total += prod
    return ESpaceReport(total, False, strip_halfwidth, moment)


# ---------------------------------------------------------------------------
# derivative-of-Gaussian bound (Hermite recurrence)
# ---------------------------------------------------------------------------

def _hermite_scaled_sup(m: int, points: int = 16385) -> float:
    """sup_t |d^m/dt^m e^{-t^2/2}| / sqrt(m!), via the stable recurrence."""
    if m < 0 or m > MAX_HERMITE_ORDER:
        raise ValueError(f"order must lie in [0, {MAX_HERMITE_ORDER}]")
    reach = math.sqrt(2.0 * m) + 5.0
    t = np.linspace(0.0, reach, points)   # |f_m| is even
    g = gaussian_derivative_values(m, t, keep=1)[0]
    return float(np.max(np.abs(g))) * math.exp(-0.5 * math.lgamma(m + 1))


def hermite_sup(m: int) -> float:
    """sup_x |d^m/dx^m e^{-x^2/2}| over the real line (dense grid + tails)."""
    return _hermite_scaled_sup(m) * math.exp(0.5 * math.lgamma(m + 1))


def hermite_bound_margin(m: int) -> float:
    """Ratio bound/sup for sqrt(2) (2 pi)^{1/4} sqrt(m!) (m+1)^{1/4}; >= 1 expected."""
    log_bound_scaled = (0.5 * math.log(2.0) + 0.25 * math.log(TWO_PI)
                        + 0.25 * math.log(m + 1.0))
    return math.exp(log_bound_scaled - math.log(_hermite_scaled_sup(m)))


def hermite_l2_log_margin(m: int, points: int = 16385) -> float:
    """log( sqrt(2 pi) m! ) - log ||d^m e^{-x^2/2}||_{L2}^2; >= 0 expected."""
    reach = math.sqrt(2.0 * m) + 8.0
    t = np.linspace(-reach, reach, points)
    g = gaussian_derivative_values(m, t, keep=1)[0]
    scaled_sq = g * g * math.exp(-math.lgamma(m + 1))   # |f_m|^2 / m!
    integral = float(np.trapezoid(scaled_sq, t))
    return 0.5 * math.log(TWO_PI) - math.log(integral)


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
                          axis: int = 0,
                          points_per_axis: int = 0) -> GevreyFit:
    """Least-squares Gevrey order of u along one axis.

    Fits log sup|d^m u| = log K + m log C + s log(m!) over m = 2..m_max
    (the first two orders are excluded to avoid constant-term bias;
    log-factorials via lgamma).  The fit residual is the RMS log residual
    relative to the RMS spread of the data, so it is scale-free.
    Inputs without Gaussian decay degenerate (their derivative sups are
    not factorially controlled) and are flagged instead of fitted.
    """
    if m_max > 60:
        raise ValueError("m_max is capped at 60")
    if m_max < 6:
        raise ValueError("need m_max >= 6 for a meaningful fit")
    if not u.has_gaussian_decay() or u.is_zero():
        return GevreyFit(math.nan, math.nan, math.nan, math.nan,
                         degenerate=True)
    if points_per_axis <= 0:
        points_per_axis = 4097 if u.dim == 1 else 129

    axes = _sup_axes(u, m_max, points_per_axis)
    sups = []
    for m in range(2, m_max + 1):
        orders = [0] * u.dim
        orders[axis] = m
        vals = sum_derivative_values(u, orders, axes)
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
