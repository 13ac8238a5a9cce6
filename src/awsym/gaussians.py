"""Exact Gaussian-sum functions.

An :class:`AnalyticGaussianSum` is a finite sum of tensor products of
one-variable factors

    c * (z - b)**p * exp(-a * (z - b)**2)

with complex coefficient ``c``, integer power ``p >= 0``, width ``a`` and
real center ``b``.  For ``a > 0`` every term is an entire function of each
variable with Gaussian decay on horizontal strips, so the type can carry
both test functions on the real grid and their holomorphic extensions
u(x + iy).

The class is closed under the operations the rest of the package needs:

* differentiation along an axis,
* the heat smoothing used by :mod:`awsym.heat` (in closed form),

which is what makes independent oracles possible: high derivatives are
evaluated through a stable recurrence rather than by expanding enormous
polynomials.

Widths ``a <= 0`` are representable (the regularity diagnostics need
non-members such as constants or e^{+z^2} as counterexamples) but every
operation whose mathematics requires Gaussian decay checks
:meth:`AnalyticGaussianSum.has_gaussian_decay` first and refuses to run
otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "GaussFactor",
    "AnalyticGaussianSum",
    "gaussian_1d",
    "radial_gaussian",
    "tensor",
    "gaussian_derivative_values",
]

# Real part of an exponent beyond which exp() is treated as an overflow.
_EXP_GUARD = 700.0


class OverflowGuardError(FloatingPointError):
    """Raised when a strip evaluation would overflow double precision."""


def _outer_sum(terms, shape) -> np.ndarray:
    """sum_t (x)_a terms[t][a], the outer products of each term's 1-d
    factors, as a new complex array of ``shape``.  The first term's outer
    product is the output itself, so no zero-filled grid is written first
    (its signed zeros stay as the products give them)."""
    total = None
    for factors in terms:
        term = reduce(np.multiply.outer, factors[1:],
                      np.array(factors[0], dtype=complex))
        if total is None:
            total = term
        else:
            total += term
    return np.zeros(shape, dtype=complex) if total is None else total


@dataclass(frozen=True)
class GaussFactor:
    """One axis factor  c * (z - b)**p * exp(-a * (z - b)**2)."""

    coeff: complex
    power: int
    width: float
    center: float

    def __post_init__(self):
        if self.power < 0:
            raise ValueError("power must be a nonnegative integer")

    def __call__(self, z):
        w = np.asarray(z, dtype=complex) - self.center
        return self.coeff * w**self.power * np.exp(-self.width * w * w)

    def shifted_values(self, x, y, log_weight=0.0):
        """Evaluate at x + iy with an extra exp(log_weight) damping factor.

        The weight is folded into the exponent before exponentiating, so
        expressions like u(x + iy) * exp(-2*pi*y**2) never materialize the
        raw e^{a y^2} growth.  ``y`` and ``log_weight`` may be arrays that
        broadcast against ``x``; the overflow guard covers every entry and
        names the shift of the worst one.  The closed-form pairing calls
        it; the strip sums of ``gsnorm.strip_sum`` do not, so the per-node
        test oracles that call it are independent of them.
        """
        w = np.asarray(x, dtype=float) - self.center + 1j * y
        expo = -self.width * w * w + log_weight
        peak = float(np.max(expo.real)) if expo.size else 0.0
        if peak > _EXP_GUARD:
            at = np.unravel_index(np.argmax(expo.real), expo.shape)
            shift = np.broadcast_to(y, expo.shape)[at]
            weight = np.broadcast_to(log_weight, expo.shape)[at]
            raise OverflowGuardError(
                f"strip evaluation overflows: max exponent {peak:.1f} "
                f"(width={self.width}, shift={shift}, log_weight={weight:.1f})"
            )
        # Named, so numpy cannot elide coeff * w**power into an in-place
        # product with its operands swapped (it does so from 256 KiB on,
        # and a complex product is not bit-symmetric in its operands):
        # every array size, batched or not, rounds the same way.
        poly = w**self.power
        return self.coeff * poly * np.exp(expo)

    def derivative(self) -> tuple["GaussFactor", ...]:
        """d/dz of the factor, as a sum of factors with the same (a, b)."""
        out = [GaussFactor(-2.0 * self.width * self.coeff, self.power + 1,
                           self.width, self.center)]
        if self.power >= 1:
            out.append(GaussFactor(self.coeff * self.power, self.power - 1,
                                   self.width, self.center))
        return tuple(out)

    def smoothed(self) -> tuple["GaussFactor", ...]:
        """One-axis heat smoothing sqrt(2) * (factor ∗ exp(-2 pi .^2)).

        Closed form: completing the square in the convolution integral
        maps (z-b)^p e^{-a (z-b)^2} to a polynomial of the same parity
        times a Gaussian of width a' = 2 pi a / (a + 2 pi).
        """
        if self.width <= 0.0:
            raise ValueError("heat smoothing needs Gaussian decay (width > 0)")
        a = self.width
        big = a + 2.0 * math.pi
        anew = 2.0 * math.pi * a / big
        gauss_mass = math.sqrt(math.pi / big)
        ratio = 2.0 * math.pi / big
        out = []
        for j in range(self.power // 2 + 1):
            moment = _double_factorial(2 * j - 1) / (2.0 * big) ** j
            c = (self.coeff * math.sqrt(2.0) * math.comb(self.power, 2 * j)
                 * gauss_mass * moment * ratio ** (self.power - 2 * j))
            out.append(GaussFactor(c, self.power - 2 * j, anew, self.center))
        return tuple(out)


def _double_factorial(n: int) -> float:
    if n <= 0:
        return 1.0
    return float(math.prod(range(n, 0, -2)))


@dataclass(frozen=True)
class AnalyticGaussianSum:
    """Finite sum of tensor products of :class:`GaussFactor` axis factors.

    ``terms[k][j]`` is the axis-``j`` factor of the k-th product term; the
    function value is the sum over ``k`` of the product over ``j``.
    """

    dim: int
    terms: tuple[tuple[GaussFactor, ...], ...]

    def __post_init__(self):
        for term in self.terms:
            if len(term) != self.dim:
                raise ValueError(
                    f"every product term needs {self.dim} axis factors")

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "AnalyticGaussianSum") -> "AnalyticGaussianSum":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return AnalyticGaussianSum(self.dim, self.terms + other.terms).merged()

    def __sub__(self, other: "AnalyticGaussianSum") -> "AnalyticGaussianSum":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "AnalyticGaussianSum":
        scalar = complex(scalar)
        return AnalyticGaussianSum(self.dim, tuple(
            (GaussFactor(t[0].coeff * scalar, t[0].power, t[0].width,
                         t[0].center),) + t[1:]
            for t in self.terms))

    __rmul__ = __mul__

    def merged(self) -> "AnalyticGaussianSum":
        """Collapse product terms that share all (power, width, center) keys."""
        acc: dict[tuple, complex] = {}
        for term in self.terms:
            key = tuple((f.power, f.width, f.center) for f in term)
            c = reduce(lambda x, f: x * f.coeff, term, complex(1.0))
            acc[key] = acc[key] + c if key in acc else c
        new_terms = []
        for key, c in acc.items():
            if c == 0:
                continue
            factors = [GaussFactor(1.0, p, a, b) for (p, a, b) in key]
            factors[0] = GaussFactor(c, *key[0])
            new_terms.append(tuple(factors))
        if not new_terms:
            # keep a single explicit zero term so the dimension survives
            zero = tuple(GaussFactor(0.0, 0, 1.0, 0.0) for _ in range(self.dim))
            new_terms = [zero]
        return AnalyticGaussianSum(self.dim, tuple(new_terms))

    # -- calculus ---------------------------------------------------------

    def derivative(self, axis: int = 0) -> "AnalyticGaussianSum":
        if not 0 <= axis < self.dim:
            raise ValueError("axis out of range")
        new_terms = []
        for term in self.terms:
            for piece in term[axis].derivative():
                new_terms.append(term[:axis] + (piece,) + term[axis + 1:])
        return AnalyticGaussianSum(self.dim, tuple(new_terms)).merged()

    def smoothed(self) -> "AnalyticGaussianSum":
        """Heat smoothing 2^{d/2} (self ∗ exp(-2 pi |.|^2)), in closed form."""
        new_terms = tuple(
            piece for term in self.terms
            for piece in itertools.product(*(f.smoothed() for f in term)))
        return AnalyticGaussianSum(self.dim, new_terms).merged()

    # -- evaluation -------------------------------------------------------

    def __call__(self, *coords):
        """Evaluate at points; one (broadcastable) array per axis."""
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinate arrays")
        total = None
        for term in self.terms:
            vals = reduce(lambda acc, fz: acc * fz[0](fz[1]),
                          zip(term, coords), 1.0)
            total = vals if total is None else total + vals
        return total

    def eval_axes(self, axes: Sequence[np.ndarray]):
        """Evaluate on a tensor grid given 1-d node arrays per axis.

        Returns an ndarray of shape ``tuple(len(ax) for ax in axes)``.
        """
        if len(axes) != self.dim:
            raise ValueError("axis count mismatch")
        return _outer_sum([[f(ax) for f, ax in zip(term, axes)]
                           for term in self.terms],
                          tuple(len(ax) for ax in axes))

    # -- structure queries --------------------------------------------------

    def has_gaussian_decay(self) -> bool:
        return all(f.width > 0.0 for t in self.terms for f in t)

    def require_gaussian_decay(self, who: str = "operation") -> None:
        if not self.has_gaussian_decay():
            raise ValueError(
                f"{who} requires Gaussian decay on every axis factor "
                "(all widths > 0)")

    def is_zero(self) -> bool:
        return all(
            reduce(lambda x, f: x * f.coeff, t, complex(1.0)) == 0
            for t in self.terms)

    def log_abs(self, *coords):
        """log |u| at real or complex points, overflow-safe.

        Uses a running max-exponent rescale over the product terms, so
        values like e^{x^2} on large boxes do not overflow before taking
        the logarithm.  The zero function (no terms) is -inf everywhere.
        """
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinate arrays")
        coords = [np.asarray(c, dtype=complex) for c in coords]
        shape = np.broadcast_shapes(*(c.shape for c in coords))
        if not self.terms:
            return np.full(shape, -np.inf)
        exps = []
        prefs = []
        for term in self.terms:
            expo = np.zeros(shape, dtype=complex)
            pref = np.ones(shape, dtype=complex)
            for f, z in zip(term, coords):
                w = z - f.center
                expo = expo - f.width * w * w
                pref = pref * w**f.power
            pref = pref * reduce(lambda x, f: x * f.coeff, term, complex(1.0))
            exps.append(expo)
            prefs.append(pref)
        re = np.stack([e.real for e in exps])
        peak = re.max(axis=0)
        acc = np.zeros(shape, dtype=complex)
        for expo, pref in zip(exps, prefs):
            acc += pref * np.exp(expo - peak)
        with np.errstate(divide="ignore"):
            return peak + np.log(np.abs(acc))


# -- constructors -----------------------------------------------------------

def gaussian_1d(width: float, center: float = 0.0, power: int = 0,
                coeff=1.0) -> AnalyticGaussianSum:
    """c (z-b)^p e^{-a (z-b)^2} as a one-dimensional sum."""
    return AnalyticGaussianSum(
        1, ((GaussFactor(complex(coeff), power, float(width), float(center)),),))


def radial_gaussian(dim: int, width: float, coeff=1.0) -> AnalyticGaussianSum:
    """c * exp(-a |z|^2) on R^dim as a single product term."""
    factors = tuple(GaussFactor(1.0, 0, float(width), 0.0) for _ in range(dim))
    factors = (GaussFactor(complex(coeff), 0, float(width), 0.0),) + factors[1:]
    return AnalyticGaussianSum(dim, (factors,))


def tensor(*sums: AnalyticGaussianSum) -> AnalyticGaussianSum:
    """Tensor product of lower-dimensional sums (distributes over terms)."""
    if not sums:
        raise ValueError("need at least one factor")
    dim = sum(s.dim for s in sums)
    terms = tuple(sum(parts, ()) for parts in
                  itertools.product(*(s.terms for s in sums)))
    return AnalyticGaussianSum(dim, terms).merged()


# -- stable high derivatives -------------------------------------------------
# The scaled Hermite recurrence lives here alone: every Gaussian derivative
# in the package, gsnorm's Hermite tables included, is one pass of it.

def scaled_hermite_orders(top: int, t: np.ndarray,
                          work: np.ndarray | None = None):
    """Yield g_j = f_j / sqrt(j!) at t for j = 0..top, f_j = d^j e^{-t^2/2}.

    One in-place pass of g_{j+1} = (-t g_j - sqrt(j) g_{j-1}) / sqrt(j+1):
    a yielded array is overwritten two steps later.  A caller passing its
    own ``work`` (t's shape, the scratch for t g_j) may use it between steps.
    """
    t = np.asarray(t, dtype=float)
    g_prev = np.zeros_like(t)
    g = np.exp(-0.5 * t * t)
    work = np.empty_like(t) if work is None else work
    for j in range(top + 1):
        if j:   # rounds like the expression above, signed zeros included
            np.multiply(t, g, out=work)
            g_prev *= -math.sqrt(j - 1)
            g_prev -= work
            g_prev /= math.sqrt(j)
            g_prev, g = g, g_prev
        yield g


def gaussian_derivative_values(m: int, t: np.ndarray,
                               keep: int = 1) -> list[np.ndarray]:
    """Values of d^j/dt^j e^{-t^2/2} for j = m-keep+1 .. m, lowest first."""
    if m < 0:
        raise ValueError("order must be nonnegative")
    return [g * math.exp(0.5 * math.lgamma(j + 1))
            for j, g in enumerate(scaled_hermite_orders(m, t)) if j > m - keep]


def factor_derivative_values(factor: GaussFactor, m: int,
                             x: np.ndarray) -> np.ndarray:
    """Rows n = 0..m: d^n/dx^n of a single axis factor at real points.

    Leibniz on (u^p) * e^{-a u^2}, the Gaussian block being d^j e^{-t^2/2}
    at t = sqrt(2a) u for every j from one recurrence pass.
    """
    if factor.width <= 0.0:
        raise ValueError("stable derivative evaluation needs width > 0")
    u = np.asarray(x, dtype=float) - factor.center
    s = math.sqrt(2.0 * factor.width)
    p = factor.power
    fvals = gaussian_derivative_values(m, s * u, keep=m + 1)
    rows = np.empty((m + 1,) + u.shape, dtype=complex)
    for n in range(m + 1):
        rows[n] = factor.coeff * sum(
            math.comb(n, k) * math.perm(p, k) * u ** (p - k) * s ** (n - k)
            * fvals[n - k] for k in range(min(p, n) + 1))
    return rows


def sum_derivatives(u: AnalyticGaussianSum,
                    order_list: Sequence[Sequence[int]],
                    axes: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """∂^beta u on a tensor grid of real nodes, lazily for each beta listed.

    One table per product term and axis, up to that axis' top order,
    serves every beta.
    """
    if len(axes) != u.dim or any(len(beta) != u.dim or min(beta) < 0
                                 for beta in order_list):
        raise ValueError("need axes and nonnegative orders for every axis")
    tables = [[factor_derivative_values(f, max(b[j] for b in order_list), ax)
               for j, (f, ax) in enumerate(zip(term, axes))]
              for term in u.terms]
    zero = np.zeros(tuple(len(ax) for ax in axes), dtype=complex)
    return (sum((reduce(np.multiply.outer, [r[b] for r, b in zip(rows, beta)])
                 for rows in tables), zero) for beta in order_list)


def sum_derivative_values(u: AnalyticGaussianSum, orders: Sequence[int],
                          axes: Sequence[np.ndarray]) -> np.ndarray:
    """∂^orders u on a tensor grid of real nodes, one order per axis."""
    return next(sum_derivatives(u, [orders], axes))
