"""Independent oracles used by the test suite.

Everything here is deliberately primitive: dense trapezoid quadrature on
oversized boxes, straight from the defining integrals, sharing no code
path with the library implementations it validates.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def trapezoid_grid(half_extent: float, n: int) -> tuple[np.ndarray, float]:
    xs = np.linspace(-half_extent, half_extent, n)
    return xs, xs[1] - xs[0]


def ft_quadrature(func, xi, half_extent: float = 20.0, n: int = 40001):
    """Dense trapezoid of \\int f(x) exp(-2 i pi x xi) dx (1-d)."""
    xs, h = trapezoid_grid(half_extent, n)
    fx = func(xs)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    phases = np.exp(-2j * np.pi * np.outer(xi, xs))
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return phases @ (fx * w) * h


def inner_quadrature(f, g, half_extent: float = 20.0, n: int = 40001):
    """Dense trapezoid of \\int f(x) conj(g(x)) dx (1-d)."""
    xs, h = trapezoid_grid(half_extent, n)
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return np.sum(f(xs) * np.conj(g(xs)) * w) * h


def heat_convolution_quadrature(func, x, half_extent: float = 20.0,
                                n: int = 20001):
    """Dense trapezoid of sqrt(2) \\int f(v) exp(-2 pi (x-v)^2) dv (1-d)."""
    vs, h = trapezoid_grid(half_extent, n)
    fv = func(vs)
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    x = np.atleast_1d(np.asarray(x, dtype=float))
    kern = np.exp(-TWO_PI * (x[:, None] - vs[None, :]) ** 2)
    return np.sqrt(2.0) * kern @ (fv * w) * h


def smooth_by_convolution(f):
    """Direct quadrature of 2^{d/2} (f ∗ exp(-2 pi |.|^2)) on f's grid.

    Separable, so the dense Gaussian kernel is applied one axis at a time;
    this is the independent cross-check for the multiplier form of
    ``awsym.heat.smooth``.
    """
    from awsym.core import SampledField

    nodes = f.grid.axis_nodes()
    diff = nodes[:, None] - nodes[None, :]
    kernel = np.sqrt(2.0) * np.exp(-TWO_PI * diff * diff) * f.grid.spacing
    out = f.values
    for axis in range(f.grid.dim):
        out = np.moveaxis(np.tensordot(kernel, out, axes=([1], [axis])),
                          0, axis)
    return SampledField(f.grid, out)


def _centered_sq_norm(grid) -> np.ndarray:
    """|xi|^2 on every node of a centred frequency grid."""
    from functools import reduce

    sq = grid.axis_nodes()**2
    return reduce(np.add.outer, [sq] * grid.dim) if grid.dim > 1 else sq


def smooth_centered_multiplier(f):
    """Heat smoothing the dense way: ``fourier``, exp(-pi |xi|^2 / 2) on
    every node of the centred frequency grid, ``inverse_fourier``.

    This is the route ``awsym.heat.smooth`` took before it ran on
    unshifted, band-limited 1-d passes: both centring shifts, both weights
    and every frequency, however small its gain.
    """
    from awsym.core import fourier, inverse_fourier

    spec = fourier(f)
    spec.values *= np.exp(-0.5 * np.pi * _centered_sq_norm(spec.grid))
    return inverse_fourier(spec)


def smooth_axes_out_of_place(vals, grid, axes):
    """``awsym.heat._smooth_axes`` as it was before its passes ran in place:
    every forward pass returns a new array, and every inverse pass inverts a
    new zero-padded array.  When ``vals`` is real (float dtype, whatever
    its values), the pass along the last of ``axes`` is ``rfft``, keeping
    the columns 0..N/2 whose |xi| <= T, and its inverse, the last pass, is
    ``irfft`` of those columns zero-padded to N/2 + 1; the result is then
    real, returned as float64.  Kept only to pin that the in-place
    passes give the same bytes."""
    import math

    from awsym.core import BAND_HALFWIDTH

    n, ndim = grid.npoints, vals.ndim
    xi = np.fft.ifftshift(grid.freq.axis_nodes())
    gain = np.exp(-0.5 * math.pi * xi**2)
    inband = np.abs(xi) <= BAND_HALFWIDTH
    pos = int(np.count_nonzero(inband[:n // 2]))
    neg = int(np.count_nonzero(inband[n // 2:]))
    spans = ((slice(0, pos), slice(0, pos)),
             (slice(n - neg, n), slice(pos, pos + neg)))

    def on(axis, part):
        return (slice(None),) * axis + (part,)

    def gains(part, axis):
        return gain[part].reshape((-1,) + (1,) * (ndim - 1 - axis))

    axes = list(axes)
    real = not np.iscomplexobj(vals)
    if real:
        last = axes.pop()
        keep = inband[:n // 2 + 1]
        spec = np.fft.rfft(vals, axis=last)
        vals = np.compress(keep, spec, axis=last) \
            * gains(np.flatnonzero(keep), last)
    for axis in reversed(axes):
        spec = np.fft.fft(vals, axis=axis)
        vals = np.empty(spec.shape[:axis] + (pos + neg,)
                        + spec.shape[axis + 1:], dtype=complex)
        for full, band in spans:
            np.multiply(spec[on(axis, full)], gains(full, axis),
                        out=vals[on(axis, band)])
    for axis in axes:
        padded = np.zeros(vals.shape[:axis] + (n,) + vals.shape[axis + 1:],
                          dtype=complex)
        for full, band in spans:
            padded[on(axis, full)] = vals[on(axis, band)]
        vals = np.fft.ifft(padded, axis=axis)
    if real:
        padded = np.zeros(vals.shape[:last] + (n // 2 + 1,)
                          + vals.shape[last + 1:], dtype=complex)
        padded[on(last, keep)] = vals
        vals = np.fft.irfft(padded, n, axis=last)
    return np.ascontiguousarray(vals)


def desmooth_fourier_centered(u, rel_threshold: float = 1e-12):
    """(result values, cutoff frequency, residual) of the regularized
    spectral division, on centred weighted transforms over the whole grid.

    This is the route ``awsym.heat.desmooth_fourier`` took before it moved
    to unshifted FFTs and kept-node evaluation; its residual is recomputed
    with :func:`smooth_centered_multiplier`.  Past the overflow guard it
    raises the library's OverflowGuardError naming the same peak.
    """
    from functools import reduce

    from awsym.core import SampledField, fourier, inverse_fourier
    from awsym.gaussians import _EXP_GUARD, OverflowGuardError

    spec = fourier(u)
    mag = np.abs(spec.values)
    mask = mag >= rel_threshold * float(mag.max())
    sq = _centered_sq_norm(spec.grid)
    with np.errstate(divide="ignore"):
        log_gain = np.log(mag) + 0.5 * np.pi * sq
    peak = float(np.max(log_gain[mask]))
    if peak > _EXP_GUARD:
        raise OverflowGuardError(f"max log magnitude {peak:.1f}")
    with np.errstate(over="ignore", invalid="ignore"):
        lifted = np.where(mask, spec.values * np.exp(0.5 * np.pi * sq), 0.0)
    phi = inverse_fourier(SampledField(spec.grid, lifted))
    axis_abs = np.abs(spec.grid.axis_nodes())
    profile = reduce(np.maximum.outer, [axis_abs] * spec.grid.dim) \
        if spec.grid.dim > 1 else axis_abs
    residual = float(np.max(np.abs(smooth_centered_multiplier(phi).values
                                   - u.values)))
    return phi.values, float(np.max(profile[mask])), residual


def coherent_state_func(x0: float, xi0: float):
    """Psi_{(x0, xi0)} as a plain callable (1-d position space)."""
    def psi(u):
        return (2.0 ** 0.25 * np.exp(-np.pi * (u - x0) ** 2)
                * np.exp(2j * np.pi * (u - x0 / 2.0) * xi0))
    return psi


def antiwick_matrix_element(symbol_func, f_func, g_func,
                            phase_extent: float = 6.0, phase_n: int = 181,
                            pos_extent: float = 12.0, pos_n: int = 3001):
    """Dense quadrature of \\int F(X) <f, Psi_X> <Psi_X, g> dX (n = 1).

    The coherent brackets are themselves dense position quadratures, so
    this shares nothing with the package's assembly path.
    """
    xs, hx = trapezoid_grid(phase_extent, phase_n)
    vs, hv = trapezoid_grid(pos_extent, pos_n)
    wv = np.ones(pos_n)
    wv[0] = wv[-1] = 0.5
    fv = f_func(vs) * wv * hv
    gv = g_func(vs) * wv * hv

    wx = np.ones(phase_n)
    wx[0] = wx[-1] = 0.5

    total = 0.0 + 0.0j
    for i, x0 in enumerate(xs):
        # windowed transform over the xi row: conj(Psi_X(v)) factors as
        # 2^{1/4} e^{-pi (v-x0)^2} e^{-2 i pi (v - x0/2) xi}
        window = 2.0 ** 0.25 * np.exp(-np.pi * (vs - x0) ** 2)
        phases = np.exp(-2j * np.pi * np.outer(xs, vs - x0 / 2.0))
        bra_f = phases @ (fv * window)          # <f, Psi_X> over xi row
        bra_g = phases @ (gv * window)
        fvals = symbol_func(x0, xs)
        total += wx[i] * np.sum(wx * fvals * bra_f * np.conj(bra_g)) * hx * hx
    return total


def antiwick_kernel_full_band(symbol, pos_grid) -> np.ndarray:
    """Anti-Wick kernel of a 1-d symbol on every node pair, no band cut.

    The literal quadrature M[u, v] = sqrt(2) h_ph^2 sum_{x, xi} F(x, xi)
    e^{-2 pi (m - x)^2} e^{-pi t^2/2} e^{2 i pi t xi}, with m the pair's
    midpoint, t its difference and h_ph the phase spacing (dX = h_ph^2),
    summed as one einsum over (u, v, x, xi).
    """
    phase = symbol.grid
    nodes, h_ph = phase.axis_nodes(), phase.spacing
    pos = pos_grid.axis_nodes()
    m = (pos[:, None] + pos[None, :]) / 2.0
    t = pos[:, None] - pos[None, :]
    gauss = np.exp(-TWO_PI * (m[:, :, None] - nodes) ** 2)
    wave = np.exp(1j * TWO_PI * t[:, :, None] * nodes)
    total = np.einsum("xk,uvx,uvk->uv", symbol.values, gauss, wave,
                      optimize=True)
    return np.sqrt(2.0) * h_ph**2 * np.exp(-np.pi * t * t / 2.0) * total


def contract_on_pairs_loop(w_mid, tab, mid_axis: int, diff_axis: int,
                           npts: int) -> np.ndarray:
    """out[.., u, .., v, ..] = sum_k w_mid[u+v, k] tab[.., k, .., u-v+B, ..]
    by a plain double loop over (u, v); pairs with |u - v| > B are 0."""
    tab = np.moveaxis(tab, (mid_axis, diff_axis), (0, 1))
    band = (tab.shape[1] - 1) // 2
    out = np.zeros((npts, npts) + tab.shape[2:], dtype=complex)
    for u in range(npts):
        for v in range(npts):
            if abs(u - v) <= band:
                out[u, v] = np.tensordot(w_mid[u + v], tab[:, u - v + band],
                                         axes=1)
    return np.moveaxis(out, (0, 1), (mid_axis, diff_axis))


def kernel_from_weyl_literal(symbol) -> np.ndarray:
    """Refined-grid kernel of a 1-d Weyl symbol on a self-dual grid, as
    literal sums with plain float phases (no FFT, no table of roots).

    For each refined node pair, m = (x_u + x_v)/2 and t = x_u - x_v:
    K[u, v] = h sum_k S(m, xi_k) e^{2 i pi xi_k t} when |u - v| <= N
    (|t| <= L), else 0, where S is the trigonometric interpolation in x,
    S(m, xi_k) = sum_r C[r, k] b_r(m) with b_r(m) = e^{2 i pi m eta_r},
    except b_0(m) = cos(2 pi m eta_0) for the Nyquist frequency
    eta_0 = -L, and
    C[r, k] = (1/N) sum_j sigma(x_j, xi_k) e^{-2 i pi x_j eta_r}.
    """
    phase = symbol.grid
    nodes, h, n = phase.axis_nodes(), phase.spacing, phase.npoints
    pos = -phase.half_extent + 0.5 * h * np.arange(2 * n)
    coeff = np.exp(-1j * TWO_PI * np.outer(nodes, nodes)) @ symbol.values / n
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    for u in range(2 * n):
        m = (pos[u] + pos) / 2.0
        t = pos[u] - pos
        basis = np.exp(1j * TWO_PI * np.outer(m, nodes))
        basis[:, 0] = np.cos(TWO_PI * m * nodes[0])
        interp = basis @ coeff
        wave = np.exp(1j * TWO_PI * np.outer(t, nodes))
        out[u] = h * np.sum(interp * wave, axis=1)
    idx = np.arange(2 * n)
    out[np.abs(np.subtract.outer(idx, idx)) > n] = 0.0
    return out


def weyl_from_kernel_literal(kernel) -> np.ndarray:
    """Weyl symbol of a 1-d refined-grid kernel as literal sums with plain
    float phases (no FFT).

    sigma(x_j, xi_k) = h sum_t K(x_j + t/2, x_j - t/2) e^{-2 i pi xi_k t}
    over t = o h, o = -N/2 .. N/2 - 1, where x_j +- t/2 sit on refined
    nodes 2j +- o and a read outside the box counts as zero.
    """
    nk = kernel.grid.npoints
    n, h = nk // 2, 2.0 * kernel.grid.spacing
    xis = -kernel.grid.half_extent + h * np.arange(n)
    out = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for o in range(-n // 2, n // 2):
            if 0 <= 2 * j + o < nk and 0 <= 2 * j - o < nk:
                out[j] += h * kernel.matrix[2 * j + o, 2 * j - o] \
                    * np.exp(-1j * TWO_PI * xis * o * h)
    return out


def hermite_function_reference(m_max: int = 30):
    """Sups and squared L2 norms of h_m = He_m(t) e^{-t^2/2} / sqrt(m!).

    d^m/dt^m e^{-t^2/2} = (-1)^m He_m(t) e^{-t^2/2}, so these are the scaled
    derivative-of-Gaussian sups and norms.  He_m comes from
    ``numpy.polynomial.hermite_e`` on grids unrelated to the library's:
    the sup is located on a coarse grid and polished on a dense local one,
    the norm is a trapezoid on a fine symmetric grid.  Returns two lists
    indexed by m = 0..m_max.
    """
    from math import factorial, sqrt

    from numpy.polynomial import hermite_e

    sups, sq_norms = [], []
    for m in range(m_max + 1):
        coef = np.zeros(m + 1)
        coef[m] = 1.0
        scale = 1.0 / sqrt(factorial(m))

        def h(t):
            return hermite_e.hermeval(t, coef) * np.exp(-0.5 * t * t) * scale

        reach = np.sqrt(2.0 * m + 1.0) + 6.0
        ts = np.linspace(0.0, reach, 40001)
        k = int(np.argmax(np.abs(h(ts))))
        step = ts[1] - ts[0]
        local = np.linspace(max(ts[k] - step, 0.0), ts[k] + step, 20001)
        sups.append(float(np.max(np.abs(h(local)))))

        xs, dx = trapezoid_grid(reach + 4.0, 120001)
        w = np.ones_like(xs)
        w[0] = w[-1] = 0.5
        sq_norms.append(float(np.sum(h(xs) ** 2 * w) * dx))
    return sups, sq_norms


def gaussian_derivative_recurrence(m: int, t) -> np.ndarray:
    """d^m/dt^m e^{-t^2/2} at t from its own scaled recurrence.

    A literal per-order loop, run from order zero on every call, written
    out here so the library's shared Hermite pass is checked against code
    it does not share: g_{j+1} = (-t g_j - sqrt(j) g_{j-1}) / sqrt(j+1)
    with g_j = f_j / sqrt(j!), and sqrt(m!) restored at the end.
    """
    import math

    t = np.asarray(t, dtype=float)
    g_prev = np.zeros_like(t)
    g_cur = np.exp(-t * t / 2.0)
    for j in range(m):
        g_next = (-t * g_cur - math.sqrt(j) * g_prev) / math.sqrt(j + 1)
        g_prev, g_cur = g_cur, g_next
    return g_cur * math.exp(0.5 * math.lgamma(m + 1))


def gs_constant_brute_force(u, lam: float, mu: float, max_alpha: int,
                            max_beta: int, points_per_axis: int):
    """(a_est, a_by_total_order) from the per-(alpha, beta) full-grid loop.

    This is the loop ``gs_constant`` ran before its axis-by-axis
    reduction: for every pair it forms |x^alpha d^beta u| on the whole
    sup grid and takes one maximum.  It shares the derivative values and
    the sup grid with the library, so it checks the reduction only.
    """
    import itertools
    import math

    from awsym.gaussians import sum_derivative_values
    from awsym.gsnorm import _sup_axes

    def indices(top):
        return [idx for idx in itertools.product(range(top + 1),
                                                 repeat=u.dim)
                if sum(idx) <= top]

    axes = _sup_axes(u, max_alpha + max_beta, points_per_axis)
    best: dict[int, float] = {}
    for beta in indices(max_beta):
        absd = np.abs(sum_derivative_values(u, beta, axes))
        for alpha in indices(max_alpha):
            total = sum(alpha) + sum(beta)
            if total == 0:
                continue
            weighted = absd
            for j, aj in enumerate(alpha):
                shape = [1] * u.dim
                shape[j] = -1
                weighted = weighted * (np.abs(axes[j]) ** aj).reshape(shape)
            sup = float(np.max(weighted))
            if sup == 0.0:
                continue
            cand = (math.log(sup)
                    - lam * sum(math.lgamma(a + 1) for a in alpha)
                    - mu * sum(math.lgamma(b + 1) for b in beta)) / total
            best[total] = max(best.get(total, -math.inf), cand)
    running = -math.inf
    cumulative = []
    for total in range(1, max_alpha + max_beta + 1):
        running = max(running, best.get(total, -math.inf))
        cumulative.append(math.exp(running))
    return math.exp(running), tuple(cumulative)


def strip_trapezoid(strip_halfwidth: float, y_nodes: int):
    """(nodes, weights) of the trapezoid rule over |y| <= strip_halfwidth,
    the weights from the rule's step 2 w / (n - 1)."""
    ys = np.linspace(-strip_halfwidth, strip_halfwidth, y_nodes)
    wy = np.full(y_nodes, 2.0 * strip_halfwidth / (y_nodes - 1))
    wy[[0, -1]] *= 0.5
    return ys, wy


def strip_factor_longdouble(factor, xs, strip_halfwidth: float,
                            y_nodes: int) -> np.ndarray:
    """sqrt(2) sum_y w_y f(x + iy) e^{-2 pi y^2} for one axis factor, each
    node's value and the sum formed in ``np.clongdouble`` straight from
    c (z - b)^p e^{-a (z - b)^2}, then rounded to complex128: a reference
    for the double-precision strip sums about a thousand times finer than
    their round-off where long double is the x87 80-bit format.  The
    weight's 2 pi is the double constant the library uses, so only
    round-off separates the two."""
    ld = np.longdouble
    step = 2 * ld(strip_halfwidth) / (y_nodes - 1)
    ys = -ld(strip_halfwidth) + step * np.arange(y_nodes, dtype=ld)
    wy = np.full(y_nodes, step)
    wy[[0, -1]] /= 2
    w = (np.asarray(xs, dtype=ld)[None, :] - ld(factor.center)
         + 1j * ys[:, None]).astype(np.clongdouble)
    coeff = np.clongdouble(factor.coeff.real) \
        + 1j * np.clongdouble(factor.coeff.imag)
    vals = coeff * w**factor.power * np.exp(
        -ld(factor.width) * w * w - ld(TWO_PI) * (ys * ys)[:, None])
    return (np.sqrt(ld(2)) * (wy[:, None] * vals).sum(axis=0)).astype(complex)


def desmooth_complex_fft_route(u, g, strip_halfwidth: float, y_nodes: int):
    """(result values, residual) of the strip integral through transforms.

    This is the route ``desmooth_complex`` took before it became a
    y-quadrature: every node y gets its own slab and its own weighted
    one-dimensional transform, the weighted spectra are summed into
    kappa(xi), and each axis factor is the inverse transform of kappa.
    No multiplier sits between the transforms, so it computes the same
    sum as the library with an FFT's round-off and no 2^-60 cut.
    """
    import math
    from functools import reduce

    from awsym.core import (Grid, SampledField, fourier, inverse_fourier,
                            sample)
    from awsym.heat import smooth

    ys, wy = strip_trapezoid(strip_halfwidth, y_nodes)
    g1 = Grid(1, g.npoints, g.half_extent)
    xs = g1.axis_nodes()
    phi_vals = np.zeros(g.shape, dtype=complex)
    for term in u.terms:
        axis_phis = []
        for factor in term:
            kappa = np.zeros(g.npoints, dtype=complex)
            for y, w in zip(ys, wy):
                slab = factor.shifted_values(xs, y, -TWO_PI * y * y)
                kappa += (w * math.sqrt(2.0)) \
                    * fourier(SampledField(g1, slab)).values
            axis_phis.append(
                inverse_fourier(SampledField(g1.freq, kappa)).values)
        phi_vals += reduce(np.multiply.outer, axis_phis) \
            if g.dim > 1 else axis_phis[0]
    phi = SampledField(g, phi_vals)
    residual = float(np.max(np.abs(smooth(phi).values
                                   - sample(u, g).values)))
    return phi.values, residual


def strip_factors_per_node(u, g, strip_halfwidth: float,
                           y_nodes: int) -> np.ndarray:
    """The (term, axis, node) factors of the y-quadrature, one y node at a
    time.

    Each axis factor is sqrt(2) sum_y w_y f(x + iy) e^{-2 pi y^2}, added
    one node's slab at a time, with its entries below 2^-60 of its peak
    zeroed.  Each slab is one direct evaluation of the factor at x + iy
    (``GaussFactor.shifted_values``, which the library's strip sums do not
    call), so it agrees with ``heat.strip_factors`` to round-off.
    """
    import math

    ys, wy = strip_trapezoid(strip_halfwidth, y_nodes)
    xs = g.axis_nodes()
    factors = np.zeros((len(u.terms), u.dim, g.npoints), dtype=complex)
    for t, a in np.ndindex(factors.shape[:2]):
        phi = factors[t, a]
        for y, w in zip(ys, wy):
            phi += (w * math.sqrt(2.0)) \
                * u.terms[t][a].shifted_values(xs, y, -TWO_PI * y * y)
        mag = np.abs(phi)
        phi[mag < 2.0**-60 * mag.max()] = 0.0
    return factors


def desmooth_complex_per_node(u, g, strip_halfwidth: float, y_nodes: int):
    """(result values, residual) of the y-quadrature from the factors of
    :func:`strip_factors_per_node`, the residual from a dense smooth."""
    from functools import reduce

    from awsym.core import SampledField, sample
    from awsym.heat import smooth

    phi_vals = np.zeros(g.shape, dtype=complex)
    for axis_phis in strip_factors_per_node(u, g, strip_halfwidth, y_nodes):
        phi_vals += reduce(np.multiply.outer, axis_phis)
    phi = SampledField(g, phi_vals)
    residual = float(np.max(np.abs(smooth(phi).values
                                   - sample(u, g).values)))
    return phi.values, residual


def e_space_norm_per_node(u, moment: int, strip_halfwidth: float) -> float:
    """Value of ``e_space_norm`` from a loop over single y nodes.

    One slab per node, each a direct evaluation of the factors at x + iy
    (``GaussFactor.shifted_values``, which the library's strip sums do not
    call), its weighted x sum added to the total.  It shares the x extent
    with the library, so it agrees with it to round-off.  Convergent
    inputs only.
    """
    import math

    from awsym.gsnorm import _axis_extent

    ys, wy = strip_trapezoid(strip_halfwidth, 129)

    def axis_integral(factors, j):
        ext = _axis_extent(u, j, moment)
        xs = np.linspace(-ext, ext, 2049)
        hx = xs[1] - xs[0]
        weight = (1.0 + np.abs(xs)) ** moment
        total = 0.0
        for y, wyk in zip(ys, wy):
            vals = sum(f.shifted_values(xs, y, -TWO_PI * y * y)
                       for f in factors)
            total += wyk * hx * float(np.sum(np.abs(vals) * weight))
        return total

    if u.dim == 1:
        return axis_integral([term[0] for term in u.terms], 0)
    return sum(math.prod(axis_integral([f], j) for j, f in enumerate(term))
               for term in u.terms)


def desmooth_fourier_dense_lift(u, rel_threshold: float = 1e-12):
    """Result values of the regularized spectral division, unpruned in
    both directions: the spectrum is the whole grid's ``fftn``, and the
    lifted spectrum is written into a whole grid-sized array and inverted
    along axis 0 first, then by one ``ifftn`` over the other axes.  That
    is the pass order of ``awsym.heat.desmooth_fourier``, without its
    forward pass along axis 0 running only on the lines whose 1-norm can
    reach the threshold, and without its first inverse pass running only
    on the lines holding kept nodes.

    For a real input (float dtype, whatever its values) the Hermitian part
    (L[k] + conj L[-k]) / 2 of the whole lifted grid L is formed densely,
    its columns 0..N/2 of the last axis are kept, and they are inverted in
    the library's real pass order: along axis 0 (when it is not the last
    axis), the middle axes, then ``irfft`` to N points along the last."""
    import math

    real = not np.iscomplexobj(u.values)
    spec = np.fft.fftn(u.values)
    mag = np.abs(spec)
    kept = np.nonzero(mag >= rel_threshold * float(mag.max()))
    xi = np.fft.ifftshift(u.grid.freq.axis_nodes())
    sq = sum(xi[idx]**2 for idx in kept)
    lifted = np.zeros_like(spec)
    half = np.exp(0.25 * math.pi * sq)
    with np.errstate(over="ignore", invalid="ignore"):
        lifted[kept] = spec[kept] * half * half
    if not real:
        return np.fft.ifftn(np.fft.ifft(lifted, axis=0),
                            axes=range(1, lifted.ndim))
    n, ndim = u.grid.npoints, lifted.ndim
    halved = 0.5 * lifted
    # halved[(-k) mod N] on every axis
    mirrored = np.roll(np.flip(halved), 1, axis=range(ndim))
    herm = (halved + np.conj(mirrored))[..., :n // 2 + 1]
    if ndim > 1:
        herm = np.fft.ifftn(np.fft.ifft(herm, axis=0),
                            axes=range(1, ndim - 1))
    return np.fft.irfft(herm, n)


def antiwick_pair_dense(op, u, phase_grid=None, strip_halfwidth: float = 3.0,
                        y_nodes: int = 64):
    """(value, residual, stride-two estimate) of the complex-shift pairing
    with every object dense.

    This is the route ``awsym.pairing.antiwick_pair`` took before it kept
    Phi as 1-d factors: Phi from :func:`desmooth_complex_per_node`, its
    residual recomputed as sup |smooth(Phi) - u| on the whole grid, the
    dense Weyl symbol sigma (an anti-Wick symbol heat smoothed in 2-d),
    and the plain sums of sigma Phi h^d and, on every second node per
    axis, sigma Phi (2h)^d.
    """
    from awsym.pairing import _infer_phase_grid, weyl_symbol

    grid = _infer_phase_grid(op, phase_grid)
    if grid is None:
        raise ValueError("a coherent combination needs phase_grid here")
    phi, residual = desmooth_complex_per_node(u, grid, strip_halfwidth,
                                              y_nodes)
    sigma = weyl_symbol(op, grid).values
    sub = (slice(None, None, 2),) * grid.dim
    value = complex(np.sum(sigma * phi) * grid.spacing**grid.dim)
    coarse = complex(np.sum(sigma[sub] * phi[sub])
                     * (2 * grid.spacing)**grid.dim)
    return value, residual, abs(value - coarse)


def antiwick_pair_reference_dense(symbol, u):
    """(value, scale) of the direct quadrature \\int F u the dense way: u
    evaluated at every node of the phase grid, multiplied into F and
    summed, times the cell volume.  ``scale`` is sum |F u| times the cell
    volume, the size the sum's round-off is relative to.

    This is what ``awsym.pairing.antiwick_pair_reference`` computed before
    it contracted F with u's 1-d factors instead of sampling u."""
    grid = symbol.grid
    dense = symbol.values * u(*np.meshgrid(*grid.axes(), indexing="ij"))
    return (complex(np.sum(dense) * grid.cell_volume),
            float(np.sum(np.abs(dense)) * grid.cell_volume))


def desmoothed(u):
    """The exact heat inverse of a Gaussian sum: the sum Phi with
    ``Phi.smoothed() == u``, for every axis width 0 < a' < 2 pi.

    ``smoothed()`` maps a width a to a' = 2 pi a / (a + 2 pi) and a power p
    to p, p - 2, ...  So each factor's pre-image has width
    a = 2 pi a' / (2 pi - a'); its top power is matched by dividing by the
    gain ``smoothed()`` gives that power, and the lower powers this
    brings in are taken back by the same step, one power at a time."""
    import itertools

    from awsym.gaussians import AnalyticGaussianSum, GaussFactor

    def pre_images(f):
        if not 0.0 < f.width < TWO_PI:
            raise ValueError("no Gaussian pre-image for width outside "
                             "(0, 2 pi)")
        a = TWO_PI * f.width / (TWO_PI - f.width)
        gain = GaussFactor(1.0, f.power, a, f.center).smoothed()[0].coeff
        top = GaussFactor(f.coeff / gain, f.power, a, f.center)
        out = [top]
        for lower in top.smoothed()[1:]:
            out += pre_images(GaussFactor(-lower.coeff, lower.power, f.width,
                                          f.center))
        return out

    return AnalyticGaussianSum(u.dim, tuple(
        piece for term in u.terms
        for piece in itertools.product(*map(pre_images, term))))
