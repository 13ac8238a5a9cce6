"""Coherent states, anti-Wick operator assembly, and the kernel <-> Weyl
symbol transforms.

Conventions
-----------
Phase grids are 2n-dimensional with axes ordered (x_1..x_n, xi_1..xi_n).
The coherent states are

    Psi_X(u) = 2^{n/4} exp(-pi |u - x|^2) exp(2 i pi (u - x/2) . xi),

unit L^2 norm, X = (x, xi).  An anti-Wick operator with symbol F acts as
the phase-space superposition of the rank-one projectors |Psi_X><Psi_X|
weighted by F(X); with this normalization F == 1 assembles to the
identity, consistent with the smoothing relation between the anti-Wick
and Weyl symbols (no extra (2 pi)^{-n} factor; see the package README).

Half-step geometry
------------------
Kernels are read in midpoint/difference coordinates: entry (u, v) is
K(m + t/2, m - t/2) with m = (x_u + x_v)/2, on the half-step lattice
s = u + v, and t = x_u - x_v.  Anti-Wick assembly (a Gaussian in m times a
Fourier sum in t) and kernel_from_weyl (an interpolated symbol in m,
transformed over xi into t) each write their midpoint x difference
product as one C-contiguous table T[s, d], and :func:`_read_pairs` reads
out[u, v] = T[u + v, u - v + B] through a single strided view (no index
arrays) and zeroes the pairs beyond the band by row slices.

Each builder does only the arithmetic that reaches the kernel.  Every
anti-Wick entry carries the factor e^{-pi t^2/2}, which is below 2^-60
for |t| > T = sqrt(120 ln 2 / pi) (about 5.1455, ``core.BAND_HALFWIDTH``),
so assembly forms only the differences |t| <= T and stores the entries
beyond as exact zeros; its window e^{-2 pi (m - x)^2} is below 2^-60 for
|m - x| > T/2, so each block of midpoints multiplies only the phase nodes
within T/2.  On a self-dual grid every phase of kernel_from_weyl is a
whole multiple of 2 pi/(4N), so its tables index one table of roots of
unity instead of calling exp per entry.

Kernels destined for the Weyl transforms live on the 2x refinement of the
phase-space position axis, so phase-grid midpoints land on even refined
nodes and t/2 offsets on refined nodes exactly, never interpolated; pass
``.refined()`` of that axis when the kernel will be transformed.  The
transforms also require a self-dual phase grid (N = 4 L^2, frequency
nodes == position nodes), which makes the t-slice transform land exactly
on the xi axis of the same grid.

Assembly and kernel_from_weyl are separable: each runs one position axis
pair (x_j, xi_j) <-> (u_j, v_j) at a time, moved to the front with the
other axes trailing, so every n takes the same path as n = 1.
weyl_from_kernel reads its whole midpoint-slice table in one flat gather,
since each axis pair adds its own term to the flat kernel index, and then
transforms the offset axes.

Real symbols
------------
A real anti-Wick symbol belongs to a self-adjoint operator, whose kernel
is Hermitian: K(v, u) = conj K(u, v), that is T[s, 2B - d] = conj T[s, d].
As in the heat layer, the dtype alone picks the route: for a float64 F or
sigma, assembly and kernel_from_weyl form only the differences t >= 0 of
the first axis pair and fill the t < 0 half of each parity class as its
conjugate (:func:`_mirror`) before the pair read; a complex128 symbol
takes the full table, byte for byte as before.  For n > 1 only the first
axis pair is halved; in assembly its xi sums already ran over every axis,
so its mirror reverses the other difference axes as well.  Both routes
compute the same kernel, to round-off, whatever the values.

A float64 symbol's kernel is exactly Hermitian for n = 1, from either
builder.  Assembly's quadrature is a sum of Hermitian terms
F(X) |Psi_X><Psi_X|.  kernel_from_weyl interpolates in x with the x
frequency -L (the Nyquist row of its coefficients) split evenly between
+-L, as cos 2 pi L m, so a real sigma interpolates to real values between
the phase nodes as well as on them.
weyl_from_kernel returns float64 when its midpoint-slice table equals the
conjugate of its own flip o -> -o (mod N) over the offsets, which makes
the transform real; it keeps the complex transform and its real part, so
an assembled real symbol's kernel maps back to a float64 symbol.

Operator action
---------------
An anti-Wick operator is a localization operator (a Gabor multiplier), so
:func:`apply_operator` never assembles it: it takes the windowed transform
of the field against the coherent states, multiplies by F and synthesizes,
one position axis at a time.  That is the same finite quadrature as
assembling on the field's grid and applying the kernel, summed in another
order, and works for any phase grid and position grid pair.
:func:`assemble_antiwick` builds the dense kernel for the Weyl transforms
and stays the independent check of the action.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence, Union

import numpy as np

from .core import (BAND_HALFWIDTH, Grid, GridMismatchError, SampledField,
                   centered_fft, inner, phase_table)

__all__ = [
    "CoherentCombo",
    "DenseKernel",
    "AntiWickFromSymbol",
    "OperatorRep",
    "coherent_state",
    "kernel_from_coherent",
    "assemble_antiwick",
    "weyl_from_kernel",
    "kernel_from_weyl",
    "apply_operator",
    "identity_kernel",
    "position_grid_of",
    "require_self_dual",
]

PI = math.pi
# midpoints per parity in one block of the assembly window product
_WINDOW_ROWS = 8


# ---------------------------------------------------------------------------
# operator representations
# ---------------------------------------------------------------------------

@dataclass
class DenseKernel:
    """Sampled distribution kernel; entry (u, v) is K(x_u, x_v).

    The operator action is the quadrature (Af)(x_u) = sum_v M[u,v] f(x_v) h^n
    with h the kernel grid's own spacing, so the identity operator carries
    the matrix I / h^n.
    """

    grid: Grid
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        m = self.grid.size
        if self.matrix.shape != (m, m):
            raise ValueError(
                f"kernel matrix must be {m} x {m} for this grid, "
                f"got {self.matrix.shape}")


@dataclass(frozen=True)
class CoherentCombo:
    """Finite combination sum_j c_j |Psi_{X_j}><Psi_{Y_j}|."""

    terms: tuple[tuple[complex, tuple[float, ...], tuple[float, ...]], ...]

    def __post_init__(self):
        for k, (c, x, y) in enumerate(self.terms):
            if len(x) != len(y) or len(x) % 2 != 0:
                raise ValueError(f"term {k}: phase points need matching "
                                 "even lengths (x, xi)")
            if len(x) != len(self.terms[0][1]):
                raise ValueError(
                    f"term {k}: phase dimension {len(x)} differs from "
                    f"term 0's {len(self.terms[0][1])}")
            if not (np.isfinite(complex(c))
                    and np.isfinite(np.asarray([*x, *y], dtype=float)).all()):
                raise ValueError(f"term {k}: c, X and Y must be finite")

    @property
    def position_dim(self) -> int:
        if not self.terms:
            raise ValueError("empty combination carries no dimension")
        return len(self.terms[0][1]) // 2


@dataclass
class AntiWickFromSymbol:
    """Operator given by its anti-Wick symbol F sampled on a phase grid."""

    symbol: SampledField

    def __post_init__(self):
        if self.symbol.grid.dim % 2 != 0:
            raise ValueError("anti-Wick symbols live on 2n-dimensional grids")

    @property
    def position_dim(self) -> int:
        return self.symbol.grid.dim // 2


OperatorRep = Union[DenseKernel, CoherentCombo, AntiWickFromSymbol]


def position_grid_of(phase_grid: Grid) -> Grid:
    """Position-space grid with the same per-axis layout as a phase grid."""
    if phase_grid.dim % 2 != 0:
        raise ValueError("phase grids have even dimension")
    return Grid(phase_grid.dim // 2, phase_grid.npoints,
                phase_grid.half_extent)


def require_self_dual(grid: Grid, who: str) -> None:
    if not grid.is_self_dual():
        raise GridMismatchError(
            f"{who} needs a self-dual grid (spacing == 1/(2L), i.e. "
            f"N == 4 L^2); got N={grid.npoints}, L={grid.half_extent}")


def _require_position_grid(op: AntiWickFromSymbol, pos_grid: Grid) -> None:
    if pos_grid.dim != op.position_dim:
        raise GridMismatchError(
            f"position grid dim {pos_grid.dim} incompatible with the "
            f"dim-{op.symbol.grid.dim} phase grid of the symbol")


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------

def coherent_state(point: Sequence[float], g: Grid) -> SampledField:
    """Sample Psi_X on a position grid; unit norm up to truncation."""
    point = np.asarray(point, dtype=float)
    if point.shape != (2 * g.dim,):
        raise ValueError(
            f"phase point needs {2 * g.dim} coordinates for a dim-{g.dim} grid")
    xs, xis = point[:g.dim], point[g.dim:]
    nodes = g.axis_nodes()
    axis_vals = []
    for j in range(g.dim):
        u = nodes - xs[j]
        axis_vals.append(2.0 ** 0.25 * np.exp(-PI * u * u)
                         * np.exp(2j * PI * (u + xs[j] / 2.0) * xis[j]))
    vals = reduce(np.multiply.outer, axis_vals) if g.dim > 1 else axis_vals[0]
    return SampledField(g, vals)


def kernel_from_coherent(combo: CoherentCombo, pos_grid: Grid) -> DenseKernel:
    """Densify sum_j c_j Psi_{X_j}(x_u) conj(Psi_{Y_j}(x_v)), each outer
    product from real ones, (a c^T + b d^T) + i (b c^T - a d^T) for
    a + ib and c + id, so a projector term is exactly Hermitian."""
    m = pos_grid.size
    mat = np.zeros((m, m), dtype=complex)
    for coeff, x, y in combo.terms:
        left = coherent_state(x, pos_grid).values.ravel()
        right = coherent_state(y, pos_grid).values.ravel()
        a, b, c, d = left.real, left.imag, right.real, right.imag
        mat += coeff * ((np.outer(a, c) + np.outer(b, d))
                        + 1j * (np.outer(b, c) - np.outer(a, d)))
    return DenseKernel(pos_grid, mat)


def identity_kernel(pos_grid: Grid) -> DenseKernel:
    return DenseKernel(pos_grid,
                       np.eye(pos_grid.size) / pos_grid.cell_volume)


# ---------------------------------------------------------------------------
# anti-Wick assembly
# ---------------------------------------------------------------------------

def assemble_antiwick(op: AntiWickFromSymbol, pos_grid: Grid) -> DenseKernel:
    """Quadrature of the anti-Wick superposition into a dense kernel.

    M[u, v] = sum_X F(X) Psi_X(x_u) conj(Psi_X(x_v)) dX  over the phase
    grid carrying F.  Per axis, with m = (x_u + x_v)/2 and t = x_u - x_v,
    Psi_X(x_u) conj(Psi_X(x_v)) = sqrt(2) e^{-2 pi (m-x)^2} e^{-pi t^2/2}
    e^{2 i pi t xi}: the xi sum (with e^{-pi t^2/2} folded in) is a Fourier
    sum in t alone and the x sum a Gaussian window in m alone.

    Both Gaussians are cut where they fall below 2^-60, with
    T = BAND_HALFWIDTH (about 5.1455) and e^{-pi T^2/2} = 2^-60:

    * only the B = min(N - 1, floor(T / h_pos)) nearest differences on each
      side are formed (B = 82 at 256 points over [-8, 8), 164 on its
      512-point refinement), and entries with |x_u - x_v| > T are exact
      zeros;
    * e^{-2 pi (m - x)^2} < 2^-60 for |m - x| > T/2 (about 2.57), so the
      window is formed and multiplied in blocks of ``_WINDOW_ROWS``
      midpoints, each over only the phase nodes x within T/2 of its
      midpoints (about 90 of 256 at the desk scale), in real arithmetic.

    The xi table e^{2 i pi xi_k t_d} is formed by angle addition
    (``core.phase_table``) from the phase grid's start and step.  Each axis
    writes its midpoint x difference table T[s, d] and :func:`_read_pairs`
    reads the node pairs from it.

    A float64 F takes the half route (module notes, "Real symbols"): the
    first xi axis is contracted with the t >= 0 columns of the xi table
    in one real product, the first axis pair's window products run on
    that half, and the other half is mirrored, T[s, 2B - d] = conj
    T[s, d] with d_2..d_n reversed too.  For n = 1 the t = 0 column is
    real (its xi sum is a real product with zero imaginary part), so
    K == K^H exactly.  It matches the complex route on F as complex128 to
    round-off; a complex128 F keeps the complex route.
    """
    phase = op.symbol.grid
    n = op.position_dim
    _require_position_grid(op, pos_grid)

    npos = pos_grid.npoints
    band = min(npos - 1, math.floor(BAND_HALFWIDTH / pos_grid.spacing))

    # xi sums: table axes (x_1..x_n, d_1..d_n), t = (d - B) h_pos.  A real
    # F forms only d_1 >= B, the first xi axis in one real product
    diffs = np.arange(-band, band + 1) * pos_grid.spacing
    phase_mat = phase_table(diffs, 2.0 * PI, -phase.half_extent,
                            phase.spacing, phase.npoints) \
        * (phase.spacing * np.exp(-0.5 * PI * diffs * diffs))
    tab = op.symbol.values.reshape((phase.npoints,) * (2 * n))
    real = not np.iscomplexobj(tab)
    if real:
        shape = tab.shape[:n] + tab.shape[n + 1:] + (band + 1,)
        tab = _real_left_matmul(np.moveaxis(tab, n, -1).reshape(
            -1, phase.npoints), phase_mat[:, band:]).reshape(shape)
    for _ in range(n - real):
        # contract the leading xi axis (axis n of the remaining block)
        tab = np.tensordot(tab, phase_mat, axes=([n], [0]))

    mids = _midpoints(pos_grid)
    for j in range(n):
        tab = np.moveaxis(tab, (j, n + j), (0, 1))
        half = real and j == 0      # tab's column c holds d = B + c
        table = np.zeros((2 * npos - 1, 2 * band + 1) + tab.shape[2:],
                         dtype=complex)
        for parity in (0, 1):
            # cells whose s and d - B differ in parity are never read
            cols = (band + parity) % 2
            lo = band + parity if half else cols
            _window_product(table[parity::2, lo::2], mids[parity::2],
                            phase, np.ascontiguousarray(
                                tab[:, lo - band * half::2]))
            if half:
                # d_2..d_n reverse with d_1
                _mirror(table[parity::2], band, cols, n - 1)
        tab = np.moveaxis(_read_pairs(table, npos), (0, 1), (j, n + j))
    # tab axes: (u_1..u_n, v_1..v_n)
    mat = tab.reshape(pos_grid.size, pos_grid.size)
    mat *= 2.0 ** (n / 2.0) * phase.spacing**n
    return DenseKernel(pos_grid, mat)


def _midpoints(g: Grid) -> np.ndarray:
    """Midpoints (x_u + x_v) / 2 of one axis, indexed by s = u + v."""
    return -g.half_extent + 0.5 * g.spacing * np.arange(2 * g.npoints - 1)


def _window_product(out: np.ndarray, mids: np.ndarray, phase: Grid,
                    z: np.ndarray) -> None:
    """out[i] = sum_k e^{-2 pi (mids[i] - x_k)^2} z[k] over the nodes x_k
    of ``phase`` within T/2 of mids[i].

    ``mids`` ascends, ``z`` is C-contiguous with leading axis k.  Each
    block of ``_WINDOW_ROWS`` midpoints is one real product over the
    nodes within T/2 of the block's span; the window entries left out are
    below 2^-60.  A block with no such node stays as ``out`` holds it.
    """
    reach = 0.5 * BAND_HALFWIDTH
    nodes = phase.axis_nodes()

    def index(x):       # fractional k of x = -L + k h
        return (x + phase.half_extent) / phase.spacing

    for i in range(0, len(mids), _WINDOW_ROWS):
        m = mids[i:i + _WINDOW_ROWS]
        lo = max(0, math.ceil(index(m[0] - reach)))
        hi = min(phase.npoints, math.floor(index(m[-1] + reach)) + 1)
        if lo < hi:
            w = np.exp(-2.0 * PI * np.subtract.outer(m, nodes[lo:hi]) ** 2)
            out[i:i + len(m)] = _real_left_matmul(w, z[lo:hi])


def _read_pairs(table: np.ndarray, npts: int) -> np.ndarray:
    """out[u, v, ..] = table[u + v, u - v + B, ..] for u, v < ``npts``,
    and 0 where |u - v| > B.

    ``table`` is a C-contiguous midpoint x difference table T[s, d] of
    shape (2 npts - 1, 2B + 1) + rest (B = npts - 1 covers every pair).
    u + v and u - v share a parity, so only the cells where s and d - B
    do are read.

    out[u, v] = T[u + v, u - v + B] is affine in (u, v), so it is one
    strided view of T.  With r the product of the trailing axes, element
    (u, v, j) of the view sits at B r + (2B + 2) r u + 2B r v + j of the
    flat T, that is at (u + v)(2B + 1) r + (u - v + B) r + j.  All strides
    are positive, so the smallest index is B r >= 0 and the largest,
    at u = v = npts - 1 and j = r - 1, is 2(npts - 1)(2B + 1) r + B r + r - 1,
    below the size (2 npts - 1)(2B + 1) r = 2(npts - 1)(2B + 1) r + 2B r + r
    of T.  Pairs with |u - v| > B read a neighbouring row of T there; the
    copy zeroes them one row slice at a time.
    """
    band = (table.shape[1] - 1) // 2
    rest = table.shape[2:]
    r = math.prod(rest)
    item = table.itemsize
    pairs = np.lib.stride_tricks.as_strided(
        table.reshape(-1)[band * r:], shape=(npts, npts) + rest,
        strides=((2 * band + 2) * r * item, 2 * band * r * item)
        + table.strides[2:], writeable=False)
    out = pairs.copy()
    for u in range(band + 1, npts):
        out[u, :u - band] = 0.0          # u - v > B
        out[u - band - 1, u:] = 0.0      # v - (u - B - 1) > B
    return out


def _mirror(rows: np.ndarray, band: int, cols: int, flips: int) -> None:
    """rows[:, d] = conj rows[:, 2B - d] for d = cols, cols + 2, .. < B,
    with the last ``flips`` axes reversed too: the t < 0 half of one
    parity class of a midpoint x difference table T[s, d] of a Hermitian
    kernel, from its t > 0 half."""
    rev = (slice(None),) * (rows.ndim - 2 - flips) \
        + (slice(None, None, -1),) * flips
    np.conjugate(rows[(slice(None), slice(2 * band - cols, band, -2)) + rev],
                 out=rows[:, cols:band:2])


# ---------------------------------------------------------------------------
# Weyl transforms
# ---------------------------------------------------------------------------

def _midpoint_slices(kernel: DenseKernel) -> np.ndarray:
    """The midpoint-slice table S[x_1..x_n, o_1..o_n] = K(x + t/2, x - t/2)
    of a kernel, with x the phase-space position nodes and
    t_j = (o_j - N/2) h the offsets, one per node of the N-point axis.

    The kernel grid must be the 2x refinement of the phase-space position
    axis so x + t/2 and x - t/2 are exact node reads (out-of-box reads are
    zero: kernels are taken as literal samples, not periodized), and the
    induced phase grid must be self-dual so a transform over o lands on
    the xi nodes.  The table is gathered in one flat read of the kernel,
    before any transform.
    """
    gk = kernel.grid
    n = gk.dim
    np_axis = gk.npoints // 2
    require_self_dual(Grid(1, np_axis, gk.half_extent), "weyl_from_kernel")

    # K(x + t/2, x - t/2) at refined indices (2j + o, 2j - o) per axis
    # pair, o the centred offset.  In the flat kernel, axis pair k adds
    # (2j + o) M^(2n-1-k) + (2j - o) M^(n-1-k), so the whole table is one
    # flat read; axis pair k reads outside the box when
    # |o| > min(2j, M - 1 - 2j), and those entries are zeroed
    m = gk.npoints
    j = np.arange(np_axis)
    o = j - np_axis // 2
    off_box = np.abs(o) > np.minimum(2 * j, m - 1 - 2 * j)[:, None]
    flat = np.zeros((1,) * (2 * n), dtype=np.intp)
    outside = np.zeros((1,) * (2 * n), dtype=bool)
    for k in range(n):
        row, col = m ** (2 * n - 1 - k), m ** (n - 1 - k)
        shape = [1] * (2 * n)
        shape[k] = shape[n + k] = np_axis
        flat = flat + np.add.outer(2 * j * (row + col),
                                   o * (row - col)).reshape(shape)
        outside = outside | off_box.reshape(shape)
    tab = kernel.matrix.reshape(-1).take(flat, mode="wrap")
    tab[outside] = 0.0
    # tab axes: (x_1..x_n, o_1..o_n)
    return tab


def weyl_from_kernel(kernel: DenseKernel) -> SampledField:
    """Weyl symbol of a kernel: the centred transform over the offsets of
    its midpoint-slice table (:func:`_midpoint_slices`, which states the
    grid requirements), at the phase spacing h per axis.

    The symbol is float64 when the table S equals the conjugate of its
    flip S[x, -o] over the offsets, o taken mod N, so that the transform
    is real: a Hermitian kernel passes when its entries at the offsets
    t_j = -L, which have no mirror in the table, pass the flip too (they
    are zero in a kernel assembled with L > T).  The check
    (:func:`_flip_conjugate`) compares reversed views of the table and
    stops at the first block that differs.
    The complex transform still runs and its real part is kept, so the
    float64 symbol equals the complex128 one's real part bit for bit;
    any other kernel gives complex128, as before."""
    n = kernel.grid.dim
    slices = _midpoint_slices(kernel)
    tab = centered_fft(slices, axes=tuple(range(n, 2 * n)))
    if _flip_conjugate(slices, n):
        tab = tab.real
    phase = Grid(2 * n, kernel.grid.npoints // 2, kernel.grid.half_extent)
    return SampledField(phase, tab * phase.spacing**n)


def _flip_conjugate(tab: np.ndarray, n: int) -> bool:
    """Whether tab[.., o] == conj tab[.., -o] over the last ``n`` axes,
    o taken mod N: index 0 maps to itself and 1..N-1 to N-1..1, so each
    of the 2^n blocks is compared with a reversed view of its mirror,
    real parts first, stopping at the first block that differs."""
    lead = (slice(None),) * (tab.ndim - n)
    for pick in itertools.product((False, True), repeat=n):
        a = tab[lead + tuple(slice(1, None) if p else slice(0, 1)
                             for p in pick)]
        b = tab[lead + tuple(slice(None, 0, -1) if p else slice(0, 1)
                             for p in pick)]
        if not (np.array_equal(a.real, b.real)
                and np.array_equal(a.imag, -b.imag)):
            return False
    return True


def kernel_from_weyl(symbol: SampledField) -> DenseKernel:
    """Kernel on the refined grid from a Weyl symbol.

    Writes K(x + t/2, x - t/2) = (inverse transform over xi of the symbol
    slice at midpoint x) for every refined node pair, the midpoint values
    coming from the trigonometric interpolation of the symbol along x
    (exact at the sample nodes, spectrally accurate between them).
    Differences beyond |t| > L are outside what the xi grid can encode and
    are zero (never formed), matching the zero-extension read of the
    forward map.

    ``weyl_from_kernel`` inverts it exactly, to round-off, only in the rows
    x at least L/2 from either box edge.  Nearer an edge, the midpoint
    slice at x is cut where x +- t/2 leaves the box, so the transform over
    t misses part of what this kernel encodes: for a symbol that reaches
    the edge the outer rows come back wrong by up to the order of
    max|sigma|, while a symbol that decays inside the box round-trips
    everywhere.

    On the self-dual grid (N = 4 L^2, so h^2 = 1/N; N even, as the
    centered FFT needs) every phase of the xi transform and of the
    interpolation in x is a whole multiple of 2 pi/(4N).  Both tables
    therefore index one table of the 4N-th roots of unity: the phases are
    exact, with no transcendental call per entry.  A grid that passes the
    self-dual check within its 1e-12 tolerance is taken as exactly
    self-dual.

    The interpolation in x takes the Nyquist frequency eta = -L as
    cos 2 pi L m, its even split between +-L, equal to e^{-2 i pi L m} on
    the phase nodes.  A float64 sigma takes the half route (module notes,
    "Real symbols"): the first axis pair builds e_t and both products for
    delta >= 0 only, mirrors them and zeroes the imaginary part at
    delta = 0.  It equals the complex route to round-off, and a float64
    symbol's kernel is exactly Hermitian for n = 1.
    """
    phase = symbol.grid
    kgrid = position_grid_of(phase).refined()
    n, np_axis, nk = kgrid.dim, phase.npoints, kgrid.npoints
    require_self_dual(Grid(1, np_axis, phase.half_extent), "kernel_from_weyl")

    # With h^2 = 1/N, xi_k = (k - N/2) h, t = delta h/2 (|delta| <= N,
    # |t| <= L) and midpoints m_s = (s - 2N) h/4, every phase is a whole
    # number of 2 pi/(4N): xi_k t = (2k - N) delta / (4N) and
    # m_s eta_r = (s - 2N)(r - N/2) / (4N).  Both tables index one table
    # of 4N-th roots of unity.  The indices are at most 2N^2 in size, so
    # int32 holds them for every N < 32768 (a 64 GB kernel at the limit).
    mod = 4 * np_axis
    roots = np.exp(2j * PI / mod * np.arange(mod))
    ks = np.arange(np_axis, dtype=np.int32)
    tab = symbol.values
    for j in range(n):
        # a real tab (sigma's own axes, j == 0) forms only delta >= 0
        half = not np.iscomplexobj(tab)
        tab = np.moveaxis(tab, (j, n + j), (0, -1))
        # sigma(x_j, .., xi_k) = sum_r C[r, .., k] e^{2 i pi x_j eta_r}
        coeff = centered_fft(tab, axes=(0,)) / np_axis
        table = np.empty((2 * nk - 1, 2 * np_axis + 1) + tab.shape[1:-1],
                         dtype=complex)
        for parity in (0, 1):
            # rows s and columns d = delta + N of this parity class
            cols = (np_axis + parity) % 2
            lo = np_axis + parity if half else cols
            deltas = np.arange(lo - np_axis, np_axis + 1, 2, dtype=np.int32)
            e_t = roots[np.multiply.outer(2 * ks - np_axis, deltas) % mod]
            r_tab = np.moveaxis(coeff @ (e_t * phase.spacing), -1, 1)
            mids = np.arange(parity, 2 * nk - 1, 2,
                             dtype=np.int32) - 2 * np_axis
            p_tab = roots[np.multiply.outer(mids, ks - np_axis // 2) % mod]
            # the Nyquist row eta = -L splits evenly between +-L: cos
            p_tab[:, 0] = p_tab[:, 0].real
            # P[s, eta] R[eta, delta, ..]
            table[parity::2, lo::2] = (p_tab @ r_tab.reshape(
                np_axis, -1)).reshape((-1,) + r_tab.shape[1:])
            if half:
                _mirror(table[parity::2], np_axis, cols, 0)
        if half:
            table[::2, np_axis].imag = 0.0      # delta = 0 is its own mirror
        del coeff, e_t, r_tab, p_tab    # the pair read sets the peak memory
        tab = np.moveaxis(_read_pairs(table, nk), (0, 1), (j, n + j))
    # tab axes: (u_1..u_n, v_1..v_n)
    return DenseKernel(kgrid, tab.reshape(kgrid.size, kgrid.size))


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def apply_operator(op: OperatorRep, f: SampledField) -> SampledField:
    """Apply any representation to a sampled function.

    Coherent combinations act through inner products and anti-Wick
    symbols through windowed analysis, multiplication and synthesis
    (:func:`_apply_antiwick`); neither is ever densified into a kernel.
    """
    if isinstance(op, DenseKernel):
        if op.grid != f.grid:
            raise GridMismatchError(
                f"kernel grid {op.grid} does not match field grid {f.grid}")
        out = op.matrix @ f.values.ravel() * op.grid.cell_volume
        return SampledField(f.grid, out.reshape(f.grid.shape))
    if isinstance(op, CoherentCombo):
        out = np.zeros(f.grid.shape, dtype=complex)
        for c, x, y in op.terms:
            weight = inner(f, coherent_state(y, f.grid))
            out += c * weight * coherent_state(x, f.grid).values
        return SampledField(f.grid, out)
    if isinstance(op, AntiWickFromSymbol):
        return _apply_antiwick(op, f)
    raise TypeError(f"not an operator representation: {type(op)!r}")


def _apply_antiwick(op: AntiWickFromSymbol, f: SampledField) -> SampledField:
    """Anti-Wick action as windowed analysis, multiplication by F and
    synthesis: the quadrature of assemble_antiwick followed by the kernel
    action, summed in another order.

    Per axis, Psi_X(x_u) conj(Psi_X(x_v)) = sqrt(2) A[x,u] A[x,v]
    E[v,xi] conj(E[u,xi]) with window A[x,v] = e^{-pi (v-x)^2} and wave
    E[v,xi] = e^{-2 i pi v xi}, so the action is the analysis
    V = A (E o f), the multiplication W = F o V and the synthesis
    sum_xi conj(E) o (A^T W), one position axis at a time, scaled by
    2^{n/2} h_phase^{2n} h_pos^n.  The wave table is formed by angle
    addition (``core.phase_table``) from the position grid's start and
    step.  Any phase grid and position grid pair works, and no
    N_pos^n x N_pos^n kernel is formed.
    """
    phase = op.symbol.grid
    n = op.position_dim
    g = f.grid
    _require_position_grid(op, g)

    nph, npos = phase.npoints, g.npoints
    phase_nodes, pos_nodes = phase.axis_nodes(), g.axis_nodes()
    window = np.exp(-PI * np.subtract.outer(phase_nodes, pos_nodes) ** 2)
    wave = phase_table(phase_nodes, -2.0 * PI, -g.half_extent, g.spacing,
                       npos)

    # analysis: the leading v axis becomes a trailing (x, xi) pair, so
    # after n passes the axes are (x_1, xi_1, .., x_n, xi_n)
    t = f.values
    for _ in range(n):
        rest = t.shape[1:]
        mod = t.reshape(npos, 1, -1) * wave[:, :, None]
        t = _real_left_matmul(window, mod).reshape((nph, nph) + rest)
        t = np.moveaxis(t, (0, 1), (-2, -1))

    t *= op.symbol.values.transpose(
        [a for j in range(n) for a in (j, n + j)])

    # synthesis: the leading (x, xi) pair becomes a trailing u axis
    for _ in range(n):
        rest = t.shape[2:]
        t = _real_left_matmul(window.T, t.reshape(nph, -1))
        t = np.einsum("uk,ukr->ur", wave.conj(), t.reshape(npos, nph, -1))
        t = np.moveaxis(t.reshape((npos,) + rest), 0, -1)

    t *= 2.0 ** (n / 2.0) * phase.spacing ** (2 * n) * g.cell_volume
    return SampledField(g, t)


def _real_left_matmul(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z for real a and complex z, as one real product on (re, im)."""
    z = np.ascontiguousarray(z)
    out = a @ z.view(float).reshape(z.shape[0], -1)
    return out.view(complex).reshape((a.shape[0],) + z.shape[1:])
