"""Grids, sampled fields, and the continuous-convention Fourier transform.

Everything in the package works with the 2*pi-free transform

    Fu(xi) = \\int u(x) exp(-2 i pi x . xi) dx

discretized on centered uniform grids x_j = -L + j h, h = 2L/N.  On such a
grid the Riemann sum of the defining integral is computed exactly by an
FFT wrapped in fftshift/ifftshift plus the volume weight h^d:

    Fu(xi_k) = h^d  * fftshift(fftn(ifftshift(u)))       (forward)
    F^{-1}v(x_j) = (2 Lf)^d * fftshift(ifftn(ifftshift(v)))  (inverse)

with the frequency nodes xi_k = (k - N/2) / (2L), i.e. spacing 1/(2L) and
half-extent N/(4L).  ``inverse_fourier(fourier(u)) == u`` holds to machine
precision because the weights multiply out to one.  The shifts place the
node x = 0 at index N/2, which needs N even; :class:`Grid` refuses odd N.

``RELATIVE_CUT`` = 2^-60 is the one negligibility cut, relative to a peak;
the heat factor exp(-pi t^2 / 2) crosses it at ``BAND_HALFWIDTH``, so
assembly and ``heat.smooth`` skip the |t| beyond it.

Nothing here periodizes silently: fields are taken as literal samples, and
:meth:`SampledField.boundary_magnitude` reports how much mass sits on the
outermost shell so callers can pick L large enough for their tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gaussians import AnalyticGaussianSum

__all__ = [
    "Grid",
    "SampledField",
    "make_grid",
    "sample",
    "centered_fft",
    "fourier",
    "inverse_fourier",
    "phase_table",
    "inner",
    "GridMismatchError",
]

RELATIVE_CUT = 2.0**-60
# |t| beyond which e^{-pi t^2/2} < 2^-60 (about 5.1455)
BAND_HALFWIDTH = math.sqrt(-2.0 * math.log(RELATIVE_CUT) / math.pi)


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


@dataclass(frozen=True, eq=False)
class Grid:
    """Centered uniform grid on [-L, L)^dim with N nodes per axis, N even."""

    dim: int
    npoints: int
    half_extent: float

    def __post_init__(self):
        if self.npoints % 2 != 0:
            raise ValueError(f"npoints must be even (got {self.npoints})")

    def __eq__(self, other) -> bool:
        # Dual grids are rebuilt through divisions (L -> N/(4L) -> L), so
        # the box extent is compared to relative 1e-12, not bitwise.
        if not isinstance(other, Grid):
            return NotImplemented
        return (self.dim == other.dim
                and self.npoints == other.npoints
                and math.isclose(self.half_extent, other.half_extent,
                                 rel_tol=1e-12))

    def __hash__(self) -> int:
        return hash((self.dim, self.npoints))

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / self.npoints

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.npoints,) * self.dim

    @property
    def size(self) -> int:
        return self.npoints**self.dim

    def axis_nodes(self) -> np.ndarray:
        return -self.half_extent + self.spacing * np.arange(self.npoints)

    def axes(self) -> list[np.ndarray]:
        nodes = self.axis_nodes()
        return [nodes.copy() for _ in range(self.dim)]

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    @property
    def freq(self) -> "Grid":
        """Dual grid of the transform: spacing 1/(2L), half-extent N/(4L)."""
        return Grid(self.dim, self.npoints,
                    self.npoints / (4.0 * self.half_extent))

    def refined(self) -> "Grid":
        """Same box, doubled resolution (kernel carriers for half-steps)."""
        return Grid(self.dim, 2 * self.npoints, self.half_extent)

    def is_self_dual(self) -> bool:
        """True when the frequency nodes coincide with the position nodes."""
        return abs(self.spacing - 1.0 / (2.0 * self.half_extent)) \
            <= 1e-12 * self.spacing

    def index_of(self, coord: float) -> int:
        """Index of a coordinate that must sit on a node (checked)."""
        idx = (coord + self.half_extent) / self.spacing
        j = int(round(idx))
        if abs(idx - j) > 1e-9:
            raise ValueError(f"coordinate {coord} is not a grid node")
        return j


def make_grid(dim: int, npoints: int, half_extent: float) -> Grid:
    """Validated grid constructor.

    dim must be 1, 2 or 4 (positions and their phase spaces); npoints must
    be at least 8, and even (which :class:`Grid` checks itself) so the
    centered layout and the shift-based FFT wrapping are exact; powers of
    two are fastest but not required.
    """
    if dim not in (1, 2, 4):
        raise ValueError(f"dim must be one of 1, 2, 4 (got {dim})")
    if npoints < 8:
        raise ValueError(f"npoints must be at least 8 (got {npoints})")
    if not 0.0 < half_extent < math.inf:
        raise ValueError(
            f"half_extent must be positive and finite (got {half_extent})")
    return Grid(dim, npoints, float(half_extent))


@dataclass
class SampledField:
    """Samples of a function on a :class:`Grid` (row-major).

    The dtype follows the array given, never its values: a complex array is
    kept as complex128 and any other as float64, so a real field costs 8
    bytes per sample.  A float64 or complex128 array is kept without a copy.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex
                                 if np.iscomplexobj(self.values) else float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"shape {self.grid.shape}")
        if not np.isfinite(self.values).all():
            raise FloatingPointError("field contains NaN/Inf samples")

    def __sub__(self, other: "SampledField") -> "SampledField":
        require_same_grid(self, other)
        return SampledField(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "SampledField":
        return SampledField(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def boundary_magnitude(self) -> float:
        """Max |value| on the outermost index shell (truncation diagnostic),
        read face by face: the first and last slice along each axis."""
        return max(float(np.max(np.abs(self.values.take([0, -1], axis=a))))
                   for a in range(self.grid.dim))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2)
                             * self.grid.cell_volume))


def require_same_grid(f: SampledField, g: SampledField) -> None:
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")


def sample(f: AnalyticGaussianSum, g: Grid) -> SampledField:
    """Sample a Gaussian sum on the grid nodes."""
    if f.dim != g.dim:
        raise GridMismatchError(
            f"function dimension {f.dim} does not match grid dimension {g.dim}")
    return SampledField(g, f.eval_axes(g.axes()))


def centered_fft(vals: np.ndarray, axes=None,
                 inverse: bool = False) -> np.ndarray:
    """Unweighted fftshift(fftn(ifftshift(vals))) over ``axes`` (default
    all); ``inverse`` uses ifftn.  Callers apply the quadrature weight."""
    transform = np.fft.ifftn if inverse else np.fft.fftn
    return np.fft.fftshift(transform(np.fft.ifftshift(vals, axes=axes),
                                     axes=axes), axes=axes)


def fourier(f: SampledField) -> SampledField:
    """Discrete continuous-convention transform of a centered-grid field."""
    vals = centered_fft(f.values)
    vals *= f.grid.spacing**f.grid.dim
    return SampledField(f.grid.freq, vals)


def inverse_fourier(f: SampledField) -> SampledField:
    """Adjoint convention exp(+2 i pi x . xi); exact inverse of fourier()."""
    vals = centered_fft(f.values, inverse=True)
    vals *= (2.0 * f.grid.half_extent)**f.grid.dim
    return SampledField(f.grid.freq, vals)


def phase_table(x, scale: float, start: float, step: float,
                count: int) -> np.ndarray:
    """Rows e^{i scale (start + step j) x} for j < ``count``, shape
    (count, len(x)), by angle addition.

    With R = ceil(sqrt(count)) and j = R m + r, row j is the product of a
    coarse row e^{i scale (start + R m step) x} and a fine row
    e^{i scale r step x}, so about 2 sqrt(count) len(x) complex exps and one
    product per entry form the table.  Each entry lies within
    8 eps max(1, max|arg|) of its direct exp.  ``start`` and ``step``
    should come from the rule that defines the nodes, not from differences
    of rounded nodes.
    """
    x = np.asarray(x, dtype=float)
    fine_rows = math.isqrt(count - 1) + 1
    coarse_rows = -(-count // fine_rows)

    def rows(first, stride, n):
        return np.exp(1j * scale * np.multiply.outer(
            first + stride * np.arange(n), x))

    out = np.empty((coarse_rows, fine_rows) + x.shape, dtype=complex)
    np.multiply(rows(start, fine_rows * step, coarse_rows)[:, None],
                rows(0.0, step, fine_rows)[None], out=out)
    return out.reshape((-1,) + x.shape)[:count]


def inner(f: SampledField, g: SampledField) -> complex:
    """Quadrature of \\int f conj(g); conjugate-linear in the second slot.

    The reduction is numpy's pairwise-tree sum over the flattened row-major
    samples, which is deterministic for a fixed shape, so repeated runs are
    bit-reproducible.
    """
    require_same_grid(f, g)
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.cell_volume)
