"""Discretised symmetric convolution kernels and the restricted-domain
convolution (J*f)(x) = integral over the domain of J(x-y) f(y) dy.

On a uniform grid the operator matrix entry (i, j) depends only on x_i - x_j,
so the whole operator is a tap table over index offsets. `build_kernel`
keeps one of two forms of it, chosen from the kernel's structure, together
with the weight a = J*1, whose minimum the ellipticity gate reads:

  factors    per-axis dense Toeplitz matrices whose Kronecker product is the
             operator; a convolution is one product per axis (numpy only).
             1D grids of at most 256 cells keep one factor, the dense
             matrix K = convolution_matrix(kernel), applied as one matvec.
             The 2D Gaussian exp(-|z|^2 / 2d^2) factors per axis, so every
             2D Gaussian grid keeps T0 (with the amplitude) and T1 and
             applies J*f as T0 F T1 on the field F shaped (n0, n1): two
             matrix-matrix products instead of two 2D transforms.
  spectrum   every other grid: the real FFT (numpy.fft) of the taps inside
             the reach, zero-padded per axis to a 5-smooth length of at
             least n + R, kept on the kernel as fft_shape. The reach R is
             the furthest index offset with a nonzero tap: for the
             mollifier min(n - 1, ceil(width / h) - 1), for the Gaussian
             n - 1. The window R .. R + n of the linear convolution is free
             of wraparound at that length (see _fft_shape); with R = n - 1
             it is the full 2n - 1 rule. A convolution is one forward and one
             inverse transform of the field.

Neither form needs scipy.

convolve_array applies either form to one field, a flat array of
grid.num_cells values. The full tap table, over
every index offset, is sampled only where a form is built from it (the 1D
dense matrix and the spectrum) and is not kept; the 2D Gaussian samples one
row per axis. convolution_matrix samples the table afresh and builds the
dense operator from it as a reference; both forms agree with it to relative
1e-12 by contract. The 1D crossover is geometry.DENSE_MAX_CELLS.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import KernelResolutionError
from .geometry import GridSpec, cell_array, uses_dense_operators

_FAMILIES = ("gaussian", "mollifier")


@dataclass(frozen=True)
class KernelSpec:
    """Symmetric kernel family with amplitude and interaction width.

    gaussian:  J(z) = amplitude * exp(-|z|^2 / (2 width^2))
    mollifier: J(z) = amplitude * exp(-1 / (1 - |z/width|^2)) for |z| < width,
               zero outside (compact support).
    Both are even and radially non-increasing.
    """

    family: str
    amplitude: float
    width: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise KernelResolutionError(
                f"unknown kernel family {self.family!r}, choose from {_FAMILIES}"
            )
        if not (0.0 < self.amplitude < np.inf):
            raise KernelResolutionError("kernel amplitude must be positive and finite")
        if not (0.0 < self.width < np.inf):
            raise KernelResolutionError("kernel width must be positive and finite")

    def evaluate_r2(self, r2: np.ndarray) -> np.ndarray:
        """Kernel value as a function of squared distance."""
        r2 = np.asarray(r2, dtype=np.float64)
        d2 = self.width * self.width
        if self.family == "gaussian":
            return self.amplitude * np.exp(-r2 / (2.0 * d2))
        t2 = r2 / d2
        inside = t2 < 1.0
        out = np.zeros_like(r2)
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = self.amplitude * np.exp(-1.0 / (1.0 - t2[inside]))
        return out


@dataclass(frozen=True)
class KernelData:
    """Kernel sampled on a grid, with the induced weight field.

    reach[k] is the furthest index offset along axis k at which J is nonzero.
    The operator is kept in one form, the other is None: factors, the
    per-axis dense matrices whose Kronecker product is the operator (one on
    the 1D grids with dense operators, two for the 2D Gaussian), or
    spectrum, the zero-padded real FFT of the taps within the reach times
    the cell volume, with fft_shape, the transform length per axis it was
    taken at (None with factors). a = J*1, one finite nonnegative value per
    cell (shape (cells,)); the ellipticity gate reads min(a), and max(a) is
    the row-sum bound max_i sum_j |J(x_i-x_j)| vol, since J >= 0. The time
    stepper keeps its most recent operator bundle in the operator slot,
    keyed on (params, dt) (see forward.step_operators).

    Everything but (spec, grid, reach) is a deterministic function of
    (spec, grid), so equality and the hash read only those three: two
    builds of one kernel on one grid compare equal.
    """

    spec: KernelSpec
    grid: GridSpec
    reach: tuple[int, ...]
    factors: tuple[np.ndarray, ...] | None = field(repr=False, compare=False)
    spectrum: np.ndarray | None = field(repr=False, compare=False)
    a: np.ndarray = field(repr=False, compare=False)
    fft_shape: tuple[int, ...] | None = field(default=None, repr=False, compare=False)
    operator_slot: list = field(default_factory=list, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        a = cell_array(self.a, self.grid, "weight a")
        if np.min(a) < 0.0:
            raise KernelResolutionError("induced weight field a = J*1 must be nonnegative")
        object.__setattr__(self, "a", a)


def _axis_offsets(grid: GridSpec) -> list[np.ndarray]:
    """Per-axis distance x_i - x_j of every index offset -(n-1) .. n-1."""
    return [np.arange(-(n - 1), n) * h for n, h in zip(grid.cells_per_axis, grid.spacing)]


def _offset_r2(grid: GridSpec) -> np.ndarray:
    """Squared distance |x_i - x_j|^2 for every index offset, shape (2n-1, ...)."""
    axes = _axis_offsets(grid)
    if grid.dim == 1:
        return axes[0] ** 2
    ox, oy = np.meshgrid(axes[0], axes[1], indexing="ij")
    return ox * ox + oy * oy


def _row_reach(row: np.ndarray) -> int:
    """Furthest offset from the centre of a 1D row over offsets -(n-1) .. n-1
    at which the row is nonzero."""
    return int(np.max(np.abs(np.flatnonzero(row) - row.size // 2)))


def _reach(taps: np.ndarray) -> tuple[int, ...]:
    """Furthest index offset per axis at which some tap is nonzero."""
    axes = range(taps.ndim)
    return tuple(_row_reach(np.any(taps, axis=tuple(a for a in axes if a != axis)))
                 for axis in axes)


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth number 2^a 3^b 5^c >= n, for n >= 1: the length
    scipy.fft.next_fast_len(n, real=True) returns."""
    best = 1 << (n - 1).bit_length()  # the least power of two >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 = 3^b 5^c times the least power of two that reaches n
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fft_shape(grid: GridSpec, reach: tuple[int, ...]) -> tuple[int, ...]:
    """Per-axis transform length: the first fast length >= n + R.

    The taps at offsets -R..R sit at indices 0..2R. Output i of the
    restricted window reads the circular convolution at i + R, which takes
    tap index i - j + R from input j, between R - n + 1 and R + n - 1; every
    index outside 0..2R must land on zero padding, which a length of n + R
    or more ensures.
    """
    return tuple(next_fast_len(n + r) for n, r in zip(grid.cells_per_axis, reach))


def _tap_spectrum(taps: np.ndarray, grid: GridSpec, reach: tuple[int, ...],
                  fft_shape: tuple[int, ...]) -> np.ndarray:
    """Real FFT of the taps within the reach, zero-padded, times the cell volume."""
    inside = tuple(slice(n - 1 - r, n + r) for n, r in zip(grid.cells_per_axis, reach))
    axes = tuple(range(grid.dim))
    return np.fft.rfftn(taps[inside], s=fft_shape, axes=axes) * grid.cell_volume


def _apply_spectrum(spectrum: np.ndarray, reach: tuple[int, ...],
                    fft_shape: tuple[int, ...], values: np.ndarray,
                    grid: GridSpec) -> np.ndarray:
    """Zero-padded linear convolution of one field with a tap spectrum,
    restricted to the grid."""
    shape = grid.cells_per_axis
    axes = tuple(range(grid.dim))
    f_hat = np.fft.rfftn(values.reshape(shape), s=fft_shape, axes=axes)
    full = np.fft.irfftn(f_hat * spectrum, s=fft_shape, axes=axes)
    window = tuple(slice(r, r + n) for n, r in zip(shape, reach))
    return full[window].reshape(-1)


def _toeplitz(taps: np.ndarray, cells: tuple[int, ...]) -> np.ndarray:
    """Matrix M[i, j] = taps[i - j + n - 1], per axis over the row-major
    multi-indices i, j of the cells, of a tap table over offsets
    -(n - 1) .. n - 1: a strided view of the reversed taps, copied only to
    flatten more than one axis."""
    flip = (slice(None, None, -1),) * len(cells)
    n = math.prod(cells)
    return sliding_window_view(taps[flip], cells)[flip].reshape(n, n)


def _taps_matrix(taps: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Dense operator matrix of a tap table: K[i, j] = J(x_i - x_j) * cell_volume."""
    return _toeplitz(taps, grid.cells_per_axis) * grid.cell_volume


def _gaussian_factors(spec: KernelSpec, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis Toeplitz factors of the 2D Gaussian, J(z) = amp g(z_0) g(z_1)
    with g(s) = exp(-s^2 / 2d^2): T0 = amp g(offsets_0) h_0, T1 = g(offsets_1) h_1.
    Both are symmetric."""
    unit = dataclasses.replace(spec, amplitude=1.0)
    (o0, o1), (n0, n1), (h0, h1) = _axis_offsets(grid), grid.cells_per_axis, grid.spacing
    return (_toeplitz(spec.evaluate_r2(o0 * o0), (n0,)) * h0,
            _toeplitz(unit.evaluate_r2(o1 * o1), (n1,)) * h1)


def _apply_factors(factors: tuple[np.ndarray, ...], values: np.ndarray,
                   grid: GridSpec) -> np.ndarray:
    """Kronecker product of per-axis factors times one field."""
    if len(factors) == 1:
        return factors[0] @ values
    t0, t1 = factors
    # T1 is symmetric: F T1 is F T1^T
    return (t0 @ values.reshape(grid.cells_per_axis) @ t1).reshape(-1)


def _largest_tables(spec: KernelSpec, grid: GridSpec) -> int:
    """float64 values of the largest tables build_kernel holds together: the
    two Toeplitz factors of the 2D Gaussian; on every other grid the full tap
    table and, without dense operators, the spectrum at the longest transform
    any reach can need (R = n - 1), two values per complex entry."""
    cells = grid.cells_per_axis
    if spec.family == "gaussian" and grid.dim == 2:
        return sum(n * n for n in cells)
    values = math.prod(2 * n - 1 for n in cells)
    if not uses_dense_operators(grid):
        shape = _fft_shape(grid, tuple(n - 1 for n in cells))
        values += 2 * math.prod(shape[:-1]) * (shape[-1] // 2 + 1)
    return values


def build_kernel(spec: KernelSpec, grid: GridSpec) -> KernelData:
    """Sample the kernel on the grid, keep the form its structure allows and
    derive a = J*1.

    Rejects widths below half a cell spacing: such kernels alias (the grid
    cannot resolve them). Asks numpy for its largest tables (never written)
    before it samples or writes any smaller one, so a grid whose tables do
    not fit raises MemoryError (ValueError past numpy's index range) before
    anything grows with the cells per axis.
    """
    if spec.width < 0.5 * max(grid.spacing):
        raise KernelResolutionError(
            f"kernel width {spec.width} under-resolved on spacing {grid.spacing}: "
            "need width >= spacing / 2"
        )
    np.empty(_largest_tables(spec, grid))
    factors = spectrum = fft_shape = None
    if spec.family == "gaussian" and grid.dim == 2:
        factors = _gaussian_factors(spec, grid)
        # J decreases with distance, so J on axis k is nonzero wherever some
        # tap at that offset along axis k is: the rows give the reach
        reach = tuple(_row_reach(spec.evaluate_r2(o * o)) for o in _axis_offsets(grid))
    else:
        taps = spec.evaluate_r2(_offset_r2(grid))
        reach = _reach(taps)
        if uses_dense_operators(grid):
            factors = (_taps_matrix(taps, grid),)
        else:
            fft_shape = _fft_shape(grid, reach)
            spectrum = _tap_spectrum(taps, grid, reach, fft_shape)
    ones = np.ones(grid.num_cells)
    if factors is None:
        j_one = _apply_spectrum(spectrum, reach, fft_shape, ones, grid)
    elif len(factors) == 1:
        j_one = _apply_factors(factors, ones, grid)
    else:
        # _apply_factors with the second product written over the ones, so
        # that the build holds at most two fields beside the factors
        t0, t1 = factors
        field_ones = ones.reshape(grid.cells_per_axis)
        np.matmul(t0 @ field_ones, t1, out=field_ones)
        j_one = ones
    # clip quadrature noise, never sign changes
    return KernelData(spec=spec, grid=grid, reach=reach, factors=factors,
                      spectrum=spectrum, a=np.maximum(j_one, 0.0), fft_shape=fft_shape)


def convolve_array(kernel: KernelData, values: np.ndarray) -> np.ndarray:
    """The restricted-domain convolution J*f of one field (cells,), through
    the form the kernel keeps."""
    if kernel.factors is not None:
        return _apply_factors(kernel.factors, values, kernel.grid)
    return _apply_spectrum(kernel.spectrum, kernel.reach, kernel.fft_shape, values,
                           kernel.grid)


def convolution_matrix(kernel: KernelData) -> np.ndarray:
    """Dense operator matrix K[i, j] = J(x_i - x_j) * cell_volume.

    Symmetric because J is even and the grid uniform. Built afresh from a
    freshly sampled full tap table, not from the kept form; intended for
    small grids, as the reference the tests compare the kept form against.
    """
    grid = kernel.grid
    return _taps_matrix(kernel.spec.evaluate_r2(_offset_r2(grid)), grid)
