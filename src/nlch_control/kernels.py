"""Discretised symmetric convolution kernels and the restricted-domain
convolution (J*f)(x) = integral over the domain of J(x-y) f(y) dy.

On a uniform grid the operator matrix entry (i, j) depends only on x_i - x_j,
so the whole operator is a tap table over index offsets. `build_kernel`
keeps one of two forms of it, together with the weight a = J*1 and its
bound a* that the ellipticity gate reads:

  1D, <= 256 cells   the dense matrix K = convolution_matrix(kernel); a
                     convolution is one matvec (numpy only),
  otherwise          the real FFT of the tap table zero-padded to a fast
                     length of at least 2n - 1 per axis: linear convolution
                     with no periodic wraparound, matching the integral's
                     zero extension outside the domain, and long enough for
                     the restricted window. A convolution is one forward and
                     one inverse transform of the field.

convolve_array also takes a stack of fields, shape (rows, cells), and gives
each row the bits it gets alone: the transforms act on each row
independently, and the dense product multiplies row by row (a BLAS
matrix-matrix product rounds differently from the matrix-vector one).
convolution_matrix builds the dense operator afresh from the taps as a
reference; both forms agree with it to relative 1e-12 by contract. The
crossover is geometry.DENSE_MAX_CELLS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FieldShapeError, KernelResolutionError
from .geometry import GridSpec, ScalarField, load_scipy, uses_dense_operators

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
                f"unknown kernel family {self.family!r}; choose from {_FAMILIES}"
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
    """Kernel sampled on a grid, with the induced weight field and its bound.

    taps[k...] holds J evaluated at every index offset (length 2n-1 per
    axis). The operator is kept in one form: matrix, the dense operator
    matrix, on the 1D grids with dense operators, otherwise spectrum, the
    zero-padded real FFT of the taps times the cell volume; the other is
    None. a_field = J*1 and a_star = max_i sum_j |J(x_i-x_j)| vol, the bound
    the ellipticity gate reads. The time stepper keeps its most recent operator
    bundle in the operator slot, keyed on (params, dt) (see
    forward.step_operators).
    """

    spec: KernelSpec
    grid: GridSpec
    taps: np.ndarray = field(repr=False)
    spectrum: np.ndarray | None = field(repr=False)
    matrix: np.ndarray | None = field(repr=False)
    a_field: ScalarField = field(repr=False)
    a_star: float
    operator_slot: list = field(default_factory=list, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        if np.min(self.a_field.values) < 0.0:
            raise KernelResolutionError("induced weight field a = J*1 must be nonnegative")
        if self.a_star < np.max(self.a_field.values) - 1e-12 * max(1.0, self.a_star):
            raise KernelResolutionError("a_star must dominate max(a_field)")


def _offset_r2(grid: GridSpec) -> np.ndarray:
    """Squared distance |x_i - x_j|^2 for every index offset, shape (2n-1, ...)."""
    axes = []
    for n, h in zip(grid.cells_per_axis, grid.spacing):
        offs = np.arange(-(n - 1), n) * h
        axes.append(offs)
    if grid.dim == 1:
        return axes[0] ** 2
    ox, oy = np.meshgrid(axes[0], axes[1], indexing="ij")
    return ox * ox + oy * oy


def _fft_shape(grid: GridSpec) -> tuple[int, ...]:
    """Per-axis transform length: the first fast length >= 2n - 1.

    Output index i of the restricted window reads the linear convolution at
    i + n - 1, which needs taps at offsets up to 2n - 2 from every input
    index; a length of 2n - 1 or more keeps those free of wraparound.
    """
    fft = load_scipy().fft
    return tuple(fft.next_fast_len(2 * n - 1, real=True) for n in grid.cells_per_axis)


def _tap_spectrum(taps: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Real FFT of a zero-padded tap table, times the cell volume."""
    return load_scipy().fft.rfftn(taps, s=_fft_shape(grid)) * grid.cell_volume


def _apply_spectrum(spectrum: np.ndarray, values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Zero-padded linear convolution with a tap spectrum, restricted to the
    grid; values is one field (cells,) or a stack of fields (rows, cells)."""
    fft = load_scipy().fft
    shape = grid.cells_per_axis
    fft_shape = _fft_shape(grid)
    lead = values.shape[:-1]
    # with s given and no axes, the transforms run over the last grid.dim axes
    f_hat = fft.rfftn(values.reshape(lead + shape), s=fft_shape)
    full = fft.irfftn(f_hat * spectrum, s=fft_shape)
    window = (Ellipsis,) + tuple(slice(n - 1, 2 * n - 1) for n in shape)
    return full[window].reshape(lead + (-1,))


def _taps_matrix(taps: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Dense operator matrix of a tap table: K[i, j] = J(x_i - x_j) * cell_volume."""
    if grid.dim == 1:
        n = grid.cells_per_axis[0]
        idx = np.arange(n)
        off = idx[:, None] - idx[None, :] + (n - 1)
        return taps[off] * grid.cell_volume
    n0, n1 = grid.cells_per_axis
    i0 = np.arange(n0)
    i1 = np.arange(n1)
    off0 = i0[:, None] - i0[None, :] + (n0 - 1)
    off1 = i1[:, None] - i1[None, :] + (n1 - 1)
    mat = taps[off0[:, None, :, None], off1[None, :, None, :]]
    n = grid.num_cells
    return mat.reshape(n, n) * grid.cell_volume


def _apply_matrix(matrix: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Dense operator times one field, or times each row of a stack of fields."""
    if values.ndim == 1:
        return matrix @ values
    out = np.empty_like(values)
    for row, field_values in zip(out, values):
        row[:] = matrix @ field_values
    return out


def build_kernel(spec: KernelSpec, grid: GridSpec) -> KernelData:
    """Sample the kernel on the grid and derive a = J*1 and a_star.

    Rejects widths below half a cell spacing: such kernels alias (the grid
    cannot resolve them).
    """
    if spec.width < 0.5 * max(grid.spacing):
        raise KernelResolutionError(
            f"kernel width {spec.width} under-resolved on spacing {grid.spacing}; "
            "need width >= spacing / 2"
        )
    taps = spec.evaluate_r2(_offset_r2(grid))
    spectrum = matrix = None
    if uses_dense_operators(grid):
        matrix = _taps_matrix(taps, grid)
        j_one = _apply_matrix(matrix, np.ones(grid.num_cells))
    else:
        spectrum = _tap_spectrum(taps, grid)
        j_one = _apply_spectrum(spectrum, np.ones(grid.num_cells), grid)
    # both families are nonnegative, so |taps| == taps and the bound
    # max_i sum_j |J(x_i-x_j)| vol is the max of the unclipped J*1 itself
    a_star = float(np.max(j_one))
    # clip quadrature noise, never sign changes
    a_field = ScalarField(grid, np.maximum(j_one, 0.0))
    return KernelData(spec=spec, grid=grid, taps=taps, spectrum=spectrum, matrix=matrix,
                      a_field=a_field, a_star=a_star)


def convolve(kernel: KernelData, f: ScalarField) -> ScalarField:
    """Apply the restricted-domain convolution J*f through the form the
    kernel keeps (convolve_array)."""
    if f.grid != kernel.grid:
        raise FieldShapeError("kernel and field grids differ")
    return ScalarField(f.grid, convolve_array(kernel, f.values))


def convolve_array(kernel: KernelData, values: np.ndarray) -> np.ndarray:
    """Raw-array convolution used in solver hot paths; values is one field
    (cells,) or a stack of fields (rows, cells)."""
    if kernel.matrix is not None:
        return _apply_matrix(kernel.matrix, values)
    return _apply_spectrum(kernel.spectrum, values, kernel.grid)


def convolution_matrix(kernel: KernelData) -> np.ndarray:
    """Dense operator matrix K[i, j] = J(x_i - x_j) * cell_volume.

    Symmetric because J is even and the grid uniform. Built afresh from the
    taps; intended for small grids, as the reference the tests compare the
    kept form against.
    """
    return _taps_matrix(kernel.taps, kernel.grid)
