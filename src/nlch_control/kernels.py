"""Discretised symmetric convolution kernels and the restricted-domain
convolution (J*f)(x) = integral over the domain of J(x-y) f(y) dy.

On a uniform grid the operator matrix entry (i, j) depends only on x_i - x_j,
so the whole operator is a tap table over index offsets. The fast path is
zero-padded linear convolution (no periodic wraparound, matching the
integral's zero extension outside the domain): `build_kernel` pads each axis
of the tap table to a fast FFT length of at least 2n - 1, which is enough for
the restricted window, and keeps its real FFT. Every later convolution is then
one forward and one inverse transform of the field. A direct dense
application is kept for cross-checking. Both paths agree to relative 1e-12 by
contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import FieldShapeError, KernelResolutionError
from .geometry import GridSpec, ScalarField

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
        if not (self.amplitude > 0.0):
            raise KernelResolutionError("kernel amplitude must be positive")
        if not (self.width > 0.0):
            raise KernelResolutionError("kernel width must be positive")

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

    def gradient_magnitude_r2(self, r2: np.ndarray) -> np.ndarray:
        """|grad J| as a function of squared distance (analytic)."""
        r2 = np.asarray(r2, dtype=np.float64)
        r = np.sqrt(r2)
        d2 = self.width * self.width
        if self.family == "gaussian":
            return self.evaluate_r2(r2) * r / d2
        t2 = r2 / d2
        inside = t2 < 1.0
        out = np.zeros_like(r2)
        with np.errstate(divide="ignore", over="ignore"):
            one_minus = 1.0 - t2[inside]
            out[inside] = (
                self.evaluate_r2(r2)[inside]
                * 2.0
                * (r[inside] / self.width)
                / (self.width * one_minus * one_minus)
            )
        return out


@dataclass(frozen=True)
class KernelData:
    """Kernel sampled on a grid, with the induced weight field and bounds.

    taps[k...] holds J evaluated at every index offset (length 2n-1 per
    axis) and spectrum its zero-padded real FFT times the cell volume;
    a_field = J*1; a_star bounds sum_j |J(x_i-x_j)| vol and b_star the same
    with |grad J|. The time stepper keeps its most recent operator bundle in
    the operator slot, keyed on (params, dt) (see forward.step_operators).
    """

    spec: KernelSpec
    grid: GridSpec
    taps: np.ndarray = field(repr=False)
    spectrum: np.ndarray = field(repr=False)
    a_field: ScalarField = field(repr=False)
    a_star: float
    b_star: float
    operator_slot: list = field(default_factory=list, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        if np.min(self.a_field.values) < 0.0:
            raise KernelResolutionError("induced weight field a = J*1 must be nonnegative")
        if self.a_star < np.max(self.a_field.values) - 1e-12 * max(1.0, self.a_star):
            raise KernelResolutionError("a_star must dominate max(a_field)")
        if not np.isfinite(self.b_star):
            raise KernelResolutionError("b_star must be finite")


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
    return tuple(scipy.fft.next_fast_len(2 * n - 1, real=True) for n in grid.cells_per_axis)


def _tap_spectrum(taps: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Real FFT of a zero-padded tap table, times the cell volume."""
    return scipy.fft.rfftn(taps, s=_fft_shape(grid)) * grid.cell_volume


def _apply_spectrum(spectrum: np.ndarray, values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Zero-padded linear convolution with a tap spectrum, restricted to the grid."""
    shape = grid.cells_per_axis
    fft_shape = _fft_shape(grid)
    f_hat = scipy.fft.rfftn(values.reshape(shape), s=fft_shape)
    full = scipy.fft.irfftn(f_hat * spectrum, s=fft_shape)
    window = tuple(slice(n - 1, 2 * n - 1) for n in shape)
    return full[window].reshape(-1)


def build_kernel(spec: KernelSpec, grid: GridSpec) -> KernelData:
    """Sample the kernel on the grid and derive a = J*1, a_star and b_star.

    Rejects widths below half a cell spacing: such kernels alias (the grid
    cannot resolve them).
    """
    if spec.width < 0.5 * max(grid.spacing):
        raise KernelResolutionError(
            f"kernel width {spec.width} under-resolved on spacing {grid.spacing}; "
            "need width >= spacing / 2"
        )
    r2 = _offset_r2(grid)
    taps = spec.evaluate_r2(r2)
    spectrum = _tap_spectrum(taps, grid)
    ones = np.ones(grid.num_cells)
    # positive kernel families: clip quadrature noise, never sign changes
    a_field = ScalarField(grid, np.maximum(_apply_spectrum(spectrum, ones, grid), 0.0))
    abs_spectrum = _tap_spectrum(np.abs(taps), grid)
    a_star = float(np.max(_apply_spectrum(abs_spectrum, ones, grid)))
    grad_spectrum = _tap_spectrum(spec.gradient_magnitude_r2(r2), grid)
    b_star = float(np.max(_apply_spectrum(grad_spectrum, ones, grid)))
    return KernelData(spec=spec, grid=grid, taps=taps, spectrum=spectrum,
                      a_field=a_field, a_star=a_star, b_star=b_star)


def convolve(kernel: KernelData, f: ScalarField, method: str = "fft") -> ScalarField:
    """Apply the restricted-domain convolution J*f.

    method "fft" is the zero-padded fast path through the cached tap
    spectrum; "direct" applies the dense operator row by row and exists to
    witness that both agree.
    """
    if f.grid != kernel.grid:
        raise FieldShapeError("kernel and field grids differ")
    if method == "fft":
        return ScalarField(f.grid, _apply_spectrum(kernel.spectrum, f.values, f.grid))
    if method == "direct":
        mat = convolution_matrix(kernel)
        return ScalarField(f.grid, mat @ f.values)
    raise ValueError(f"unknown convolution method {method!r}")


def convolve_array(kernel: KernelData, values: np.ndarray) -> np.ndarray:
    """Raw-array convolution used in solver hot paths."""
    return _apply_spectrum(kernel.spectrum, values, kernel.grid)


def convolution_matrix(kernel: KernelData) -> np.ndarray:
    """Dense operator matrix K[i, j] = J(x_i - x_j) * cell_volume.

    Symmetric because J is even and the grid uniform. Intended for small
    grids (oracles and the direct convolution path).
    """
    grid = kernel.grid
    if grid.dim == 1:
        n = grid.cells_per_axis[0]
        idx = np.arange(n)
        off = idx[:, None] - idx[None, :] + (n - 1)
        return kernel.taps[off] * grid.cell_volume
    n0, n1 = grid.cells_per_axis
    i0 = np.arange(n0)
    i1 = np.arange(n1)
    off0 = i0[:, None] - i0[None, :] + (n0 - 1)
    off1 = i1[:, None] - i1[None, :] + (n1 - 1)
    mat = kernel.taps[off0[:, None, :, None], off1[None, :, None, :]]
    n = grid.num_cells
    return mat.reshape(n, n) * grid.cell_volume


def convolution_adjoint_check(kernel: KernelData, f: ScalarField, g: ScalarField) -> float:
    """Normalised self-adjointness defect |<J*f, g> - <f, J*g>| / (1 + |<J*f, g>|)."""
    from .geometry import inner_product

    lhs = inner_product(convolve(kernel, f), g)
    rhs = inner_product(f, convolve(kernel, g))
    return abs(lhs - rhs) / (1.0 + abs(lhs))
