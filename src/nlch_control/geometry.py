"""Cell-centered rectangular grids with homogeneous-Neumann discrete operators.

Fields live at cell centers of a uniform 1D or 2D grid and are stored as flat
row-major (C-order) vectors: inside the solver a float64 array of
grid.num_cells values, a ScalarField (the array checked against its grid)
only where a field enters a run or leaves it for output. The Laplacian
closes the boundary with mirror ghost cells, which makes the zero-flux
condition exact at cell faces and the operator matrix symmetric with exactly
vanishing row sums; quadrature is the midpoint rule (value times cell
volume).

A 1D grid of at most DENSE_MAX_CELLS cells holds each operator of the scheme
(convolution, Laplacian, implicit solves) as a dense matrix and applies it as
one matvec, which needs numpy alone. Larger 1D grids and every 2D grid
convolve through numpy.fft or per-axis dense products and solve through
DCT-II matrices or a sparse LU. Only the LU needs scipy, and of it only the
compiled SuperLU module, which solvers loads from its file at the first
factorisation: no scipy Python package is imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldShapeError, GridError

# Crossover of the per-call cost: at 512 cells a dense matvec is dearer than
# an FFT convolution or a sparse LU solve (62 against 21 us for a solve, 2-vCPU
# x86), at 256 about as cheap (10.5 against 9.4 us). End to end at 256 cells
# (default OpenBLAS threads) an optimize runs faster dense than on FFT and LU
# operators (0.051 against 0.071 s) and a 1000-step simulate within noise.
DENSE_MAX_CELLS = 256

# Longest dot product inner_product hands to BLAS in one call (see there).
DOT_CHUNK = 8192


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid on a rectangle.

    cells_per_axis and extent_per_axis have one entry per axis; spacing is
    derived as extent / cells.
    """

    cells_per_axis: tuple[int, ...]
    extent_per_axis: tuple[float, ...]

    def __post_init__(self):
        cells = tuple(int(n) for n in self.cells_per_axis)
        extents = tuple(float(e) for e in self.extent_per_axis)
        object.__setattr__(self, "cells_per_axis", cells)
        object.__setattr__(self, "extent_per_axis", extents)
        if len(cells) not in (1, 2):
            raise GridError(f"grid dimension must be 1 or 2, got {len(cells)}")
        if len(extents) != len(cells):
            raise GridError("cells_per_axis and extent_per_axis lengths differ")
        if any(n < 2 for n in cells):
            raise GridError(f"need at least 2 cells per axis, got {cells}")
        if not all(0.0 < e < math.inf for e in extents):
            raise GridError(f"extents must be positive and finite, got {extents}")

    @property
    def dim(self) -> int:
        return len(self.cells_per_axis)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / n for e, n in zip(self.extent_per_axis, self.cells_per_axis))

    @property
    def num_cells(self) -> int:
        # exact: np.prod wraps around in int64 (cells (2**32, 2**32) give 0)
        return math.prod(self.cells_per_axis)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def cell_centers(self) -> list[np.ndarray]:
        """Per-axis coordinate arrays of cell centers."""
        return [
            (np.arange(n) + 0.5) * h
            for n, h in zip(self.cells_per_axis, self.spacing)
        ]

    def mesh(self) -> list[np.ndarray]:
        """Coordinate arrays broadcast to the full grid shape (C-order)."""
        axes = self.cell_centers()
        if self.dim == 1:
            return [axes[0]]
        return list(np.meshgrid(*axes, indexing="ij"))


def cell_array(values, grid: GridSpec, name: str, ndim: int = 1) -> np.ndarray:
    """The array contract of every value class holding cell data: values as
    a float64 array of ndim axes, the last of grid.num_cells entries, all
    finite, else FieldShapeError naming it. A float64 array is not copied.

    A broadcast value is checked over the memory it holds: every axis of
    stride 0 (a row repeated by np.broadcast_to) is read at its first entry
    alone, so a control constant in time costs one row of cells to check,
    not (steps, cells)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim or arr.shape[-1] != grid.num_cells:
        raise FieldShapeError(f"{name} has shape {arr.shape}, need {ndim} axes, "
                              f"the last of {grid.num_cells} cells")
    # a slice, not an index, so an empty axis stays empty
    held = arr[tuple(slice(1) if s == 0 else slice(None) for s in arr.strides)]
    if not np.all(np.isfinite(held)):
        raise FieldShapeError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real-valued field on a grid, flat row-major storage: one finite value
    per cell, checked on construction. Compares and hashes by identity."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values",
                           cell_array(np.ravel(self.values), self.grid, "field"))

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.num_cells, float(value)))


def uses_dense_operators(grid: GridSpec) -> bool:
    """True on the 1D grids whose operators are dense matrices."""
    return grid.dim == 1 and grid.num_cells <= DENSE_MAX_CELLS


def laplacian_array(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Mirror-ghost Neumann Laplacian acting on a flat value array.

    Second-order 3-point (1D) / 5-point (2D) stencil; the ghost value equals
    the adjacent interior value, so boundary rows reduce to (f_nb - f_0)/h^2.
    """
    f = values.reshape(grid.cells_per_axis)
    out = np.zeros_like(f)
    for axis, h in enumerate(grid.spacing):
        # views with this axis first; each row takes (-2 g + left) + right,
        # the edge rows their own value as the ghost neighbour
        g = f.swapaxes(0, axis)
        term = g * -2.0
        term[1:] += g[:-1]
        term[:1] += g[:1]
        term[:-1] += g[1:]
        term[-1:] += g[-1:]
        term /= h * h
        acc = out.swapaxes(0, axis)
        acc += term
    return out.reshape(-1)


def inner_product(x: np.ndarray, y: np.ndarray, cell_volume: float) -> float:
    """Midpoint-quadrature L2 inner product of two fields of one grid:
    sum_i x_i y_i * cell_volume.

    OpenBLAS splits a dot product of more than 10000 values over its
    threads, so its rounding would follow the thread count; a longer product
    is summed in order from chunks of DOT_CHUNK values, each on one thread.
    """
    dot = np.dot(x[:DOT_CHUNK], y[:DOT_CHUNK])
    for start in range(DOT_CHUNK, x.size, DOT_CHUNK):
        dot += np.dot(x[start:start + DOT_CHUNK], y[start:start + DOT_CHUNK])
    return float(dot * cell_volume)


def qt_inner_product(a_u: np.ndarray, a_v: np.ndarray, b_u: np.ndarray, b_v: np.ndarray,
                     cell_volume: float, dt: float) -> float:
    """Discrete L2(Q_T)^2 inner product of the pairs (a_u, a_v) and (b_u, b_v)
    of space-time arrays: (sum a_u b_u + sum a_v b_v) * cell_volume * dt;
    dt = 1.0 leaves out the time weight exactly. The control pairings, the
    PGD steps and the gradcheck probes pair through it; control.cost keeps
    its own sums, grouped differently."""
    return float((np.sum(a_u * b_u) + np.sum(a_v * b_v)) * cell_volume * dt)


def mass(values: np.ndarray, cell_volume: float) -> float:
    """Integral of a field over the domain (equals inner_product(values, 1))."""
    return float(np.sum(values) * cell_volume)

