"""Cell-centered rectangular grids with homogeneous-Neumann discrete operators.

Fields live at cell centers of a uniform 1D or 2D grid and are stored as flat
row-major (C-order) vectors. The Laplacian closes the boundary with mirror
ghost cells, which makes the zero-flux condition exact at cell faces and the
operator matrix symmetric with exactly vanishing row sums; quadrature is the
midpoint rule (value times cell volume).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FieldShapeError, GridError


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
        if any(e <= 0.0 for e in extents):
            raise GridError(f"extents must be positive, got {extents}")

    @property
    def dim(self) -> int:
        return len(self.cells_per_axis)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / n for e, n in zip(self.extent_per_axis, self.cells_per_axis))

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.cells_per_axis))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def volume(self) -> float:
        return float(np.prod(self.extent_per_axis))

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


@dataclass(frozen=True)
class ScalarField:
    """Real-valued field on a grid, flat row-major storage."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64).reshape(-1)
        if vals.size != self.grid.num_cells:
            raise FieldShapeError(
                f"field has {vals.size} values for a grid of {self.grid.num_cells} cells"
            )
        if not np.all(np.isfinite(vals)):
            raise FieldShapeError("field contains non-finite values")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.num_cells, float(value)))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def require_same_grid(*fields: ScalarField) -> GridSpec:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise FieldShapeError("fields live on different grids")
    return grid


def laplacian_array(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Mirror-ghost Neumann Laplacian acting on a flat value array.

    Second-order 3-point (1D) / 5-point (2D) stencil; the ghost value equals
    the adjacent interior value, so boundary rows reduce to (f_nb - f_0)/h^2.
    """
    if any(n < 2 for n in grid.cells_per_axis):
        raise GridError("Laplacian needs at least 2 cells per axis")
    f = values.reshape(grid.cells_per_axis)
    out = np.zeros_like(f)
    for axis, h in enumerate(grid.spacing):
        # views with this axis first; the ghost rows repeat the edge rows
        g = f.swapaxes(0, axis)
        n = g.shape[0]
        padded = np.concatenate((g[:1], g, g[n - 1:]))
        acc = out.swapaxes(0, axis)
        acc += (padded[:n] - 2.0 * g + padded[2:]) / (h * h)
    return out.reshape(-1)


def laplacian_neumann(f: ScalarField) -> ScalarField:
    """Discrete Laplacian with homogeneous Neumann closure."""
    return ScalarField(f.grid, laplacian_array(f.grid, f.values))


def inner_product(f: ScalarField, g: ScalarField) -> float:
    """Midpoint-quadrature L2 inner product: sum_i f_i g_i * cell_volume."""
    grid = require_same_grid(f, g)
    return float(np.dot(f.values, g.values) * grid.cell_volume)


def mass(f: ScalarField) -> float:
    """Integral of f over the domain (equals inner_product(f, 1))."""
    return float(np.sum(f.values) * f.grid.cell_volume)


def dense_laplacian_matrix(grid: GridSpec) -> np.ndarray:
    """Dense Neumann Laplacian matrix; test/oracle helper, small grids only."""
    n = grid.num_cells
    mat = np.zeros((n, n))
    eye = np.eye(n)
    for j in range(n):
        mat[:, j] = laplacian_array(grid, eye[:, j])
    return mat
