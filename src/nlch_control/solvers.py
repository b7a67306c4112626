"""Symmetric positive-definite solves for the implicit parts of the scheme.

Every implicit update reduces to (D - L) x = b with D a positive diagonal and
L the mirror-ghost Neumann Laplacian, which is symmetric negative
semidefinite, so the system is SPD. Each solver is exact, is set up once and
is reused by every solve; the grid and the diagonal choose its method:

  1D, <= 256 cells    dense inverse, symmetrised (numpy only),
  2D, constant d      DCT-II diagonalisation by dense matrices (numpy only),
  otherwise           sparse LU with a minimum-degree ordering (SuperLU).

On a small 1D grid a solve is one matvec with 0.5 (M^-1 + M^-T): the two
halves make the matrix symmetric to the last bit, so the same product serves
as its own transpose in the adjoint. The crossover is
geometry.DENSE_MAX_CELLS.

On the cell-centred grid the mirror-ghost Laplacian is diagonalised by the
orthonormal DCT-II along each axis, with eigenvalues (2 cos(pi k/n) - 2)/h^2
(Strang, "The discrete cosine transform", SIAM Rev. 1999). A constant shift
keeps that basis, so the nutrient solve is C0^T ((C0 B C1^T) / den) C1 on
the right-hand side B shaped (n0, n1), with C0 and C1 the orthonormal DCT-II
matrices of the two axes: four matrix products and a division, the same
form as the 2D Gaussian convolution's T0 F T1. Per solve against scipy.fft's
dctn and idctn (2-vCPU x86): 40-60 against 100-150 us at 64^2, within 20 %
at 128^2, 1.7-2.3 against 1.0-1.6 ms at 256^2, where the phi LU solve
(8-9 ms) dominates the step. It spares every 2D run the scipy.fft import.
The phi operator's diagonal varies in space; its LU is ordered by minimum
degree on A + A^T, the ordering for symmetric matrices, and strict diagonal
dominance keeps SuperLU's pivots on the diagonal (Demmel, Eisenstat,
Gilbert, Li & Liu, SIAM J. Matrix Anal. Appl. 1999). The factorisation calls
scipy's compiled SuperLU module, loaded from its file by the first one, on
CSC arrays built here in numpy: a 2D run imports no scipy Python package
(peak RSS of a 64^2 gradcheck 71 -> 48 MB, 2-vCPU x86). A larger 1D grid takes the
LU for either diagonal: the tridiagonal factor solves faster than a pair of
1D DCTs (21 against 33 us per solve at 512 cells, 29 against 37 us at 1024,
2-vCPU x86).

The solves are direct because the transpose-exactness and mass-balance
contracts need solver error at machine level, which an iterative tolerance
cannot guarantee after accumulation over a trajectory.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .errors import SolverError
from .geometry import GridSpec, uses_dense_operators

_SUPERLU = "scipy.sparse.linalg._dsolve._superlu"
# what scipy.sparse.linalg.splu(A, permc_spec="MMD_AT_PLUS_A") hands to gstrf
_SUPERLU_OPTIONS = {"DiagPivotThresh": None, "ColPerm": "MMD_AT_PLUS_A",
                    "PanelSize": None, "Relax": None}


def _lap_1d_coeffs(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the 1D Neumann Laplacian."""
    inv_h2 = 1.0 / (h * h)
    diag = np.full(n, -2.0 * inv_h2)
    diag[0] = -inv_h2
    diag[-1] = -inv_h2
    off = np.full(n - 1, inv_h2)
    return diag, off


def dense_laplacian_matrix(grid: GridSpec) -> np.ndarray:
    """Dense Neumann Laplacian acting on flat C-order fields: the Kronecker
    sum of the per-axis tridiagonal operators."""
    axes = []
    for n, h in zip(grid.cells_per_axis, grid.spacing):
        diag, off = _lap_1d_coeffs(n, h)
        axes.append(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    if grid.dim == 1:
        return axes[0]
    n0, n1 = grid.cells_per_axis
    # summed in place: one (cells, cells) array fewer at the peak
    mat = np.kron(axes[0], np.eye(n1))
    mat += np.kron(np.eye(n0), axes[1])
    return mat


def _scipy_dirs() -> list[str]:
    """Directories of the installed scipy package; finding them runs none of
    its code."""
    spec = importlib.util.find_spec("scipy")
    return list(spec.submodule_search_locations or ()) if spec else []


def _superlu_error(message: str) -> SolverError:
    """SolverError for a SuperLU module that cannot be loaded or called,
    naming the installed scipy version."""
    from importlib import metadata
    try:
        version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        version = "not installed"
    return SolverError(f"{message} (scipy {version})")


def _superlu():
    """scipy's SuperLU extension module, loaded from its file alone.

    Importing scipy.sparse.linalg would load scipy.sparse, scipy.linalg, the
    iterative solvers and, through scipy's array API layer, numpy.f2py,
    numpy.testing and numpy.random: +32 MB of RSS and 0.2-0.3 s, against ~4 ms
    and 2 MB for the extension. sys.modules keeps it under its own name: a
    later call or scipy import reuses it, as this reuses one scipy loaded.
    """
    module = sys.modules.get(_SUPERLU)
    if module is not None:
        return module
    folders = [os.path.join(d, "sparse", "linalg", "_dsolve") for d in _scipy_dirs()]
    paths = [os.path.join(f, "_superlu" + suffix)
             for f in folders for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise _superlu_error(f"scipy's SuperLU extension is missing: searched {folders} "
                             f"for _superlu{{{','.join(importlib.machinery.EXTENSION_SUFFIXES)}}}")
    loader = importlib.machinery.ExtensionFileLoader(_SUPERLU, path)
    try:
        # module_from_spec opens the shared library, exec_module runs its init
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_SUPERLU, loader))
        loader.exec_module(module)
    except ImportError as exc:
        raise _superlu_error(f"cannot load {path}: {exc}") from exc
    sys.modules[_SUPERLU] = module
    return module


def _shifted_laplacian_csc(grid: GridSpec, diagonal: np.ndarray):
    """CSC arrays (data, indices, indptr) of diag(diagonal) - L on flat
    C-order fields, L the Neumann Laplacian.

    The matrix is symmetric, so these are also its CSR arrays: column j holds
    the neighbours of cell j along each axis and j itself, rows ascending.
    The diagonal entry is d_j minus the sum of the per-axis Laplacian
    diagonals, each off-diagonal entry -1/h^2 of its axis: entry for entry
    scipy's (diags(d) - L).tocsc() of the Kronecker-sum L.
    """
    shape = grid.cells_per_axis
    n = grid.num_cells
    index = np.indices(shape).reshape(grid.dim, n)
    strides = [math.prod(shape[k + 1:]) for k in range(grid.dim)]
    inv_h2 = [1.0 / (h * h) for h in grid.spacing]
    lap = sum(_lap_1d_coeffs(m, h)[0][i] for m, h, i in zip(shape, grid.spacing, index))
    # (offset, present, value) per slot; offsets ascend, so rows ascend
    slots = [(-s, i > 0, -w) for s, i, w in zip(strides, index, inv_h2)]
    slots.append((0, np.ones(n, dtype=bool), diagonal - lap))
    slots += [(s, i < m - 1, -w)
              for s, i, m, w in reversed(list(zip(strides, index, shape, inv_h2)))]
    present = np.stack([p for _, p, _ in slots], axis=1)
    values = np.stack([np.broadcast_to(v, n) for _, _, v in slots], axis=1)
    rows = np.arange(n)[:, None] + np.array([o for o, _, _ in slots])
    indptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    return values[present], rows[present].astype(np.intc), indptr


def _sparse_lu(grid: GridSpec, diagonal: np.ndarray):
    """SuperLU factorisation of diag(diagonal) - L, as splu(A,
    permc_spec="MMD_AT_PLUS_A") makes it."""
    data, indices, indptr = _shifted_laplacian_csc(grid, diagonal)
    superlu = _superlu()
    try:
        # csc_construct_func builds the L and U factors on access, which no
        # solve makes
        return superlu.gstrf(grid.num_cells, data.size, data, indices, indptr,
                             csc_construct_func=lambda *csc: csc, ilu=False,
                             options=_SUPERLU_OPTIONS)
    except (TypeError, ValueError, RuntimeError) as exc:
        raise _superlu_error(f"SuperLU from {superlu.__file__} "
                             f"rejected the factorisation: {exc}") from exc


def _dct2_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix C[k, j] = s_k cos(pi k (2j + 1) / 2n), with
    s_0 = sqrt(1/n) and s_k = sqrt(2/n): C f holds the coefficients of f in
    the eigenbasis of the 1D mirror-ghost Laplacian, and C^T inverts it."""
    k = np.arange(n)
    # cos has period 4n in k (2j + 1): reduced exactly in integers, the
    # angle stays below 2 pi and carries no rounding of a large argument
    mat = np.cos(np.pi * (np.outer(k, 2 * k + 1) % (4 * n)) / (2 * n)) * np.sqrt(2.0 / n)
    mat[0] = np.sqrt(1.0 / n)
    return mat


class ShiftedLaplacianSolver:
    """Solver for (diag(d) - L) x = b on a fixed grid.

    The diagonal d must be finite and strictly positive. The inverse,
    factorisation or DCT matrices and denominators are built once and reused
    across time steps and sensitivity sweeps.
    """

    def __init__(self, grid: GridSpec, diagonal: np.ndarray):
        diagonal = np.asarray(diagonal, dtype=np.float64).reshape(-1)
        if diagonal.size != grid.num_cells:
            raise SolverError("diagonal size does not match grid")
        if not np.all(np.isfinite(diagonal) & (diagonal > 0.0)):
            raise SolverError(
                "implicit diagonal must be strictly positive "
                "(increase lambda_s or check the kernel weight field)")
        self.grid = grid
        self._inverse = None
        self._lu = None
        self._dct = None
        if uses_dense_operators(grid):
            inverse = np.linalg.inv(np.diag(diagonal) - dense_laplacian_matrix(grid))
            self._inverse = 0.5 * (inverse + inverse.T)
            return
        if grid.dim == 2 and np.all(diagonal == diagonal[0]):
            eig = [(2.0 * np.cos(np.pi * np.arange(n) / n) - 2.0) / (h * h)
                   for n, h in zip(grid.cells_per_axis, grid.spacing)]
            c0, c1 = (_dct2_matrix(n) for n in grid.cells_per_axis)
            self._dct = (c0, c1, diagonal[0] - (eig[0][:, None] + eig[1][None, :]))
        else:
            self._lu = _sparse_lu(grid, diagonal)

    def solve(self, b: np.ndarray) -> np.ndarray:
        # non-finite input gives a non-finite solution on every path; the
        # time stepper reports it as an instability
        if self._inverse is not None:
            return self._inverse @ b
        if self._dct is not None:
            c0, c1, denominator = self._dct
            coeffs = c0 @ b.reshape(self.grid.cells_per_axis) @ c1.T
            return (c0.T @ (coeffs / denominator) @ c1).reshape(-1)
        return self._lu.solve(b)
