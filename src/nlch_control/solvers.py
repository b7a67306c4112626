"""Symmetric positive-definite solves for the implicit parts of the scheme.

Every implicit update reduces to (D - L) x = b with D a positive diagonal and
L the mirror-ghost Neumann Laplacian, which is symmetric negative
semidefinite, so the system is SPD. Each solver is exact, is set up once and
is reused by every solve; the grid and the diagonal choose its method:

  1D                  banded Cholesky,
  2D, constant d      DCT-II diagonalisation (no factorisation),
  2D, varying d       sparse LU with a minimum-degree ordering.

On the cell-centred grid the mirror-ghost Laplacian is diagonalised by the
orthonormal DCT-II along each axis, with eigenvalues (2 cos(pi k/n) - 2)/h^2
(Strang, "The discrete cosine transform", SIAM Rev. 1999). A constant shift
keeps that basis, so the nutrient solve is two transforms and a division.
The phi operator's diagonal varies in space; its LU is ordered by minimum
degree on A + A^T, the ordering for symmetric matrices, and strict diagonal
dominance keeps SuperLU's pivots on the diagonal.

The solves are direct because the transpose-exactness and mass-balance
contracts need solver error at machine level, which an iterative tolerance
cannot guarantee after accumulation over a trajectory.
"""

from __future__ import annotations

import numpy as np
import scipy.fft
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse.linalg import splu

from .errors import SolverError
from .geometry import GridSpec


def _lap_1d_coeffs(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the 1D Neumann Laplacian."""
    inv_h2 = 1.0 / (h * h)
    diag = np.full(n, -2.0 * inv_h2)
    diag[0] = -inv_h2
    diag[-1] = -inv_h2
    off = np.full(n - 1, inv_h2)
    return diag, off


def _lap_sparse_1d(n: int, h: float) -> sp.csr_matrix:
    diag, off = _lap_1d_coeffs(n, h)
    return sp.diags([off, diag, off], offsets=[-1, 0, 1], format="csr")


def neumann_laplacian_sparse(grid: GridSpec) -> sp.csr_matrix:
    """Sparse Neumann Laplacian acting on flat C-order fields."""
    if grid.dim == 1:
        return _lap_sparse_1d(grid.cells_per_axis[0], grid.spacing[0])
    n0, n1 = grid.cells_per_axis
    h0, h1 = grid.spacing
    lap0 = _lap_sparse_1d(n0, h0)
    lap1 = _lap_sparse_1d(n1, h1)
    eye0 = sp.identity(n0, format="csr")
    eye1 = sp.identity(n1, format="csr")
    return (sp.kron(lap0, eye1) + sp.kron(eye0, lap1)).tocsr()


class ShiftedLaplacianSolver:
    """Solver for (diag(d) - L) x = b on a fixed grid.

    The diagonal d must be finite and strictly positive. Factorisations (or
    the DCT denominators) are built once and reused across time steps and
    sensitivity sweeps.
    """

    def __init__(self, grid: GridSpec, diagonal: np.ndarray):
        diagonal = np.asarray(diagonal, dtype=np.float64).reshape(-1)
        if diagonal.size != grid.num_cells:
            raise SolverError("diagonal size does not match grid", 0, float("nan"))
        if not np.all(np.isfinite(diagonal) & (diagonal > 0.0)):
            raise SolverError(
                "implicit diagonal must be strictly positive "
                "(increase lambda_s or check the kernel weight field)",
                0,
                float("nan"),
            )
        self.grid = grid
        self._banded_chol = None
        self._lu = None
        self._dct_denominator = None
        if grid.dim == 1:
            n = grid.cells_per_axis[0]
            lap_diag, lap_off = _lap_1d_coeffs(n, grid.spacing[0])
            ab = np.zeros((2, n))
            ab[0, 1:] = -lap_off
            ab[1, :] = diagonal - lap_diag
            self._banded_chol = cholesky_banded(ab)
        elif np.all(diagonal == diagonal[0]):
            eig = [(2.0 * np.cos(np.pi * np.arange(n) / n) - 2.0) / (h * h)
                   for n, h in zip(grid.cells_per_axis, grid.spacing)]
            self._dct_denominator = diagonal[0] - (eig[0][:, None] + eig[1][None, :])
        else:
            mat = sp.diags(diagonal) - neumann_laplacian_sparse(grid)
            self._lu = splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A")

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self._banded_chol is not None:
            # non-finite input gives a non-finite solution, as in 2D; the
            # time stepper reports it as an instability
            return cho_solve_banded((self._banded_chol, False), b, check_finite=False)
        if self._dct_denominator is not None:
            coeffs = scipy.fft.dctn(b.reshape(self.grid.cells_per_axis), type=2, norm="ortho")
            x = scipy.fft.idctn(coeffs / self._dct_denominator, type=2, norm="ortho")
            return x.reshape(-1)
        return self._lu.solve(b)
