"""Symmetric positive-definite solves for the implicit parts of the scheme.

Every implicit update reduces to (D - L) x = b with D a positive diagonal and
L the mirror-ghost Neumann Laplacian, which is symmetric negative
semidefinite, so the system is SPD. Two interchangeable backends:

  direct: exact factorisation (banded Cholesky in 1D, sparse LU in 2D),
          computed once per solver and reused by every solve,
  cg:     matrix-free conjugate gradients to a relative residual,
          with a fixed reduction order so runs are bitwise reproducible.

The direct backend is the default: the transpose-exactness and mass-balance
contracts need solver error at machine level, which an iterative tolerance
cannot guarantee after accumulation over a trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse.linalg import splu

from .errors import SolverError
from .geometry import GridSpec, laplacian_array


@dataclass(frozen=True)
class SolverOptions:
    method: str = "direct"
    cg_tol: float = 1e-10
    cg_max_iter: int = 10_000

    def __post_init__(self):
        if self.method not in ("direct", "cg"):
            raise ValueError(f"unknown solver method {self.method!r}")


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

    The diagonal d must be strictly positive. Factorisations are built once
    and reused across time steps and sensitivity sweeps.
    """

    def __init__(self, grid: GridSpec, diagonal: np.ndarray, options: SolverOptions):
        diagonal = np.asarray(diagonal, dtype=np.float64).reshape(-1)
        if diagonal.size != grid.num_cells:
            raise SolverError("diagonal size does not match grid", 0, float("nan"))
        if np.min(diagonal) <= 0.0:
            raise SolverError(
                "implicit diagonal must be strictly positive "
                "(increase lambda_s or check the kernel weight field)",
                0,
                float("nan"),
            )
        self.grid = grid
        self.diagonal = diagonal
        self.options = options
        self._banded_chol = None
        self._lu = None
        self._inv_jacobi = None
        if options.method == "cg":
            # Jacobi preconditioning keeps iteration counts flat across dt
            self._inv_jacobi = 1.0 / (diagonal + self._lap_diagonal())
        elif grid.dim == 1:
            n = grid.cells_per_axis[0]
            lap_diag, lap_off = _lap_1d_coeffs(n, grid.spacing[0])
            ab = np.zeros((2, n))
            ab[0, 1:] = -lap_off
            ab[1, :] = diagonal - lap_diag
            self._banded_chol = cholesky_banded(ab)
        else:
            mat = sp.diags(diagonal) - neumann_laplacian_sparse(grid)
            self._lu = splu(mat.tocsc())

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.diagonal * x - laplacian_array(self.grid, x)

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.options.method == "direct":
            if self._banded_chol is not None:
                # non-finite input gives a non-finite solution, as in the 2D
                # backend; the time stepper reports it as an instability
                return cho_solve_banded((self._banded_chol, False), b, check_finite=False)
            return self._lu.solve(b)
        return self._solve_cg(b)

    def _solve_cg(self, b: np.ndarray) -> np.ndarray:
        tol = self.options.cg_tol
        b_norm = float(np.linalg.norm(b))
        if b_norm == 0.0:
            return np.zeros_like(b)
        if not np.isfinite(b_norm):
            # no iteration converges on it; pass the non-finite input on, as
            # the direct backends do
            return np.full_like(b, np.nan)
        x = np.zeros_like(b)
        r = b.copy()
        inv_diag = self._inv_jacobi
        z = r * inv_diag
        p = z.copy()
        rz = float(np.dot(r, z))
        for it in range(1, self.options.cg_max_iter + 1):
            ap = self.apply(p)
            alpha = rz / float(np.dot(p, ap))
            x = x + alpha * p
            r = r - alpha * ap
            res = float(np.linalg.norm(r))
            if res <= tol * b_norm:
                return x
            z = r * inv_diag
            rz_new = float(np.dot(r, z))
            p = z + (rz_new / rz) * p
            rz = rz_new
        raise SolverError(
            f"conjugate gradient did not reach relative residual {tol} "
            f"in {self.options.cg_max_iter} iterations (last residual {res / b_norm:.3e})",
            self.options.cg_max_iter,
            res / b_norm,
        )

    def _lap_diagonal(self) -> np.ndarray:
        """Diagonal of -L (positive), used by the Jacobi preconditioner."""
        diag = np.zeros(self.grid.num_cells)
        arr = diag.reshape(self.grid.cells_per_axis)
        for axis, h in enumerate(self.grid.spacing):
            inv_h2 = 1.0 / (h * h)
            arr += 2.0 * inv_h2
            lo = [slice(None)] * self.grid.dim
            lo[axis] = 0
            arr[tuple(lo)] -= inv_h2
            hi = [slice(None)] * self.grid.dim
            hi[axis] = -1
            arr[tuple(hi)] -= inv_h2
        return diag
