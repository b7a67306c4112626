import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlch_control
from nlch_control import GridSpec, KernelSpec, ModelParams, build_kernel, solvers
from nlch_control.errors import FieldShapeError, SolverError
from nlch_control.forward import StepOperators
from nlch_control.geometry import DENSE_MAX_CELLS
from nlch_control.solvers import ShiftedLaplacianSolver, dense_laplacian_matrix

GRIDS_2D = [GridSpec((5, 3), (1.3, 0.7)), GridSpec((13, 9), (1.3, 0.7)),
            GridSpec((2, 2), (1.3, 0.7))]
# the constant-shift solve (DCT-II matrices) also on the anisotropic and
# square grids the kernel and CLI tests run, up to gradcheck-2d's 64^2
GRIDS_DCT = [GridSpec((12, 7), (1.3, 0.7)), GridSpec((40, 12), (1.0, 0.3)),
             GridSpec((64, 64), (1.0, 1.0))]


def grid_id(grid):
    return "x".join(map(str, grid.cells_per_axis))


def diagonals(rng, grid):
    """A constant diagonal (DCT path) and a varying one (LU path)."""
    n = grid.num_cells
    return {"constant": np.full(n, 7.5), "varying": 2.0 + 20.0 * rng.random(n)}


def dense_solve(grid, diagonal, b):
    """np.linalg.solve(diag(d) - L, b), with diag(d) - L assembled in place:
    entry for entry the same matrix, at half the memory (128 MB at 64^2)."""
    mat = dense_laplacian_matrix(grid)
    np.subtract(0.0, mat, out=mat)
    mat[np.diag_indices_from(mat)] += diagonal
    return np.linalg.solve(mat, b)


def rel_err(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("grid", GRIDS_2D, ids=grid_id)
@pytest.mark.parametrize("kind", ["constant", "varying"])
def test_2d_direct_solve_matches_dense(rng, grid, kind):
    diagonal = diagonals(rng, grid)[kind]
    solver = ShiftedLaplacianSolver(grid, diagonal)
    assert (solver._lu is None) == (kind == "constant")
    for _ in range(3):
        b = rng.standard_normal(grid.num_cells)
        assert rel_err(solver.solve(b), dense_solve(grid, diagonal, b)) <= 1e-12


@pytest.mark.parametrize("grid", GRIDS_2D + GRIDS_DCT, ids=grid_id)
def test_2d_constant_shift_solve_matches_dense(rng, grid):
    diagonal = diagonals(rng, grid)["constant"]
    solver = ShiftedLaplacianSolver(grid, diagonal)
    assert solver._dct is not None
    rhs = rng.standard_normal((grid.num_cells, 3))
    ref = dense_solve(grid, diagonal, rhs)
    for b, x in zip(rhs.T, ref.T):
        assert rel_err(solver.solve(b), x) <= 1e-13


def test_almost_constant_diagonal_takes_lu_path(rng):
    grid = GRIDS_2D[1]
    diagonal = np.full(grid.num_cells, 7.5)
    diagonal[17] = 7.5 * (1.0 + 1e-15)
    solver = ShiftedLaplacianSolver(grid, diagonal)
    assert solver._lu is not None
    b = rng.standard_normal(grid.num_cells)
    assert rel_err(solver.solve(b), dense_solve(grid, diagonal, b)) <= 1e-12


@pytest.mark.parametrize("grid", GRIDS_2D[:2] + GRIDS_DCT, ids=grid_id)
@pytest.mark.parametrize("kind", ["constant", "varying"])
def test_2d_direct_solve_is_symmetric(rng, grid, kind):
    solver = ShiftedLaplacianSolver(grid, diagonals(rng, grid)[kind])
    x = rng.standard_normal(grid.num_cells)
    y = rng.standard_normal(grid.num_cells)
    sx, sy = solver.solve(x), solver.solve(y)
    scale = max(np.linalg.norm(sx) * np.linalg.norm(y), np.linalg.norm(x) * np.linalg.norm(sy))
    assert abs(np.dot(sx, y) - np.dot(x, sy)) <= 1e-13 * scale


def test_dct_path_passes_nonfinite_rhs_on():
    grid = GRIDS_2D[1]
    solver = ShiftedLaplacianSolver(grid, np.full(grid.num_cells, 3.0))
    b = np.zeros(grid.num_cells)
    b[4] = np.nan
    assert not np.all(np.isfinite(solver.solve(b)))


@pytest.mark.parametrize("grid", [GridSpec((8,), (1.0,)), GridSpec((5, 3), (1.3, 0.7))],
                         ids=grid_id)
# the ids keep the "direct" label they had when a CG backend was also tested
@pytest.mark.parametrize("bad", ["nan_entry", "inf_entry", "all_inf", "all_nan"],
                         ids=lambda bad: f"direct-{bad}")
def test_solver_rejects_nonfinite_diagonal(grid, bad):
    diagonal = np.full(grid.num_cells, 4.0)
    if bad == "nan_entry":
        diagonal[1] = np.nan
    elif bad == "inf_entry":
        diagonal[1] = np.inf
    else:
        diagonal[:] = np.nan if bad == "all_nan" else np.inf
    with pytest.raises(SolverError, match="strictly positive"):
        ShiftedLaplacianSolver(grid, diagonal)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, 0.0])
def test_step_operators_reject_bad_dt(dt):
    grid = GridSpec((5, 3), (1.3, 0.7))
    kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.25), grid)
    with pytest.raises(FieldShapeError, match="dt must be"):
        StepOperators(grid, ModelParams(A=0.5, B=1.0, chi=0.0), kernel, dt)


@pytest.mark.parametrize("cells", [256, 257, 1024])
def test_1d_solve_at_dense_crossover_matches_dense(rng, cells):
    # up to the crossover the solver keeps the symmetrised dense inverse,
    # past it the sparse LU
    grid = GridSpec((cells,), (1.0,))
    diagonal = 2.0 + 20.0 * rng.random(cells)
    solver = ShiftedLaplacianSolver(grid, diagonal)
    assert (solver._inverse is not None) == (cells <= DENSE_MAX_CELLS)
    assert (solver._lu is not None) == (cells > DENSE_MAX_CELLS)
    if solver._inverse is not None:
        assert np.array_equal(solver._inverse, solver._inverse.T)
    for _ in range(3):
        b = rng.standard_normal(cells)
        assert rel_err(solver.solve(b), dense_solve(grid, diagonal, b)) <= 1e-12


def scipy_shifted_laplacian(grid, diagonal):
    """Reference: diags(d) - L in CSC, L the Kronecker sum of the per-axis
    tridiagonal Neumann Laplacians, assembled by scipy.sparse."""
    import scipy.sparse as sp
    axes = []
    for n, h in zip(grid.cells_per_axis, grid.spacing):
        inv_h2 = 1.0 / (h * h)
        diag = np.full(n, -2.0 * inv_h2)
        diag[[0, -1]] = -inv_h2
        off = np.full(n - 1, inv_h2)
        axes.append(sp.diags([off, diag, off], offsets=[-1, 0, 1], format="csr"))
    if grid.dim == 1:
        lap = axes[0]
    else:
        n0, n1 = grid.cells_per_axis
        lap = (sp.kron(axes[0], sp.identity(n1, format="csr"))
               + sp.kron(sp.identity(n0, format="csr"), axes[1]))
    return (sp.diags(diagonal) - lap).tocsc()


GRIDS_LU = [GridSpec((512,), (1.0,)), GridSpec((64, 64), (1.0, 1.0)),
            GridSpec((40, 12), (1.0, 0.3)), GridSpec((33, 70), (1.3, 0.7))]


@pytest.mark.parametrize("grid", GRIDS_LU, ids=grid_id)
@pytest.mark.parametrize("kind", ["constant", "varying"])
def test_sparse_lu_is_scipy_splu_bit_for_bit(rng, grid, kind):
    from scipy.sparse.linalg import splu
    diagonal = diagonals(rng, grid)[kind]
    ref = scipy_shifted_laplacian(grid, diagonal)
    data, indices, indptr = solvers._shifted_laplacian_csc(grid, diagonal)
    for got, want in [(data, ref.data), (indices, ref.indices), (indptr, ref.indptr)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    lu = solvers._sparse_lu(grid, diagonal)
    ref_lu = splu(ref, permc_spec="MMD_AT_PLUS_A")
    for _ in range(2):
        b = rng.standard_normal(grid.num_cells)
        assert np.array_equal(lu.solve(b), ref_lu.solve(b))


# loads SuperLU from its file and solves, then imports scipy.sparse.linalg:
# scipy takes the module already loaded, and splu repeats the bits
_DIRECT_THEN_SCIPY = """
import sys
import numpy as np
from nlch_control.geometry import GridSpec
from nlch_control.solvers import ShiftedLaplacianSolver
grid = GridSpec((33, 70), (1.3, 0.7))
rng = np.random.default_rng(5)
diagonal = 2.0 + 20.0 * rng.random(grid.num_cells)
b = rng.standard_normal(grid.num_cells)
x = ShiftedLaplacianSolver(grid, diagonal).solve(b)
superlu = "scipy.sparse.linalg._dsolve._superlu"
assert [m for m in sys.modules if m.startswith("scipy")] == [superlu]
import scipy.sparse.linalg
from scipy.sparse.linalg._dsolve import linsolve
assert linsolve._superlu is sys.modules[superlu]
sys.path.insert(0, sys.argv[1])
from test_solvers import scipy_shifted_laplacian
ref = scipy.sparse.linalg.splu(scipy_shifted_laplacian(grid, diagonal),
                               permc_spec="MMD_AT_PLUS_A")
assert np.array_equal(ref.solve(b), x)
assert np.array_equal(ShiftedLaplacianSolver(grid, diagonal).solve(b), x)
print("same bits")
"""


def test_scipy_imported_after_direct_superlu_load_gives_same_bits(tmp_path):
    src = str(Path(nlch_control.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _DIRECT_THEN_SCIPY, str(Path(__file__).parent)],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "same bits"


def test_superlu_rejecting_the_call_is_a_solver_error(monkeypatch):
    monkeypatch.setattr(solvers, "_SUPERLU_OPTIONS", {"NoSuchOption": 1})
    grid = GRIDS_2D[1]
    diagonal = 2.0 + np.arange(grid.num_cells) / grid.num_cells
    with pytest.raises(SolverError, match=r"_superlu.*rejected.*scipy \S+\)$"):
        ShiftedLaplacianSolver(grid, diagonal)
