import numpy as np
import pytest

from nlch_control import (GridSpec, ScalarField, inner_product, laplacian_neumann,
                          mass)
from nlch_control.errors import FieldShapeError, GridError
from nlch_control.geometry import dense_laplacian_matrix


def test_grid_spec_derived_quantities():
    grid = GridSpec((4, 5), (2.0, 1.0))
    assert grid.dim == 2
    assert grid.num_cells == 20
    assert grid.spacing == (0.5, 0.2)
    assert grid.cell_volume == pytest.approx(0.1)
    assert grid.volume == pytest.approx(2.0)


@pytest.mark.parametrize("cells,extent", [
    ((1,), (1.0,)),           # fewer than 2 cells
    ((4, 1), (1.0, 1.0)),
    ((4,), (0.0,)),           # degenerate extent
    ((4,), (-1.0,)),
    ((2, 2, 2), (1.0, 1.0, 1.0)),  # 3D out of scope
])
def test_grid_spec_rejects_invalid(cells, extent):
    with pytest.raises(GridError):
        GridSpec(cells, extent)


def test_scalar_field_rejects_bad_values(grid1d_small):
    with pytest.raises(FieldShapeError):
        ScalarField(grid1d_small, np.zeros(7))
    bad = np.zeros(8)
    bad[3] = np.nan
    with pytest.raises(FieldShapeError):
        ScalarField(grid1d_small, bad)


def test_laplacian_annihilates_constants(grid1d, grid2d):
    for grid in (grid1d, grid2d):
        f = ScalarField.constant(grid, 3.7)
        assert np.all(laplacian_neumann(f).values == 0.0)


def test_laplacian_hand_example():
    grid = GridSpec((4,), (4.0,))  # spacing 1
    f = ScalarField(grid, np.array([0.0, 1.0, 2.0, 3.0]))
    assert laplacian_neumann(f).values == pytest.approx([1.0, 0.0, 0.0, -1.0], abs=0)


def test_laplacian_quadratic_interior_second_order():
    # interior cells of x^2 recover the constant second derivative 2
    errors = []
    for n in (32, 64):
        grid = GridSpec((n,), (1.0,))
        x = grid.cell_centers()[0]
        lap = laplacian_neumann(ScalarField(grid, x * x)).values
        errors.append(np.max(np.abs(lap[1:-1] - 2.0)))
    # exact for a quadratic away from the boundary closure
    assert errors[0] < 1e-10 and errors[1] < 1e-10


@pytest.mark.parametrize("dim", [1, 2])
def test_laplacian_convergence_order(dim):
    # cos fields have zero normal derivative on every face
    def run(n):
        cells = (n,) if dim == 1 else (n, n)
        extent = (1.0,) if dim == 1 else (1.0, 1.0)
        grid = GridSpec(cells, extent)
        axes = grid.mesh()
        f = np.ones(grid.cells_per_axis)
        exact = np.zeros(grid.cells_per_axis)
        for x in axes:
            f = f * np.cos(np.pi * x)
        exact = -dim * np.pi ** 2 * f
        lap = laplacian_neumann(ScalarField(grid, f.reshape(-1))).values
        err = lap - exact.reshape(-1)
        return np.sqrt(np.sum(err ** 2) * grid.cell_volume)

    e1, e2 = run(32), run(64)
    order = np.log2(e1 / e2)
    assert order >= 1.9


def test_laplacian_conservation_and_symmetry(rng, grid1d, grid2d):
    for grid in (grid1d, grid2d):
        for _ in range(10):
            f = ScalarField(grid, rng.standard_normal(grid.num_cells))
            g = ScalarField(grid, rng.standard_normal(grid.num_cells))
            lap_f = laplacian_neumann(f)
            # discrete conservation: zero total mass
            assert abs(mass(lap_f)) <= 1e-13 * max(1.0, np.max(np.abs(f.values)))
            # self-adjointness
            lhs = inner_product(lap_f, g)
            rhs = inner_product(f, laplacian_neumann(g))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            # negativity
            assert inner_product(lap_f, f) <= 1e-12


def neumann_second_difference(n, h):
    """1D mirror-ghost second-difference matrix, assembled entry by entry."""
    mat = np.zeros((n, n))
    for i in range(n):
        for j in (i - 1, i + 1):
            if 0 <= j < n:
                mat[i, j] += 1.0
                mat[i, i] -= 1.0
    return mat / (h * h)


def test_dense_laplacian_matrix_matches_operator(rng, grid1d_small):
    # the anisotropic 2D grid catches a stencil applied along the wrong axis
    for grid in (grid1d_small, GridSpec((5, 3), (1.3, 0.7))):
        mat = dense_laplacian_matrix(grid)
        assert np.allclose(mat, mat.T)
        f = rng.standard_normal(grid.num_cells)
        assert np.allclose(mat @ f, laplacian_neumann(ScalarField(grid, f)).values)
        # Kronecker sum of the per-axis 1D operators (row-major flattening)
        axes = [neumann_second_difference(n, h)
                for n, h in zip(grid.cells_per_axis, grid.spacing)]
        if len(axes) == 1:
            expected = axes[0]
        else:
            expected = (np.kron(axes[0], np.eye(grid.cells_per_axis[1]))
                        + np.kron(np.eye(grid.cells_per_axis[0]), axes[1]))
        assert np.allclose(mat, expected, rtol=1e-13, atol=1e-10)


def test_inner_product_measures_domain():
    grid = GridSpec((10,), (2.0,))
    one = ScalarField.constant(grid, 1.0)
    assert inner_product(one, one) == pytest.approx(2.0, rel=1e-14)
    zero = ScalarField.constant(grid, 0.0)
    assert inner_product(zero, one) == 0.0


def test_inner_product_matches_direct_summation(rng, grid1d_small):
    f_vals = rng.standard_normal(8)
    g_vals = rng.standard_normal(8)
    f = ScalarField(grid1d_small, f_vals)
    g = ScalarField(grid1d_small, g_vals)
    oracle = sum(float(a) * float(b) for a, b in zip(f_vals, g_vals)) * grid1d_small.cell_volume
    assert inner_product(f, g) == pytest.approx(oracle, rel=1e-14)


def test_inner_product_grid_mismatch():
    f = ScalarField.constant(GridSpec((8,), (1.0,)), 1.0)
    g = ScalarField.constant(GridSpec((8,), (2.0,)), 1.0)
    with pytest.raises(FieldShapeError):
        inner_product(f, g)


def test_mass_examples(rng):
    grid = GridSpec((16,), (1.0,))
    assert mass(ScalarField.constant(grid, 1.0)) == pytest.approx(1.0, rel=1e-14)
    grid2 = GridSpec((16,), (2.0,))
    assert mass(ScalarField.constant(grid2, -0.5)) == pytest.approx(-1.0, rel=1e-14)
    vals = rng.standard_normal(16)
    oracle = float(sum(vals)) * grid.cell_volume
    assert mass(ScalarField(grid, vals)) == pytest.approx(oracle, rel=1e-13, abs=1e-15)
