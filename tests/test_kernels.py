import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlch_control
from nlch_control import (GridSpec, KernelSpec, ScalarField, build_kernel,
                          convolution_adjoint_check, convolve, inner_product)
from nlch_control.errors import FieldShapeError, KernelResolutionError
from nlch_control.kernels import convolution_matrix


def direct_convolution_oracle(spec: KernelSpec, grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Double loop over cell pairs, independent of the tap/FFT machinery."""
    centers = grid.mesh()
    coords = np.stack([c.reshape(-1) for c in centers], axis=1)
    out = np.zeros(grid.num_cells)
    for i in range(grid.num_cells):
        acc = 0.0
        for j in range(grid.num_cells):
            r2 = float(np.sum((coords[i] - coords[j]) ** 2))
            acc += float(spec.evaluate_r2(np.array(r2))) * values[j]
        out[i] = acc * grid.cell_volume
    return out


@pytest.mark.parametrize("family,amplitude,width", [
    ("unknown", 1.0, 0.1),
    ("gaussian", 0.0, 0.1),
    ("gaussian", 1.0, 0.0),
    ("mollifier", -1.0, 0.1),
])
def test_kernel_spec_rejects_invalid(family, amplitude, width):
    with pytest.raises(KernelResolutionError):
        KernelSpec(family, amplitude, width)


def test_kernel_symmetry_in_argument():
    spec = KernelSpec("mollifier", 2.0, 0.3)
    z = np.linspace(-0.29, 0.29, 7)
    assert np.allclose(spec.evaluate_r2(z ** 2), spec.evaluate_r2((-z) ** 2))


def test_under_resolved_kernel_rejected(grid1d):
    with pytest.raises(KernelResolutionError):
        build_kernel(KernelSpec("gaussian", 1.0, 0.01), grid1d)


def test_a_field_nonnegative_and_bounds(grid1d, grid2d):
    for grid in (grid1d, grid2d):
        for family in ("gaussian", "mollifier"):
            k = build_kernel(KernelSpec(family, 2.0, 0.25), grid)
            assert np.all(k.a_field.values >= 0.0)
            assert k.a_star >= np.max(k.a_field.values) - 1e-12
            # a_star is the row-sum bound max_i sum_j |J(x_i-x_j)| vol
            row_sums = np.abs(convolution_matrix(k)).sum(axis=1)
            assert k.a_star == pytest.approx(np.max(row_sums), rel=1e-12)


def test_convolve_zero_and_ones(kernel1d, grid1d):
    zero = ScalarField.constant(grid1d, 0.0)
    assert np.all(convolve(kernel1d, zero).values == 0.0)
    ones = ScalarField.constant(grid1d, 1.0)
    assert np.allclose(convolve(kernel1d, ones).values, kernel1d.a_field.values,
                       rtol=1e-12, atol=1e-14)


def test_convolve_spike_gives_kernel_column(grid1d_small):
    spec = KernelSpec("gaussian", 1.5, 0.3)
    k = build_kernel(spec, grid1d_small)
    j = 3
    spike = np.zeros(8)
    spike[j] = 1.0 / grid1d_small.cell_volume
    got = convolve(k, ScalarField(grid1d_small, spike)).values
    x = grid1d_small.cell_centers()[0]
    expected = spec.evaluate_r2((x - x[j]) ** 2)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("family", ["gaussian", "mollifier"])
def test_fft_matches_direct_loop(rng, family, grid1d_small, grid2d):
    # 2n - 1 is a fast FFT length on the first grid only; on the others the
    # cached spectrum is padded past the minimum on some axis
    for grid in (grid1d_small, grid2d, GridSpec((50,), (1.0,)), GridSpec((13, 9), (1.3, 0.7))):
        spec = KernelSpec(family, 2.0, 0.3)
        k = build_kernel(spec, grid)
        f_vals = rng.standard_normal(grid.num_cells)
        f = ScalarField(grid, f_vals)
        fft_result = convolve(k, f, method="fft").values
        direct_result = convolve(k, f, method="direct").values
        oracle = direct_convolution_oracle(spec, grid, f_vals)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(fft_result - direct_result)) <= 1e-12 * scale
        assert np.max(np.abs(fft_result - oracle)) <= 1e-12 * scale


def test_cli_import_leaves_scipy_signal_out():
    src = str(Path(nlch_control.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, nlch_control.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_convolve_linearity(rng, kernel1d, grid1d):
    f = rng.standard_normal(grid1d.num_cells)
    g = rng.standard_normal(grid1d.num_cells)
    lhs = convolve(kernel1d, ScalarField(grid1d, 2.0 * f - 3.0 * g)).values
    rhs = 2.0 * convolve(kernel1d, ScalarField(grid1d, f)).values \
        - 3.0 * convolve(kernel1d, ScalarField(grid1d, g)).values
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


def test_convolve_grid_mismatch(kernel1d):
    other = ScalarField.constant(GridSpec((16,), (1.0,)), 1.0)
    with pytest.raises(FieldShapeError):
        convolve(kernel1d, other)


def test_flat_kernel_limit():
    # width much larger than the domain: a(x) ~ J(0) |Omega| = |Omega|
    grid = GridSpec((48,), (1.0,))
    k = build_kernel(KernelSpec("gaussian", 1.0, 50.0), grid)
    assert np.max(np.abs(k.a_field.values - grid.volume)) < 1e-3 * grid.volume


def test_mollifier_interior_full_space_integral():
    grid = GridSpec((64,), (1.0,))
    width = 0.2
    k = build_kernel(KernelSpec("mollifier", 1.0, width), grid)
    # high-resolution quadrature of the full-space integral
    t = np.linspace(-1.0, 1.0, 400001)[1:-1]
    full_integral = width * np.trapezoid(np.exp(-1.0 / (1.0 - t * t)), t)
    x = grid.cell_centers()[0]
    interior = (x > width + 0.05) & (x < 1.0 - width - 0.05)
    # midpoint quadrature of a C^inf compactly supported function: spectral-ish,
    # but assert only a few digits
    assert np.max(np.abs(k.a_field.values[interior] - full_integral)) < 1e-4


def test_adjoint_check_examples(rng, kernel1d, grid1d):
    f_vals = rng.standard_normal(grid1d.num_cells)
    g_vals = rng.standard_normal(grid1d.num_cells)
    f = ScalarField(grid1d, f_vals)
    g = ScalarField(grid1d, g_vals)
    assert convolution_adjoint_check(kernel1d, f, f) <= 1e-15
    assert convolution_adjoint_check(kernel1d, f, g) <= 1e-12
    ones = ScalarField.constant(grid1d, 1.0)
    assert convolution_adjoint_check(kernel1d, ones, g) <= 1e-12


def test_young_inequality(rng, kernel1d, grid1d):
    for _ in range(5):
        f = rng.standard_normal(grid1d.num_cells)
        conv = convolve(kernel1d, ScalarField(grid1d, f)).values
        assert np.max(np.abs(conv)) <= kernel1d.a_star * np.max(np.abs(f)) * (1 + 1e-12)


def test_operator_matrix_symmetric(kernel1d_small):
    mat = convolution_matrix(kernel1d_small)
    assert np.allclose(mat, mat.T, rtol=0, atol=0)  # exact by construction


def test_kernel_adjoint_in_inner_product(rng, grid2d, kernel2d):
    f = ScalarField(grid2d, rng.standard_normal(grid2d.num_cells))
    g = ScalarField(grid2d, rng.standard_normal(grid2d.num_cells))
    lhs = inner_product(convolve(kernel2d, f), g)
    rhs = inner_product(f, convolve(kernel2d, g))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
