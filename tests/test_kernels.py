import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlch_control
from nlch_control import (GridSpec, KernelData, KernelSpec, ScalarField, build_kernel,
                          inner_product)
from nlch_control.errors import FieldShapeError, KernelResolutionError
from nlch_control.geometry import DENSE_MAX_CELLS
from nlch_control.kernels import convolution_matrix, convolve_array, next_fast_len

from conftest import convolution_adjoint_check, direct_convolution_oracle


@pytest.mark.parametrize("family,amplitude,width", [
    ("unknown", 1.0, 0.1),
    ("gaussian", 0.0, 0.1),
    ("gaussian", 1.0, 0.0),
    ("mollifier", -1.0, 0.1),
    ("gaussian", np.inf, 0.1),
    ("mollifier", 1.0, np.inf),
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
            assert np.all(k.a >= 0.0)
            # J >= 0, so max(a) is the row-sum bound max_i sum_j |J(x_i-x_j)| vol
            row_sums = np.abs(convolution_matrix(k)).sum(axis=1)
            assert np.max(k.a) == pytest.approx(np.max(row_sums), rel=1e-12)


def test_convolve_zero_and_ones(kernel1d, grid1d):
    assert np.all(convolve_array(kernel1d, np.zeros(grid1d.num_cells)) == 0.0)
    assert np.allclose(convolve_array(kernel1d, np.ones(grid1d.num_cells)), kernel1d.a,
                       rtol=1e-12, atol=1e-14)


def test_convolve_spike_gives_kernel_column(grid1d_small):
    spec = KernelSpec("gaussian", 1.5, 0.3)
    k = build_kernel(spec, grid1d_small)
    j = 3
    spike = np.zeros(8)
    spike[j] = 1.0 / grid1d_small.cell_volume
    got = convolve_array(k, spike)
    x = grid1d_small.cell_centers()[0]
    expected = spec.evaluate_r2((x - x[j]) ** 2)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-13)


def expected_form(family: str, grid: GridSpec) -> str:
    if grid.dim == 1 and grid.num_cells <= DENSE_MAX_CELLS:
        return "dense matrix"
    if family == "gaussian" and grid.dim == 2:
        return "separable"
    return "spectrum"


def kept_form(k) -> str:
    if k.spectrum is not None:
        assert k.factors is None
        return "spectrum"
    return {1: "dense matrix", 2: "separable"}[len(k.factors)]


def support_reach(spec: KernelSpec, grid: GridSpec) -> tuple[int, ...]:
    # the furthest index offset inside the kernel's support, per axis
    if spec.family == "gaussian":
        return tuple(n - 1 for n in grid.cells_per_axis)
    return tuple(min(n - 1, int(np.ceil(spec.width / h)) - 1)
                 for n, h in zip(grid.cells_per_axis, grid.spacing))


@pytest.mark.parametrize("family", ["gaussian", "mollifier"])
def test_fft_matches_direct_loop(rng, family, grid1d_small, grid2d):
    # the two small 1D grids hold the dense matrix, the 2D Gaussian its two
    # per-axis factors, the others the FFT spectrum; 2n - 1 is a fast FFT
    # length on the 313-cell grid only, on the others the spectrum is padded
    # past the minimum on some axis. At width 0.3 the mollifier's reach is
    # below n - 1 on the 2D and large 1D grids; at width 2.0 it is wider
    # than the domain and its reach is clipped to n - 1; on the 40 x 12 grid
    # it is clipped on the short axis only
    for grid, width in ((grid1d_small, 0.3), (GridSpec((50,), (1.0,)), 0.3), (grid2d, 0.3),
                        (GridSpec((13, 9), (1.3, 0.7)), 0.3), (GridSpec((40, 12), (1.0, 0.3)), 0.4),
                        (GridSpec((13, 9), (1.3, 0.7)), 2.0), (GridSpec((313,), (1.0,)), 0.3),
                        (GridSpec((300,), (1.0,)), 0.3), (GridSpec((300,), (1.0,)), 2.0)):
        spec = KernelSpec(family, 2.0, width)
        k = build_kernel(spec, grid)
        assert kept_form(k) == expected_form(family, grid)
        assert k.reach == support_reach(spec, grid)
        f_vals = rng.standard_normal(grid.num_cells)
        fast_result = convolve_array(k, f_vals)
        direct_result = convolution_matrix(k) @ f_vals
        oracle = direct_convolution_oracle(spec, grid, f_vals)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(fast_result - direct_result)) <= 1e-12 * scale
        assert np.max(np.abs(fast_result - oracle)) <= 1e-12 * scale


def test_reach_is_the_furthest_nonzero_tap():
    # width / h = 4 up to rounding on the short axis: the tap at offset 4
    # lies on the support's edge and is zero, so the reach is 3 where
    # ceil(width / h) - 1 reads 4
    grid = GridSpec((40, 12), (1.0, 0.3))
    spec = KernelSpec("mollifier", 4.0, 0.1)
    assert build_kernel(spec, grid).reach == (3, 3)
    h = grid.spacing[1]
    centre = spec.evaluate_r2((np.arange(12) * h) ** 2)
    assert centre[3] > 0.0 and np.all(centre[4:] == 0.0)


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len as scipy_next_fast_len

    ns = range(1, 4097)
    assert [next_fast_len(n) for n in ns] == [scipy_next_fast_len(n, real=True) for n in ns]


@pytest.mark.parametrize("family,cells", [("mollifier", (40, 12)), ("gaussian", (300,)),
                                          ("gaussian", (40, 12)), ("mollifier", (32,))],
                         ids=["mollifier-40x12", "gaussian-300", "gaussian-40x12",
                              "mollifier-32"])
def test_kernel_keeps_the_transform_shape_of_its_spectrum(family, cells):
    grid = GridSpec(cells, (1.0, 0.3)[:len(cells)])
    kernel = build_kernel(KernelSpec(family, 4.0, 0.1), grid)
    if kernel.spectrum is None:
        assert kernel.fft_shape is None
    else:
        assert kernel.fft_shape == tuple(next_fast_len(n + r)
                                         for n, r in zip(cells, kernel.reach))
        assert kernel.spectrum.shape[-1] == kernel.fft_shape[-1] // 2 + 1


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
    lhs = convolve_array(kernel1d, 2.0 * f - 3.0 * g)
    rhs = 2.0 * convolve_array(kernel1d, f) - 3.0 * convolve_array(kernel1d, g)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("a", [np.ones(31), np.ones((2, 16)),
                               np.where(np.arange(32) == 5, np.nan, 1.0)],
                         ids=["too-few", "two-rows", "nan"])
def test_kernel_data_rejects_a_wrong_size_or_non_finite_weight(kernel1d, a):
    with pytest.raises(FieldShapeError):
        KernelData(spec=kernel1d.spec, grid=kernel1d.grid, reach=kernel1d.reach,
                   factors=kernel1d.factors, spectrum=None, a=a)


def test_flat_kernel_limit():
    # width much larger than the domain: a(x) ~ J(0) |Omega| = |Omega|
    grid = GridSpec((48,), (1.0,))
    k = build_kernel(KernelSpec("gaussian", 1.0, 50.0), grid)
    volume = np.prod(grid.extent_per_axis)
    assert np.max(np.abs(k.a - volume)) < 1e-3 * volume


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
    assert np.max(np.abs(k.a[interior] - full_integral)) < 1e-4


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
        conv = convolve_array(kernel1d, f)
        assert np.max(np.abs(conv)) <= np.max(kernel1d.a) * np.max(np.abs(f)) * (1 + 1e-12)


def test_operator_matrix_symmetric(kernel1d_small):
    mat = convolution_matrix(kernel1d_small)
    assert np.allclose(mat, mat.T, rtol=0, atol=0)  # exact by construction


def test_kernel_adjoint_in_inner_product(rng, grid2d, kernel2d):
    f = rng.standard_normal(grid2d.num_cells)
    g = rng.standard_normal(grid2d.num_cells)
    vol = grid2d.cell_volume
    lhs = inner_product(convolve_array(kernel2d, f), g, vol)
    rhs = inner_product(f, convolve_array(kernel2d, g), vol)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


@pytest.mark.parametrize("cells", [256, 257])
def test_convolution_at_dense_crossover(rng, cells):
    # up to the crossover the kernel keeps the dense matrix, past it the
    # FFT spectrum
    grid = GridSpec((cells,), (1.0,))
    k = build_kernel(KernelSpec("gaussian", 4.0, 0.2), grid)
    assert kept_form(k) == ("dense matrix" if cells <= DENSE_MAX_CELLS else "spectrum")
    f = rng.standard_normal(cells)
    direct = convolution_matrix(k) @ f
    assert np.max(np.abs(convolve_array(k, f) - direct)) <= 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("cells", [(256, 256), (256, 192)])
def test_gaussian_2d_build_peaks_at_its_factors_and_two_fields(cells):
    # each Toeplitz factor is scaled straight from a strided view of the
    # taps, and a = J*1 writes its second product over the field of ones, so
    # beside the two factors the build holds two fields (the ones, then a)
    # and a one-byte finiteness mask per cell: 2.13 fields over the factors
    # with numpy 2.4.6, and the bound leaves 0.37 for other numpy versions.
    # Two index arrays per factor and the ones, the intermediate and J*1
    # held together read 3.13 fields over the factors.
    import tracemalloc

    grid = GridSpec(cells, (1.0, 0.75))
    tracemalloc.start()
    try:
        kernel = build_kernel(KernelSpec("gaussian", 3.0, 0.1), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sum(t.nbytes for t in kernel.factors) + 2.5 * grid.num_cells * 8


@pytest.mark.parametrize("cells", [(5,), (4, 3)])
def test_toeplitz_matches_the_entrywise_rule(rng, cells):
    # the strided view, reshaped, against M[i, j] = taps[i - j + n - 1] per
    # axis over row-major multi-indices, entry by entry
    from nlch_control.kernels import _toeplitz

    taps = rng.standard_normal(tuple(2 * n - 1 for n in cells))
    indices = list(itertools.product(*(range(n) for n in cells)))
    expected = [[taps[tuple(a - b + n - 1 for a, b, n in zip(i, j, cells))] for j in indices]
                for i in indices]
    assert np.array_equal(_toeplitz(taps, cells), np.array(expected))
