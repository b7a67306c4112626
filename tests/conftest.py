import numpy as np
import pytest

from nlch_control import (ControlPair, GridSpec, KernelSpec, ModelParams,
                          ScalarField, State, TimeGrid, build_kernel, inner_product,
                          simulate)
from nlch_control.geometry import laplacian_array
from nlch_control.kernels import convolve_array
from nlch_control.physics import ProliferationSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def grid1d():
    return GridSpec((32,), (1.0,))


@pytest.fixture
def grid1d_small():
    return GridSpec((8,), (1.0,))


@pytest.fixture
def grid2d():
    return GridSpec((12, 10), (1.0, 0.8))


@pytest.fixture
def kernel1d(grid1d):
    return build_kernel(KernelSpec("gaussian", 4.0, 0.2), grid1d)


@pytest.fixture
def kernel1d_small(grid1d_small):
    return build_kernel(KernelSpec("gaussian", 4.0, 0.25), grid1d_small)


@pytest.fixture
def kernel2d(grid2d):
    return build_kernel(KernelSpec("gaussian", 4.0, 0.25), grid2d)


@pytest.fixture
def params():
    return ModelParams(A=0.5, B=1.0, chi=0.0)


@pytest.fixture
def params_gradient_flow():
    # reactions off: pure nonlocal Cahn-Hilliard gradient flow
    return ModelParams(A=0.5, B=1.0, chi=0.0,
                       proliferation=ProliferationSpec("constant_zero"))


def smooth_phi0(grid: GridSpec, amplitude: float = 0.5) -> ScalarField:
    axes = grid.mesh()
    vals = np.ones(grid.cells_per_axis)
    for axis, x in enumerate(axes):
        extent = grid.extent_per_axis[axis]
        vals = vals * np.cos(np.pi * x / extent)
    return ScalarField(grid, amplitude * vals.reshape(-1))


def laplacian_neumann(f: ScalarField) -> ScalarField:
    """Discrete Laplacian with homogeneous Neumann closure, as a field."""
    return ScalarField(f.grid, laplacian_array(f.grid, f.values))


def convolution_adjoint_check(kernel, f: ScalarField, g: ScalarField) -> float:
    """Normalised self-adjointness defect |<J*f, g> - <f, J*g>| / (1 + |<J*f, g>|)."""
    vol = kernel.grid.cell_volume
    lhs = inner_product(convolve_array(kernel, f.values), g.values, vol)
    rhs = inner_product(f.values, convolve_array(kernel, g.values), vol)
    return abs(lhs - rhs) / (1.0 + abs(lhs))


def direct_convolution_oracle(spec: KernelSpec, grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Loop over target cells, each summing over every source cell from the
    cell centres; independent of the tap, FFT and dense-matrix machinery."""
    centers = grid.mesh()
    coords = np.stack([c.reshape(-1) for c in centers], axis=1)
    out = np.zeros(grid.num_cells)
    for i in range(grid.num_cells):
        r2 = np.sum((coords[i] - coords) ** 2, axis=1)
        out[i] = float(np.sum(spec.evaluate_r2(r2) * values)) * grid.cell_volume
    return out


def random_controls(rng, grid: GridSpec, steps: int, scale: float = 0.1) -> ControlPair:
    return ControlPair(
        grid,
        scale * rng.standard_normal((steps, grid.num_cells)),
        scale * rng.standard_normal((steps, grid.num_cells)),
    )


def random_run(rng, grid: GridSpec, params: ModelParams, steps: int = 20,
               family: str = "gaussian", width: float = 0.2):
    """A run over T = 0.25 from a smooth phi0 under random controls."""
    kernel = build_kernel(KernelSpec(family, 4.0, width), grid)
    return simulate(smooth_phi0(grid), ScalarField.constant(grid, 0.3),
                    random_controls(rng, grid, steps), params, kernel, TimeGrid(0.25, steps))


def one_step(state: State, u: ScalarField, v: ScalarField, params: ModelParams,
             kernel, dt: float) -> State:
    """One time step of the scheme, taken by simulate over a one-step grid."""
    controls = ControlPair(state.phi.grid, u.values[None], v.values[None])
    traj = simulate(state.phi, state.sigma, controls, params, kernel, TimeGrid(dt, 1),
                    record_monitors=False)
    return traj.state(1)


@pytest.fixture
def tgrid20():
    return TimeGrid(0.25, 20)
