import numpy as np
import pytest

from nlch_control import (ControlPair, GridSpec, KernelSpec, ModelParams,
                          ScalarField, State, TimeGrid, build_kernel, simulate)
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


def random_controls(rng, grid: GridSpec, steps: int, scale: float = 0.1) -> ControlPair:
    return ControlPair(
        grid,
        scale * rng.standard_normal((steps, grid.num_cells)),
        scale * rng.standard_normal((steps, grid.num_cells)),
    )


def one_step(state: State, u: ScalarField, v: ScalarField, params: ModelParams,
             kernel, dt: float) -> State:
    """One time step of the scheme, taken by simulate over a one-step grid."""
    controls = ControlPair(state.grid, u.values[None], v.values[None])
    traj = simulate(state.phi, state.sigma, controls, params, kernel, TimeGrid(dt, 1),
                    record_monitors=False)
    return traj.state(1)


@pytest.fixture
def tgrid20():
    return TimeGrid(0.25, 20)
