"""Properties of the scheme on randomised admissible configurations.

Hypothesis draws 1D or 2D grids with anisotropic cell counts and extents,
both kernel families, every model family and chi in [0, 0.5], and builds B
so that the ellipticity gate A min F'' + B min a > chi^2 holds by
construction; the last property draws 2D grids, kernels and widths alone and
checks the convolution against its dense operator. The draws are
derandomised. Hypothesis also draws constants it finds in the
loaded modules, so which examples run can depend on what else the session
imports; the properties must hold on the whole drawn domain.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nlch_control import (ControlPair, GridSpec, KernelSpec, ModelParams,
                          ScalarField, TimeGrid, build_kernel, duality_gap,
                          mass_balance_residual, simulate)
from nlch_control.kernels import convolution_matrix, convolve_array
from nlch_control.physics import POTENTIAL, DistributionSpec, ProliferationSpec

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                             max_examples=50)


@dataclass(frozen=True)
class Run:
    grid: GridSpec
    kernel_spec: KernelSpec
    params: ModelParams
    tgrid: TimeGrid
    phi0: ScalarField
    sigma0: ScalarField
    controls: ControlPair
    seed: int

    def simulate(self, kernel=None):
        kernel = kernel or build_kernel(self.kernel_spec, self.grid)
        return simulate(self.phi0, self.sigma0, self.controls, self.params, kernel,
                        self.tgrid)


@st.composite
def admissible_runs(draw, chi_max: float):
    dim = draw(st.sampled_from([1, 2]))
    if dim == 1:
        cells = (draw(st.integers(4, 48)),)
    else:
        cells = (draw(st.integers(3, 14)), draw(st.integers(3, 14)))
    extents = tuple(draw(st.floats(0.5, 2.0)) for _ in cells)
    grid = GridSpec(cells, extents)
    # at least half the coarsest spacing, the resolution gate of build_kernel
    width = draw(st.floats(0.5, 3.0)) * max(grid.spacing)
    kernel_spec = KernelSpec(draw(st.sampled_from(["gaussian", "mollifier"])),
                             draw(st.floats(0.5, 20.0)), width)
    min_a = float(np.min(build_kernel(kernel_spec, grid).a))

    A = draw(st.floats(0.2, 1.0))
    chi = draw(st.floats(0.0, chi_max))
    # B min a exceeds chi^2 - A min F'' by a drawn factor
    B = draw(st.floats(1.1, 3.0)) * (chi * chi - A * POTENTIAL.second_derivative_min) / min_a
    params = ModelParams(
        A=A, B=B, chi=chi,
        proliferation=ProliferationSpec(draw(st.sampled_from(["smoothed_ramp",
                                                              "constant_zero"]))),
        distribution=DistributionSpec(draw(st.sampled_from(["same_as_p", "constant_one"]))),
        lambda_s=draw(st.floats(1.0, 3.0)),
    )
    steps = draw(st.integers(1, 5))
    # mass_balance_residual divides a difference of masses by dt, so its
    # round-off floor is about eps |mass| / dt; at dt = 1e-3 a correct run can
    # read 1e-12, so dt starts at 1e-2, where the floor is a decade lower
    tgrid = TimeGrid(steps * draw(st.floats(1e-2, 4e-2)), steps)

    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = grid.num_cells
    phi0 = ScalarField(grid, draw(st.floats(-0.6, 0.6)) + 0.3 * rng.standard_normal(n))
    sigma0 = ScalarField(grid, 0.5 * rng.random(n))
    controls = ControlPair(grid, 0.2 * rng.standard_normal((steps, n)),
                           0.2 * rng.standard_normal((steps, n)))
    return Run(grid, kernel_spec, params, tgrid, phi0, sigma0, controls, seed)


@PROPERTY_SETTINGS
@given(admissible_runs(chi_max=0.5))
def test_forward_run_balances_mass_and_repeats_bitwise(run):
    traj = run.simulate()
    assert mass_balance_residual(traj, run.controls, run.params) <= 1e-12
    again = run.simulate()
    assert np.array_equal(traj.phi, again.phi)
    assert np.array_equal(traj.sigma, again.sigma)
    assert traj.monitors == again.monitors


@PROPERTY_SETTINGS
@given(admissible_runs(chi_max=0.5))
def test_tangent_and_adjoint_are_exact_transposes(run):
    kernel = build_kernel(run.kernel_spec, run.grid)
    traj = run.simulate(kernel)
    rng = np.random.default_rng(run.seed + 1)
    shape = (run.tgrid.steps, run.grid.num_cells)
    seeds = (run.tgrid.steps + 1, run.grid.num_cells)
    gap = duality_gap(traj, rng.standard_normal(shape), rng.standard_normal(shape),
                      rng.standard_normal(seeds), rng.standard_normal(seeds))
    assert gap <= 1e-10


@PROPERTY_SETTINGS
@given(st.integers(2, 24), st.integers(2, 24), st.floats(0.3, 2.0), st.floats(0.3, 2.0),
       st.sampled_from(["gaussian", "mollifier"]), st.floats(0.5, 40.0),
       st.integers(0, 2**32 - 1))
def test_2d_convolution_matches_dense_operator(n0, n1, e0, e1, family, width_factor, seed):
    # every form a 2D kernel keeps (separable factors, spectrum within the
    # reach, the reach clipped to the grid) against the operator built from
    # the full tap table
    grid = GridSpec((n0, n1), (e0, e1))
    kernel = build_kernel(KernelSpec(family, 3.0, width_factor * max(grid.spacing)), grid)
    f = np.random.default_rng(seed).standard_normal(grid.num_cells)
    matrix = convolution_matrix(kernel)
    got = convolve_array(kernel, f)
    # relative to the sum of absolute terms, the scale of the rounding
    assert np.all(np.abs(got - matrix @ f) <= 1e-12 * (np.abs(matrix) @ np.abs(f)))
