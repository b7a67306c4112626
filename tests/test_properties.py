"""Properties of the scheme on randomised admissible configurations.

Hypothesis draws 1D or 2D grids with anisotropic cell counts and extents,
both kernel families, every model family and chi in [0, 0.5] (exactly 0 in
a fixed share of draws), and builds B so that the ellipticity gate
A min F'' + B min a > chi^2 holds by construction. The duality property also
draws 1D grids of 257-900 cells, the FFT convolution and LU solves; the mass
property does not, since its gate of 1e-12 sits at the round-off floor of
the balance on such grids. The last property draws 2D grids, kernels and
widths alone and checks the convolution against its dense operator. The
draws are derandomised. Hypothesis also draws constants it finds in the
loaded modules, so which examples run can depend on what else the session
imports; the properties must hold on the whole drawn domain.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlch_control import (ControlPair, GridSpec, KernelSpec, ModelParams,
                          ScalarField, TimeGrid, build_kernel, duality_gap,
                          mass_balance_residual, simulate)
from nlch_control.geometry import DENSE_MAX_CELLS
from nlch_control.kernels import convolution_matrix, convolve_array
from nlch_control.physics import POTENTIAL, DistributionSpec, ProliferationSpec
from nlch_control.sensitivity import hold_linearisation

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
def admissible_runs(draw, chi_max: float, large_1d: bool = False):
    # large_1d adds 1D grids past DENSE_MAX_CELLS (FFT convolution, LU
    # solves) with at most 3 steps
    forms = (["large-1d"] if large_1d else []) + ["dense-1d", "2d"]
    form = draw(st.sampled_from(forms))
    if form == "dense-1d":
        cells = (draw(st.integers(4, 48)),)
    elif form == "large-1d":
        cells = (draw(st.integers(DENSE_MAX_CELLS + 1, 900)),)
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
    # chi = 0 exactly in a fixed share of draws: the steps skip its terms
    chi = draw(st.one_of(st.just(0.0), st.floats(0.0, chi_max)))
    # B min a exceeds chi^2 - A min F'' by a drawn factor
    B = draw(st.floats(1.1, 3.0)) * (chi * chi - A * POTENTIAL.second_derivative_min) / min_a
    params = ModelParams(
        A=A, B=B, chi=chi,
        proliferation=ProliferationSpec(draw(st.sampled_from(["smoothed_ramp",
                                                              "constant_zero"]))),
        distribution=DistributionSpec(draw(st.sampled_from(["same_as_p", "constant_one"]))),
        lambda_s=draw(st.floats(1.0, 3.0)),
    )
    steps = draw(st.integers(1, 3 if form == "large-1d" else 5))
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


def large_1d_run(chi: float) -> Run:
    """A fixed run on 300 cells, the FFT convolution and LU solves."""
    grid = GridSpec((300,), (1.0,))
    kernel_spec = KernelSpec("gaussian", 4.0, 0.2)
    steps = 3
    rng = np.random.default_rng(11)
    phi0 = ScalarField(grid, 0.3 * rng.standard_normal(300))
    sigma0 = ScalarField(grid, 0.5 * rng.random(300))
    controls = ControlPair(grid, 0.2 * rng.standard_normal((steps, 300)),
                           0.2 * rng.standard_normal((steps, 300)))
    return Run(grid, kernel_spec, ModelParams(A=0.5, B=1.0, chi=chi),
               TimeGrid(0.06, steps), phi0, sigma0, controls, 11)


@PROPERTY_SETTINGS
@given(admissible_runs(chi_max=0.5, large_1d=True))
# the large 1D branch with chi = 0 and chi > 0, whatever Hypothesis draws
@example(large_1d_run(0.0))
@example(large_1d_run(0.3))
def test_tangent_and_adjoint_are_exact_transposes(run):
    kernel = build_kernel(run.kernel_spec, run.grid)
    traj = run.simulate(kernel)
    rng = np.random.default_rng(run.seed + 1)
    shape = (run.tgrid.steps, run.grid.num_cells)
    seeds = (run.tgrid.steps + 1, run.grid.num_cells)
    probe = (rng.standard_normal(shape), rng.standard_normal(shape),
             rng.standard_normal(seeds), rng.standard_normal(seeds))
    gap = duality_gap(traj, *probe)
    assert gap <= 1e-10
    # along the held copy the sweeps read the held P' gap: the same bits
    assert duality_gap(hold_linearisation(traj), *probe) == gap


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
