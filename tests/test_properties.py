"""Properties of the scheme on randomised admissible configurations.

Hypothesis draws 1D or 2D grids with anisotropic cell counts and extents,
both kernel families, every model family and chi in [0, 0.5] (exactly 0 in
a fixed share of draws), and builds B so that the ellipticity gate
A min F'' + B min a > chi^2 holds by construction. The duality property also
draws 1D grids of 257-900 cells, the FFT convolution and LU solves; the mass
property does not, since its gate of 1e-12 sits at the round-off floor of
the balance on such grids. The energy property draws every branch with
the reactions off (P = 0, u = v = 0, chi = 0), the gradient flow, whose
monitored energy must not rise. The last property draws 2D grids, kernels
and widths alone and checks the convolution against its dense operator. The
PGD property draws small 1D and 2D runs with tracking costs and per-cell
boxes and checks what an optimisation run promises. The draws are
derandomised. Hypothesis also draws constants it finds in the
loaded modules, so which examples run can depend on what else the session
imports; the properties must hold on the whole drawn domain.
"""

from dataclasses import dataclass
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlch_control import (BoxConstraints, ControlPair, CostSpec, GridSpec, KernelSpec,
                          ModelParams, PgdOptions, ScalarField, TimeGrid, adjoint_sweep,
                          build_kernel, cost, duality_gap, mass_balance_residual,
                          pgd_optimize, project_box, reduced_gradient, simulate)
from nlch_control import control
from nlch_control.control import control_inner_qt, projection_report
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
def admissible_runs(draw, chi_max: float, large_1d: bool = False, reactions: bool = True):
    # large_1d adds 1D grids past DENSE_MAX_CELLS (FFT convolution, LU
    # solves) with at most 3 steps; reactions=False draws the gradient flow,
    # P = 0 and u = v = 0, with its own dt and phi0 (with chi_max = 0, chi = 0)
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
                                                              "constant_zero"]))
                                        if reactions else "constant_zero"),
        distribution=DistributionSpec(draw(st.sampled_from(["same_as_p", "constant_one"]))),
        lambda_s=draw(st.floats(1.0, 3.0)),
    )
    steps = draw(st.integers(1, 3 if form == "large-1d" else 5))
    if reactions:
        # mass_balance_residual divides a difference of masses by dt, so its
        # round-off floor is about eps |mass| / dt; at dt = 1e-3 a correct run
        # can read 1e-12, so dt starts at 1e-2, where the floor is a decade lower
        dt = draw(st.floats(1e-2, 4e-2))
    else:
        # the stabilised step decreases the energy at any dt while |phi|
        # stays moderate: with phi0 = m + a U(-1, 1), m in [-0.6, 0.6], every
        # branch decreased it (and tripped no guard) for dt = 1e-3 .. 10 and a
        # up to 1.8, over 400 draws per 2D and dense 1D branch and 100 on the
        # large one; with normal noise of scale 0.7-1.0 in place of U the first
        # increases and guard trips came at sup |phi0| = 2.24. So dt spans
        # those four decades and a <= 0.9 keeps sup |phi0| <= 1.5
        dt = 10.0 ** draw(st.floats(-3.0, 1.0))
        amplitude = draw(st.floats(0.0, 0.9))
    tgrid = TimeGrid(steps * dt, steps)

    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = grid.num_cells
    mean = draw(st.floats(-0.6, 0.6))
    if reactions:
        phi0 = ScalarField(grid, mean + 0.3 * rng.standard_normal(n))
    else:
        phi0 = ScalarField(grid, mean + amplitude * (2.0 * rng.random(n) - 1.0))
    sigma0 = ScalarField(grid, 0.5 * rng.random(n))
    controls = (ControlPair(grid, 0.2 * rng.standard_normal((steps, n)),
                            0.2 * rng.standard_normal((steps, n)))
                if reactions else ControlPair.zeros(grid, steps))
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
@given(admissible_runs(chi_max=0.0, large_1d=True, reactions=False))
def test_gradient_flow_never_raises_the_energy(run):
    energy = [row[2] for row in run.simulate().monitors]
    assert max(np.diff(energy)) <= 1e-12 * max(1.0, abs(energy[0]))


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


@st.composite
def pgd_problems(draw):
    """A small admissible run with a tracking cost and a per-cell box: each
    tracking weight 0 or in [0.1, 2], both Tikhonov weights 10^U(-3, 0) (the
    projection formula divides by them), bounds within [-1, 1], the scale of
    the rounding slack below. Over 500 draws the box bound a median 57 % of
    the final u, and 88 % of the runs ended "converged", in at most 69
    iterations."""
    run = draw(admissible_runs(chi_max=0.5))
    n = run.grid.num_cells
    rng = np.random.default_rng(run.seed + 2)
    tracking = {name: draw(st.one_of(st.just(0.0), st.floats(0.1, 2.0)))
                for name in ("alpha_omega", "alpha_q", "beta_omega", "beta_q")}
    spec = CostSpec(run.grid, **tracking, alpha_u=10.0 ** draw(st.floats(-3.0, 0.0)),
                    beta_v=10.0 ** draw(st.floats(-3.0, 0.0)),
                    phi_omega=0.5 * rng.standard_normal(n), sigma_omega=0.5 * rng.random(n),
                    phi_q=0.5 * rng.standard_normal((1, n)), sigma_q=0.5 * rng.random((1, n)))
    centre = draw(st.floats(-0.5, 0.5))
    half = 0.05 + 0.45 * rng.random((2, n))
    box = BoxConstraints(run.grid, centre - half[0], centre + half[0],
                         -centre - half[1], -centre + half[1])
    return run, spec, box


@PROPERTY_SETTINGS
@given(pgd_problems())
def test_pgd_keeps_its_promises(problem):
    run, spec, box = problem
    kernel = build_kernel(run.kernel_spec, run.grid)
    iterates = []
    sweeps = {"simulate": 0, "adjoint_sweep": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            sweeps[name] += 1
            return fn(*args, **kwargs)
        return call

    with mock.patch.object(control, "simulate", counted("simulate", simulate)), \
            mock.patch.object(control, "adjoint_sweep", counted("adjoint_sweep", adjoint_sweep)):
        report = pgd_optimize(run.controls, box, spec, run.params, kernel, run.tgrid,
                              run.phi0, run.sigma0, opts=PgdOptions(tol=1e-9, max_iter=1000),
                              callback=lambda k, j, r, t, ls, c: iterates.append(c))
    assert report.termination in ("converged", "flat_gradient")
    assert all(np.diff(report.costs) < 0.0)
    assert len(iterates) == report.iterations + 1
    # every iterate lies in the box bit for bit, compared with the bounds
    # themselves rather than through a clamp
    for c in iterates:
        assert np.all((box.u_min <= c.u) & (c.u <= box.u_max))
        assert np.all((box.v_min <= c.v) & (c.v <= box.v_max))
    assert report.sweeps == sweeps["simulate"] + sweeps["adjoint_sweep"]
    # each defect within its Calamai-More bound, up to the rounding slack of
    # tests/test_box_optimality.py: 4 ulps of 1 / alpha, the bounds being of
    # magnitude at most 1
    verdict = projection_report(report, spec, box)
    for label, weight in (("u", spec.alpha_u), ("v", spec.beta_v)):
        assert (verdict[f"projection_defect_{label}"]
                <= verdict[f"defect_bound_{label}"] + 4 * np.finfo(float).eps / weight)
    # the gradient PGD follows is the derivative of the cost it decreases: a
    # central difference along the gradient at the projected start, with
    # sup |h g| = 1e-3, agrees with <g, g> to 1e-6 (1.3e-9 at worst over 500
    # draws of this strategy), which a gradient off by 0.1 % fails
    c0 = project_box(run.controls, box)
    traj = simulate(run.phi0, run.sigma0, c0, run.params, kernel, run.tgrid,
                    record_monitors=False)
    g = reduced_gradient(adjoint_sweep(traj, spec, run.params, kernel), spec)
    slope = control_inner_qt(g, g, run.tgrid.dt)
    if slope > 0.0:
        h = 1e-3 / max(np.max(np.abs(g.u)), np.max(np.abs(g.v)))

        def cost_at(step):
            moved = ControlPair(run.grid, c0.u + step * g.u, c0.v + step * g.v)
            return cost(simulate(run.phi0, run.sigma0, moved, run.params, kernel, run.tgrid,
                                 record_monitors=False), spec)

        assert abs((cost_at(h) - cost_at(-h)) / (2.0 * h) - slope) <= 1e-6 * slope
