import numpy as np
import pytest

from nlch_control import (BoxConstraints, ControlPair, CostSpec, GridSpec,
                          ModelParams, PgdOptions, ScalarField, TimeGrid,
                          adjoint_sweep, cost, pgd_optimize, project_box,
                          projection_formula_defect, reduced_gradient,
                          simulate, stationarity_residual)
from nlch_control.control import control_inner_qt
from nlch_control.errors import (ChemotaxisScopeError, FieldShapeError,
                                 HypothesisViolationError, SolverError)
from nlch_control.physics import ProliferationSpec

from conftest import random_controls, smooth_phi0


@pytest.fixture
def setup(rng, grid1d, kernel1d, params):
    tgrid = TimeGrid(0.25, 20)
    phi0 = smooth_phi0(grid1d)
    sigma0 = ScalarField.constant(grid1d, 0.3)
    controls = random_controls(rng, grid1d, 20)
    traj = simulate(phi0, sigma0, controls, params, kernel1d, tgrid)
    return tgrid, phi0, sigma0, controls, traj


def cost_direct_oracle(traj, controls, spec):
    """Independent quadrature: plain Python sums over cells and steps."""
    vol = traj.grid.cell_volume
    dt = traj.tgrid.dt
    steps = traj.steps
    total = 0.0
    total += 0.5 * spec.alpha_omega * sum(
        (traj.phi[steps][i] - spec.phi_omega.values[i]) ** 2 for i in range(traj.grid.num_cells)
    ) * vol
    total += 0.5 * spec.beta_omega * sum(
        (traj.sigma[steps][i] - spec.sigma_omega.values[i]) ** 2 for i in range(traj.grid.num_cells)
    ) * vol
    for n in range(steps):
        total += 0.5 * spec.alpha_q * dt * sum(
            (traj.phi[n][i] - spec.phi_q[n][i]) ** 2 for i in range(traj.grid.num_cells)) * vol
        total += 0.5 * spec.beta_q * dt * sum(
            (traj.sigma[n][i] - spec.sigma_q[n][i]) ** 2 for i in range(traj.grid.num_cells)) * vol
        total += 0.5 * spec.alpha_u * dt * sum(
            controls.u[n][i] ** 2 for i in range(traj.grid.num_cells)) * vol
        total += 0.5 * spec.beta_v * dt * sum(
            controls.v[n][i] ** 2 for i in range(traj.grid.num_cells)) * vol
    return total


def test_cost_zero_cases(setup, grid1d, kernel1d, params):
    tgrid, phi0, sigma0, controls, traj = setup
    all_zero = CostSpec.tracking(grid1d, 20)
    assert cost(traj, all_zero) == 0.0
    with pytest.raises(HypothesisViolationError):
        all_zero.validate()

    # targets equal to the trajectory of zero controls: cost vanishes
    traj0 = simulate(phi0, sigma0, ControlPair.zeros(grid1d, 20), params, kernel1d, tgrid)
    spec = CostSpec.tracking(
        grid1d, 20, alpha_omega=1.0, alpha_q=1.0, beta_omega=1.0, beta_q=1.0,
        alpha_u=1.0, beta_v=1.0,
        phi_omega=ScalarField(grid1d, traj0.phi[20]),
        sigma_omega=ScalarField(grid1d, traj0.sigma[20]),
        phi_q=traj0.phi[:20].copy(), sigma_q=traj0.sigma[:20].copy(),
    )
    assert cost(traj0, spec) == 0.0


def test_cost_matches_direct_oracle(rng, grid1d_small, kernel1d_small):
    params = ModelParams(A=0.5, B=1.2, chi=0.0)
    tgrid = TimeGrid(0.1, 6)
    phi0 = ScalarField(grid1d_small, 0.3 * rng.standard_normal(8))
    sigma0 = ScalarField(grid1d_small, 0.3 * rng.standard_normal(8))
    controls = random_controls(rng, grid1d_small, 6)
    traj = simulate(phi0, sigma0, controls, params, kernel1d_small, tgrid)
    spec = CostSpec.tracking(
        grid1d_small, 6, alpha_omega=0.7, alpha_q=0.4, beta_omega=0.2, beta_q=0.9,
        alpha_u=0.3, beta_v=0.8,
        phi_omega=ScalarField(grid1d_small, rng.standard_normal(8)),
        sigma_omega=ScalarField(grid1d_small, rng.standard_normal(8)),
        phi_q=rng.standard_normal((6, 8)), sigma_q=rng.standard_normal((6, 8)),
    )
    oracle = cost_direct_oracle(traj, controls, spec)
    assert cost(traj, spec) == pytest.approx(oracle, rel=1e-12)


def test_cost_spec_validation(grid1d):
    with pytest.raises(HypothesisViolationError):
        CostSpec.tracking(grid1d, 10, alpha_omega=-1.0)
    other = GridSpec((16,), (1.0,))
    with pytest.raises(FieldShapeError):
        CostSpec.tracking(grid1d, 10, alpha_omega=1.0,
                          sigma_omega=ScalarField.constant(other, 0.0))
    with pytest.raises(FieldShapeError):
        CostSpec.tracking(grid1d, 10, phi_q=np.zeros((10, 7)))


def test_reduced_gradient_tikhonov_only(setup, grid1d, kernel1d, params):
    tgrid, phi0, sigma0, controls, traj = setup
    # zero tracking weights: adjoint is identically zero
    spec = CostSpec.tracking(grid1d, 20, alpha_u=0.3, beta_v=0.7)
    g = reduced_gradient(adjoint_sweep(traj, spec, params, kernel1d), spec)
    assert np.allclose(g.u, 0.3 * controls.u, rtol=0, atol=0)
    assert np.allclose(g.v, 0.7 * controls.v, rtol=0, atol=0)

    zero_controls = ControlPair.zeros(grid1d, 20)
    traj0 = simulate(phi0, sigma0, zero_controls, params, kernel1d, tgrid)
    g0 = reduced_gradient(adjoint_sweep(traj0, spec, params, kernel1d), spec)
    assert np.all(g0.u == 0.0) and np.all(g0.v == 0.0)


def test_project_box_cases(rng, grid1d):
    box = BoxConstraints.constant(grid1d, 5, -1.0, 1.0, -0.5, 0.5)
    inside = ControlPair(grid1d, 0.5 * rng.uniform(-1, 1, (5, grid1d.num_cells)),
                         0.4 * rng.uniform(-1, 1, (5, grid1d.num_cells)))
    projected = project_box(inside, box)
    assert np.array_equal(projected.u, inside.u)
    assert np.array_equal(projected.v, inside.v)

    over = ControlPair(grid1d, np.full((5, grid1d.num_cells), 5.0),
                       np.zeros((5, grid1d.num_cells)))
    clamped = project_box(over, box)
    assert np.all(clamped.u == 1.0)

    once = project_box(inside, box)
    twice = project_box(once, box)
    assert np.array_equal(once.u, twice.u) and np.array_equal(once.v, twice.v)


def test_box_constraints_invariant():
    grid = GridSpec((8,), (1.0,))
    with pytest.raises(HypothesisViolationError):
        BoxConstraints.constant(grid, 3, 1.0, -1.0, 0.0, 1.0)


def test_stationarity_residual_cases(rng, grid1d):
    dt = 0.05
    box = BoxConstraints.constant(grid1d, 5, -1.0, 1.0, -1.0, 1.0)
    c = ControlPair(grid1d, 0.2 * rng.uniform(-1, 1, (5, grid1d.num_cells)),
                    0.2 * rng.uniform(-1, 1, (5, grid1d.num_cells)))
    zero_g = ControlPair.zeros(grid1d, 5)
    assert stationarity_residual(c, zero_g, box, dt) == 0.0

    small_g = ControlPair(grid1d, 0.01 * rng.standard_normal((5, grid1d.num_cells)),
                          0.01 * rng.standard_normal((5, grid1d.num_cells)))
    resid = stationarity_residual(c, small_g, box, dt)
    g_norm = np.sqrt(control_inner_qt(small_g, small_g, dt))
    assert resid == pytest.approx(g_norm, rel=1e-12)

    # iterate pinned at the upper bound with an outward-pointing gradient
    at_max = ControlPair(grid1d, np.ones((5, grid1d.num_cells)),
                         np.zeros((5, grid1d.num_cells)))
    outward = ControlPair(grid1d, -np.ones((5, grid1d.num_cells)),
                          np.zeros((5, grid1d.num_cells)))
    assert stationarity_residual(at_max, outward, box, dt) == 0.0


def test_pgd_zero_gradient_terminates_immediately(grid1d, kernel1d, params):
    tgrid = TimeGrid(0.25, 20)
    phi0 = smooth_phi0(grid1d)
    sigma0 = ScalarField.constant(grid1d, 0.3)
    spec = CostSpec.tracking(grid1d, 20, alpha_u=1.0, beta_v=1.0)
    box = BoxConstraints.constant(grid1d, 20, -1.0, 1.0, -1.0, 1.0)
    report = pgd_optimize(ControlPair.zeros(grid1d, 20), box, spec, params, kernel1d,
                          tgrid, phi0, sigma0)
    assert report.iterations == 0
    assert report.termination == "converged"
    assert report.residuals[0] == 0.0
    assert_final_adjoint_is_fresh(report, (phi0, sigma0), spec, params, kernel1d, tgrid)


def assert_final_adjoint_is_fresh(report, initial, spec, params, kernel, tgrid):
    """final_adjoint is bitwise a fresh adjoint sweep at the final controls."""
    adj = report.final_adjoint
    assert adj.traj.controls is report.final_controls
    traj = simulate(*initial, report.final_controls, params, kernel, tgrid,
                    record_monitors=False)
    fresh = adjoint_sweep(traj, spec, params, kernel)
    assert np.array_equal(adj.traj.phi, traj.phi) and np.array_equal(adj.traj.sigma, traj.sigma)
    assert np.array_equal(adj.p, fresh.p) and np.array_equal(adj.r, fresh.r)


def test_pgd_rejects_chemotaxis(grid1d, params):
    from nlch_control import KernelSpec, build_kernel

    kernel = build_kernel(KernelSpec("gaussian", 8.0, 0.2), grid1d)
    bad = ModelParams(A=0.5, B=1.0, chi=0.2)
    tgrid = TimeGrid(0.1, 5)
    spec = CostSpec.tracking(grid1d, 5, alpha_u=1.0, beta_v=1.0)
    box = BoxConstraints.constant(grid1d, 5, -1.0, 1.0, -1.0, 1.0)
    with pytest.raises(ChemotaxisScopeError):
        pgd_optimize(ControlPair.zeros(grid1d, 5), box, spec, bad, kernel, tgrid,
                     smooth_phi0(grid1d), ScalarField.constant(grid1d, 0.0))


@pytest.fixture
def manufactured(grid1d, kernel1d, params):
    return manufactured_problem(grid1d, kernel1d, params, TimeGrid(0.4, 24))


def manufactured_problem(grid, kernel, params, tgrid):
    x = grid.cell_centers()[0]
    phi0 = smooth_phi0(grid)
    sigma0 = ScalarField.constant(grid, 0.3)
    u_star = 0.3 * np.exp(-((x - 0.3) ** 2) / (2 * 0.1 ** 2))
    v_star = -0.2 * np.exp(-((x - 0.7) ** 2) / (2 * 0.15 ** 2))
    steps = tgrid.steps
    c_star = ControlPair(grid, np.tile(u_star, (steps, 1)), np.tile(v_star, (steps, 1)))
    traj_star = simulate(phi0, sigma0, c_star, params, kernel, tgrid)
    return tgrid, phi0, sigma0, c_star, traj_star


def manufactured_spec(grid, traj_star, alpha_u, beta_v):
    steps = traj_star.steps
    return CostSpec.tracking(
        grid, steps, alpha_omega=1.0, alpha_q=1.0, beta_omega=1.0, beta_q=1.0,
        alpha_u=alpha_u, beta_v=beta_v,
        phi_omega=ScalarField(grid, traj_star.phi[steps]),
        sigma_omega=ScalarField(grid, traj_star.sigma[steps]),
        phi_q=traj_star.phi[:steps].copy(),
        sigma_q=traj_star.sigma[:steps].copy(),
    )


def test_pgd_manufactured_recovery(grid1d, kernel1d, params, manufactured):
    tgrid, phi0, sigma0, c_star, traj_star = manufactured
    spec = manufactured_spec(grid1d, traj_star, 1e-6, 1e-6)
    box = BoxConstraints.constant(grid1d, 24, -1.0, 1.0, -1.0, 1.0)
    iterate_log = []
    report = pgd_optimize(ControlPair.zeros(grid1d, 24), box, spec, params, kernel1d,
                          tgrid, phi0, sigma0, opts=PgdOptions(tol=1e-12, max_iter=15),
                          callback=lambda k, j, r, t, ls, c: iterate_log.append(c))
    costs = np.array(report.costs)
    assert np.min(costs) <= 0.01 * costs[0]
    # monotone strict descent on accepted iterations
    assert np.all(np.diff(costs) < 0)
    # every iterate feasible bitwise
    for c in iterate_log:
        clamped = project_box(c, box)
        assert np.array_equal(c.u, clamped.u) and np.array_equal(c.v, clamped.v)


def test_pgd_projection_formula_at_convergence(grid1d, kernel1d, params, manufactured):
    tgrid, phi0, sigma0, c_star, traj_star = manufactured
    spec = manufactured_spec(grid1d, traj_star, 1e-2, 1e-2)
    box = BoxConstraints.constant(grid1d, 24, -1.0, 1.0, -1.0, 1.0)
    report = pgd_optimize(ControlPair.zeros(grid1d, 24), box, spec, params, kernel1d,
                          tgrid, phi0, sigma0, opts=PgdOptions(tol=1e-9, max_iter=400))
    assert report.termination == "converged"
    final = report.final_controls
    traj = simulate(phi0, sigma0, final, params, kernel1d, tgrid)
    adj = adjoint_sweep(traj, spec, params, kernel1d)
    defect_u, defect_v = projection_formula_defect(final, traj, adj, spec, box)
    assert defect_u <= 1e-4
    assert defect_v <= 1e-4
    # the optimum sits strictly inside the box
    assert np.max(final.u) < 1.0 and np.min(final.u) > -1.0
    assert np.max(final.v) < 1.0 and np.min(final.v) > -1.0


def test_pgd_scaling_consistency_bitwise(grid1d, kernel1d, params, manufactured):
    tgrid, phi0, sigma0, c_star, traj_star = manufactured
    box = BoxConstraints.constant(grid1d, 24, -1.0, 1.0, -1.0, 1.0)
    lam = 2.0
    spec1 = manufactured_spec(grid1d, traj_star, 1e-2, 1e-2)
    spec2 = CostSpec.tracking(
        grid1d, 24, alpha_omega=lam, alpha_q=lam, beta_omega=lam, beta_q=lam,
        alpha_u=lam * 1e-2, beta_v=lam * 1e-2,
        phi_omega=spec1.phi_omega, sigma_omega=spec1.sigma_omega,
        phi_q=spec1.phi_q, sigma_q=spec1.sigma_q,
    )
    c0 = ControlPair.zeros(grid1d, 24)
    opts1 = PgdOptions(tol=0.0, max_iter=10, tau0=1.0)
    opts2 = PgdOptions(tol=0.0, max_iter=10, tau0=1.0 / lam)
    r1 = pgd_optimize(c0, box, spec1, params, kernel1d, tgrid, phi0, sigma0, opts=opts1)
    r2 = pgd_optimize(c0, box, spec2, params, kernel1d, tgrid, phi0, sigma0, opts=opts2)
    assert np.array_equal(r1.final_controls.u, r2.final_controls.u)
    assert np.array_equal(r1.final_controls.v, r2.final_controls.v)


def test_pgd_flat_gradient_termination(grid1d, kernel1d, params):
    # box reduced to a single point: the iterate is pinned, every projected
    # trial step returns it and no decrease is possible; with the residual
    # exit disabled (tol < 0) the line search must exhaust and be recorded
    # as flat_gradient, not raised
    tgrid = TimeGrid(0.1, 5)
    phi0 = smooth_phi0(grid1d)
    sigma0 = ScalarField.constant(grid1d, 0.3)
    spec = CostSpec.tracking(grid1d, 5, alpha_omega=1.0, alpha_u=1e-2, beta_v=1e-2)
    box = BoxConstraints.constant(grid1d, 5, 0.3, 0.3, -0.2, -0.2)
    report = pgd_optimize(ControlPair.zeros(grid1d, 5), box, spec, params, kernel1d,
                          tgrid, phi0, sigma0, opts=PgdOptions(tol=-1.0, max_iter=10))
    assert report.termination == "flat_gradient"
    assert report.iterations == 0
    assert np.all(report.final_controls.u == 0.3)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_pgd_nonfinite_cost_raises():
    # sigma grows to ~1e200 under v = 1e200, so its tracking term overflows to
    # inf at the starting iterate; this must fail loudly, not end "flat_gradient"
    from nlch_control import KernelSpec, build_kernel

    grid = GridSpec((16,), (1.0,))
    kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.2), grid)
    params = ModelParams(A=0.5, B=1.0, chi=0.0,
                         proliferation=ProliferationSpec("constant_zero"))
    tgrid = TimeGrid(0.1, 5)
    c0 = ControlPair(grid, np.zeros((5, 16)), np.full((5, 16), 1e200))
    box = BoxConstraints.constant(grid, 5, -1.0, 1.0, -1e201, 1e201)
    spec = CostSpec.tracking(grid, 5, beta_omega=1.0)
    with pytest.raises(SolverError, match="iterate 0") as info:
        pgd_optimize(c0, box, spec, params, kernel, tgrid, smooth_phi0(grid),
                     ScalarField.constant(grid, 0.0))
    assert info.value.iterations == 0


def projection_formula_defect_loop(controls, traj, adj, spec, box):
    """The per-step loop form of projection_formula_defect."""
    steps = traj.steps
    distrib = traj.ops.params.distribution.evaluate(traj.phi[:steps], 0)
    worst_u = worst_v = 0.0
    for n in range(steps):
        target = distrib[n] * adj.p[n] / spec.alpha_u
        clamped = np.minimum(np.maximum(target, box.u_min[n]), box.u_max[n])
        worst_u = max(worst_u, float(np.max(np.abs(controls.u[n] - clamped))))
        target = -adj.r[n] / spec.beta_v
        clamped = np.minimum(np.maximum(target, box.v_min[n]), box.v_max[n])
        worst_v = max(worst_v, float(np.max(np.abs(controls.v[n] - clamped))))
    return worst_u, worst_v


@pytest.fixture(scope="module")
def criterion5_run():
    """The acceptance criterion-5 problem solved to 1e-9, with every
    simulate and adjoint_sweep call made inside pgd_optimize counted."""
    import nlch_control.control as control
    from nlch_control import KernelSpec, build_kernel

    grid = GridSpec((32,), (1.0,))
    kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.2), grid)
    params = ModelParams(A=0.5, B=1.0, chi=0.0)
    tgrid = TimeGrid(0.3, 24)
    _, phi0, sigma0, _, traj_star = manufactured_problem(grid, kernel, params, tgrid)
    spec = manufactured_spec(grid, traj_star, 1e-2, 1e-2)
    box = BoxConstraints.constant(grid, 24, -1.0, 1.0, -1.0, 1.0)
    sweeps = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            sweeps.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    iterates = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(control, "simulate", counted(control.simulate))
        mp.setattr(control, "adjoint_sweep", counted(control.adjoint_sweep))
        report = pgd_optimize(ControlPair.zeros(grid, 24), box, spec, params, kernel, tgrid,
                              phi0, sigma0, opts=PgdOptions(tol=1e-9, max_iter=400),
                              callback=lambda k, j, r, t, ls, c: iterates.append(c))
    problem = (grid, kernel, params, tgrid, phi0, sigma0, spec, box)
    return problem, report, iterates, sweeps


def test_pgd_spectral_steps_on_criterion5(criterion5_run):
    (grid, kernel, params, tgrid, phi0, sigma0, spec, box), report, iterates, sweeps = \
        criterion5_run
    assert report.termination == "converged"
    # step doubling needed 359 sweeps here; the spectral step needs 120
    assert len(sweeps) <= 130
    assert len(sweeps) == sum(report.linesearch_counts) + 2 + report.iterations
    assert np.all(np.diff(report.costs) < 0)
    dt = tgrid.dt

    def gradient(c):
        traj = simulate(phi0, sigma0, c, params, kernel, tgrid, record_monitors=False)
        return reduced_gradient(adjoint_sweep(traj, spec, params, kernel), spec)

    grads = [gradient(c) for c in iterates]
    lam = 1.0  # tau0
    for k in range(1, len(iterates)):
        prev, g = iterates[k - 1], grads[k - 1]
        if k >= 2:
            s = ControlPair(grid, prev.u - iterates[k - 2].u, prev.v - iterates[k - 2].v)
            y = ControlPair(grid, g.u - grads[k - 2].u, g.v - grads[k - 2].v)
            sy = control_inner_qt(s, y, dt)
            lam = 1e6 if sy <= 0.0 else min(max(control_inner_qt(s, s, dt) / sy, 1e-6), 1e6)
        alpha = 0.5 ** (report.linesearch_counts[k] - 1)
        assert report.step_sizes[k] == lam * alpha
        target = project_box(ControlPair(grid, prev.u - lam * g.u, prev.v - lam * g.v), box)
        moved = project_box(ControlPair(grid, prev.u + alpha * (target.u - prev.u),
                                        prev.v + alpha * (target.v - prev.v)), box)
        assert np.array_equal(moved.u, iterates[k].u) and np.array_equal(moved.v, iterates[k].v)
        clamped = project_box(iterates[k], box)
        assert np.array_equal(clamped.u, iterates[k].u)
        assert np.array_equal(clamped.v, iterates[k].v)


def test_pgd_final_adjoint_on_criterion5(criterion5_run):
    (grid, kernel, params, tgrid, phi0, sigma0, spec, box), report, _, _ = criterion5_run
    assert report.termination == "converged" and report.iterations > 0
    assert_final_adjoint_is_fresh(report, (phi0, sigma0), spec, params, kernel, tgrid)


def test_projection_formula_defect_matches_loop(criterion5_run):
    (grid, kernel, params, tgrid, phi0, sigma0, spec, box), report, iterates, _ = criterion5_run
    for c in (iterates[0], iterates[1], report.final_controls):
        traj = simulate(phi0, sigma0, c, params, kernel, tgrid)
        adj = adjoint_sweep(traj, spec, params, kernel)
        assert (projection_formula_defect(c, traj, adj, spec, box)
                == projection_formula_defect_loop(c, traj, adj, spec, box))
