import dataclasses

import numpy as np
import pytest

from nlch_control import (BoxConstraints, ControlPair, CostSpec, GridSpec,
                          KernelSpec, ModelParams, PgdOptions, ScalarField, TimeGrid,
                          adjoint_sweep, build_kernel, cost, pgd_optimize, project_box,
                          projection_formula_defect, reduced_gradient,
                          simulate, stationarity_residual)
from nlch_control.control import control_inner_qt
from nlch_control.errors import (FieldShapeError, HypothesisViolationError,
                                 InstabilityError, SolverError)
from nlch_control.gradcheck import run_gradcheck
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
        (traj.phi[steps][i] - spec.phi_omega[i]) ** 2 for i in range(traj.grid.num_cells)
    ) * vol
    total += 0.5 * spec.beta_omega * sum(
        (traj.sigma[steps][i] - spec.sigma_omega[i]) ** 2 for i in range(traj.grid.num_cells)
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
    all_zero = CostSpec(grid1d)
    assert cost(traj, all_zero) == 0.0
    with pytest.raises(HypothesisViolationError):
        all_zero.validate()

    # targets equal to the trajectory of zero controls: cost vanishes
    traj0 = simulate(phi0, sigma0, ControlPair.zeros(grid1d, 20), params, kernel1d, tgrid)
    spec = CostSpec(
        grid1d, alpha_omega=1.0, alpha_q=1.0, beta_omega=1.0, beta_q=1.0,
        alpha_u=1.0, beta_v=1.0,
        phi_omega=traj0.phi[20],
        sigma_omega=traj0.sigma[20],
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
    spec = CostSpec(
        grid1d_small, alpha_omega=0.7, alpha_q=0.4, beta_omega=0.2, beta_q=0.9,
        alpha_u=0.3, beta_v=0.8,
        phi_omega=rng.standard_normal(8),
        sigma_omega=rng.standard_normal(8),
        phi_q=rng.standard_normal((6, 8)), sigma_q=rng.standard_normal((6, 8)),
    )
    oracle = cost_direct_oracle(traj, controls, spec)
    assert cost(traj, spec) == pytest.approx(oracle, rel=1e-12)


def test_cost_spec_validation(grid1d):
    with pytest.raises(HypothesisViolationError):
        CostSpec(grid1d, alpha_omega=-1.0)
    with pytest.raises(FieldShapeError):
        CostSpec(grid1d, phi_q=np.zeros((10, 7)))


@pytest.mark.parametrize("name", ["phi_omega", "sigma_omega"])
@pytest.mark.parametrize("target", [np.zeros(31), np.zeros((1, 32)),
                                    np.where(np.arange(32) == 7, np.nan, 0.0)],
                         ids=["too-few", "one-row-block", "nan"])
def test_cost_spec_rejects_a_bad_omega_target(grid1d, name, target):
    with pytest.raises(FieldShapeError):
        CostSpec(grid1d, alpha_omega=1.0, **{name: target})


def test_running_targets_one_row_or_one_per_step(setup, grid1d, kernel1d, params):
    # a constant running target as one row is the same target as its tiled
    # form, bitwise in the cost and the adjoint; any other row count is refused
    traj = setup[-1]
    weights = dict(alpha_omega=1.0, alpha_q=0.7, beta_q=0.4, alpha_u=0.1)
    row = np.full((1, grid1d.num_cells), 0.1)
    one = CostSpec(grid1d, **weights, phi_q=row, sigma_q=row + 0.2)
    tiled = CostSpec(grid1d, **weights, phi_q=np.tile(row, (20, 1)),
                              sigma_q=np.tile(row + 0.2, (20, 1)))
    assert cost(traj, one) == cost(traj, tiled)
    adj_one = adjoint_sweep(traj, one, params, kernel1d)
    adj_tiled = adjoint_sweep(traj, tiled, params, kernel1d)
    assert np.array_equal(adj_one.p, adj_tiled.p) and np.array_equal(adj_one.r, adj_tiled.r)
    with pytest.raises(FieldShapeError, match="sigma_q carries 3 rows"):
        cost(traj, CostSpec(grid1d, **weights, sigma_q=np.zeros((3, grid1d.num_cells))))


def test_reduced_gradient_tikhonov_only(setup, grid1d, kernel1d, params):
    tgrid, phi0, sigma0, controls, traj = setup
    # zero tracking weights: adjoint is identically zero
    spec = CostSpec(grid1d, alpha_u=0.3, beta_v=0.7)
    g = reduced_gradient(adjoint_sweep(traj, spec, params, kernel1d), spec)
    assert np.allclose(g.u, 0.3 * controls.u, rtol=0, atol=0)
    assert np.allclose(g.v, 0.7 * controls.v, rtol=0, atol=0)

    zero_controls = ControlPair.zeros(grid1d, 20)
    traj0 = simulate(phi0, sigma0, zero_controls, params, kernel1d, tgrid)
    g0 = reduced_gradient(adjoint_sweep(traj0, spec, params, kernel1d), spec)
    assert np.all(g0.u == 0.0) and np.all(g0.v == 0.0)


def test_project_box_cases(rng, grid1d):
    box = BoxConstraints.constant(grid1d, -1.0, 1.0, -0.5, 0.5)
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
        BoxConstraints.constant(grid, 1.0, -1.0, 0.0, 1.0)


def test_stationarity_residual_cases(rng, grid1d):
    dt = 0.05
    box = BoxConstraints.constant(grid1d, -1.0, 1.0, -1.0, 1.0)
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
    spec = CostSpec(grid1d, alpha_u=1.0, beta_v=1.0)
    box = BoxConstraints.constant(grid1d, -1.0, 1.0, -1.0, 1.0)
    report = pgd_optimize(ControlPair.zeros(grid1d, 20), box, spec, params, kernel1d,
                          tgrid, phi0, sigma0)
    assert report.iterations == 0
    assert report.termination == "converged"
    assert report.residuals[0] == 0.0
    assert_final_adjoint_is_fresh(report, (phi0, sigma0), spec, params, kernel1d, tgrid)


def test_pgd_rejects_inadmissible_params_before_any_iterate(grid1d, kernel1d):
    # c0 = A min F'' + B min a <= chi^2: the first sweep's gate raises before
    # any solve, so no iterate is ever reported
    params = ModelParams(A=10.0, B=1e-6, chi=0.0)
    tgrid = TimeGrid(0.25, 20)
    spec = CostSpec(grid1d, alpha_omega=1.0)
    box = BoxConstraints.constant(grid1d, -1.0, 1.0, -1.0, 1.0)
    reported = []
    with pytest.raises(HypothesisViolationError, match=r"c0 = .* <= chi\^2"):
        pgd_optimize(ControlPair.zeros(grid1d, 20), box, spec, params, kernel1d, tgrid,
                     smooth_phi0(grid1d), ScalarField.constant(grid1d, 0.3),
                     callback=lambda *args: reported.append(args))
    assert reported == []


def assert_final_adjoint_is_fresh(report, initial, spec, params, kernel, tgrid):
    """final_adjoint is bitwise a fresh adjoint sweep at the final controls."""
    adj = report.final_adjoint
    assert adj.traj.controls is report.final_controls
    traj = simulate(*initial, report.final_controls, params, kernel, tgrid,
                    record_monitors=False)
    fresh = adjoint_sweep(traj, spec, params, kernel)
    assert np.array_equal(adj.traj.phi, traj.phi) and np.array_equal(adj.traj.sigma, traj.sigma)
    assert np.array_equal(adj.p, fresh.p) and np.array_equal(adj.r, fresh.r)


def test_pgd_converges_with_chemotaxis(grid1d):
    # chi > 0 is optimised like chi = 0: the adjoint carries the chemotaxis
    # terms, and the only gate on chi is ellipticity
    from nlch_control import KernelSpec, build_kernel

    kernel = build_kernel(KernelSpec("gaussian", 8.0, 0.2), grid1d)
    params = ModelParams(A=0.5, B=1.0, chi=0.4)
    tgrid, phi0, sigma0, _, traj_star = manufactured_problem(grid1d, kernel, params,
                                                             TimeGrid(0.4, 24))
    spec = manufactured_spec(grid1d, traj_star, 1e-2, 1e-2)
    box = BoxConstraints.constant(grid1d, -1.0, 1.0, -1.0, 1.0)
    report = pgd_optimize(ControlPair.zeros(grid1d, 24), box, spec, params, kernel, tgrid,
                          phi0, sigma0, opts=PgdOptions(tol=1e-6, max_iter=50))
    assert report.termination == "converged"
    assert report.iterations > 0
    assert np.all(np.diff(report.costs) < 0)


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
    return CostSpec(
        grid, alpha_omega=1.0, alpha_q=1.0, beta_omega=1.0, beta_q=1.0,
        alpha_u=alpha_u, beta_v=beta_v,
        phi_omega=traj_star.phi[steps],
        sigma_omega=traj_star.sigma[steps],
        phi_q=traj_star.phi[:steps].copy(),
        sigma_q=traj_star.sigma[:steps].copy(),
    )


def test_pgd_manufactured_recovery(grid1d, kernel1d, params, manufactured):
    tgrid, phi0, sigma0, c_star, traj_star = manufactured
    spec = manufactured_spec(grid1d, traj_star, 1e-6, 1e-6)
    box = BoxConstraints.constant(grid1d, -1.0, 1.0, -1.0, 1.0)
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
    box = BoxConstraints.constant(grid1d, -1.0, 1.0, -1.0, 1.0)
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
    box = BoxConstraints.constant(grid1d, -1.0, 1.0, -1.0, 1.0)
    lam = 2.0
    spec1 = manufactured_spec(grid1d, traj_star, 1e-2, 1e-2)
    spec2 = CostSpec(
        grid1d, alpha_omega=lam, alpha_q=lam, beta_omega=lam, beta_q=lam,
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


def test_pgd_options_reject_values_out_of_range():
    # each of these ran at the parent: tau0 <= 0 ended "flat_gradient" after
    # 0 iterations, a NaN tol ran max_iter iterations, max_iter < 0 none
    for bad in ({"tau0": 0.0}, {"tau0": -1.0}, {"tau0": np.inf}, {"tau0": np.nan},
                {"tol": np.nan}, {"max_iter": -1}):
        with pytest.raises(HypothesisViolationError, match=next(iter(bad))):
            PgdOptions(**bad)
    with pytest.raises(HypothesisViolationError) as info:
        PgdOptions(tol=np.nan, max_iter=-1, tau0=0.0)
    assert [m.split(" ")[0] for m in str(info.value).split("; ")] == ["tol", "max_iter", "tau0"]
    # tol = 0 runs until the residual is exactly 0, a negative tol never stops on it
    PgdOptions(tol=0.0, max_iter=0)
    PgdOptions(tol=-1.0)


def test_value_classes_compare_without_reading_arrays(grid1d):
    # two builds of one kernel compare and hash equal; the classes that hold
    # data arrays compare and hash by identity instead of raising on them
    spec = KernelSpec("gaussian", 4.0, 0.2)
    first, second = build_kernel(spec, grid1d), build_kernel(spec, grid1d)
    assert first == second and hash(first) == hash(second)
    assert first != build_kernel(KernelSpec("gaussian", 4.0, 0.25), grid1d)
    for value in (CostSpec(grid1d, alpha_omega=1.0), ControlPair.zeros(grid1d, 3),
                  ScalarField.constant(grid1d, 0.5),
                  BoxConstraints.constant(grid1d, -1.0, 1.0, -1.0, 1.0)):
        assert value == value and hash(value) == hash(value)
        assert value != dataclasses.replace(value)


def test_pgd_flat_gradient_termination(monkeypatch, grid1d, kernel1d, params):
    # box reduced to a single point: the iterate is pinned, every projected
    # trial step returns it and no decrease is possible; with the residual
    # exit disabled (tol < 0) the line search must exhaust and be recorded
    # as flat_gradient, not raised, with the trials it spent
    import nlch_control.control as control

    sweeps = []

    def counted(*args, **kwargs):
        sweeps.append(1)
        return simulate(*args, **kwargs)
    monkeypatch.setattr(control, "simulate", counted)
    tgrid = TimeGrid(0.1, 5)
    phi0 = smooth_phi0(grid1d)
    sigma0 = ScalarField.constant(grid1d, 0.3)
    spec = CostSpec(grid1d, alpha_omega=1.0, alpha_u=1e-2, beta_v=1e-2)
    box = BoxConstraints.constant(grid1d, 0.3, 0.3, -0.2, -0.2)
    report = pgd_optimize(ControlPair.zeros(grid1d, 5), box, spec, params, kernel1d,
                          tgrid, phi0, sigma0, opts=PgdOptions(tol=-1.0, max_iter=10))
    assert report.termination == "flat_gradient"
    assert report.iterations == 0
    assert np.all(report.final_controls.u == 0.3)
    # alpha = 1, 1/2, ..., 2^-46 >= ALPHA_FLOOR = 1e-14 > 2^-47
    assert report.exhausted_trials == 47
    assert len(sweeps) == 1 + sum(report.linesearch_counts) + report.exhausted_trials


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
    box = BoxConstraints.constant(grid, -1.0, 1.0, -1e201, 1e201)
    spec = CostSpec(grid, beta_omega=1.0)
    with pytest.raises(SolverError, match="iterate 0") as info:
        pgd_optimize(c0, box, spec, params, kernel, tgrid, smooth_phi0(grid),
                     ScalarField.constant(grid, 0.0))


def projection_formula_defect_loop(controls, traj, adj, spec, box):
    """The per-step loop form of projection_formula_defect."""
    steps = traj.steps
    distrib = traj.ops.params.distribution.evaluate(traj.phi[:steps])
    worst_u = worst_v = 0.0
    for n in range(steps):
        target = distrib[n] * adj.p[n] / spec.alpha_u
        clamped = np.minimum(np.maximum(target, box.u_min), box.u_max)
        worst_u = max(worst_u, float(np.max(np.abs(controls.u[n] - clamped))))
        target = -adj.r[n] / spec.beta_v
        clamped = np.minimum(np.maximum(target, box.v_min), box.v_max)
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
    box = BoxConstraints.constant(grid, -1.0, 1.0, -1.0, 1.0)
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


def test_pgd_line_search_releases_rejected_trials(criterion5_run, monkeypatch):
    # when a sweep starts, the only earlier trajectory still alive is the
    # accepted iterate's: a rejected trial is released before the next trial
    import weakref

    import nlch_control.control as control

    (grid, kernel, params, tgrid, phi0, sigma0, spec, box), report, _, _ = criterion5_run
    assert sum(report.linesearch_counts) > report.iterations  # some trials are rejected
    returned = []
    alive_at_call = []

    def tracked(*args, **kwargs):
        alive_at_call.append(sum(ref() is not None for ref in returned))
        traj = simulate(*args, **kwargs)
        returned.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(control, "simulate", tracked)
    again = pgd_optimize(ControlPair.zeros(grid, 24), box, spec, params, kernel, tgrid,
                         phi0, sigma0, opts=PgdOptions(tol=1e-9, max_iter=400))
    assert again.costs == report.costs
    assert len(alive_at_call) > 1 and max(alive_at_call) == 1


def test_pgd_spectral_steps_on_criterion5(criterion5_run):
    (grid, kernel, params, tgrid, phi0, sigma0, spec, box), report, iterates, sweeps = \
        criterion5_run
    assert report.termination == "converged"
    # step doubling needed 359 sweeps here, the long spectral step
    # <s, s> / <s, y> 120; the short step needs 89, and 95 leaves a margin
    assert len(sweeps) <= 95
    assert len(sweeps) == sum(report.linesearch_counts) + 2 + report.iterations
    assert report.sweeps == len(sweeps) == 89
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
            lam = 1e6 if sy <= 0.0 else min(max(sy / control_inner_qt(y, y, dt), 1e-6), 1e6)
        alpha = 0.5 ** (report.linesearch_counts[k] - 1)
        assert report.step_sizes[k] == lam * alpha
        target = project_box(ControlPair(grid, prev.u - lam * g.u, prev.v - lam * g.v), box)
        moved = project_box(ControlPair(grid, prev.u + alpha * (target.u - prev.u),
                                        prev.v + alpha * (target.v - prev.v)), box)
        assert np.array_equal(moved.u, iterates[k].u) and np.array_equal(moved.v, iterates[k].v)
        clamped = project_box(iterates[k], box)
        assert np.array_equal(clamped.u, iterates[k].u)
        assert np.array_equal(clamped.v, iterates[k].v)


def _bump(background, center, amplitude, width):
    return {"kind": "bumps", "background": background, "centers": [[center]],
            "amplitudes": [amplitude], "widths": [width]}


# (alpha_u = beta_v, u target amplitude, sweep budget): the short spectral
# step measured 68, 83, 164 and 294 sweeps, each budget adds about 10 %, and
# the long step <s, s> / <s, y> needed 107, 114, 453 and 532
SWEEP_BUDGETS = [(1e-2, 0.3, 75), (1e-2, 3.0, 92), (1e-3, 0.3, 180), (1e-3, 3.0, 325)]


@pytest.mark.parametrize("alpha,u_amplitude,budget", SWEEP_BUDGETS,
                         ids=["alpha1e-2-interior", "alpha1e-2-box",
                              "alpha1e-3-interior", "alpha1e-3-box"])
def test_pgd_sweep_budget(alpha, u_amplitude, budget):
    # manufactured tracking problems on the dense 1D path; the u target of
    # amplitude 3 lies past the box, so there part of the optimal u is on it
    from nlch_control import config_from_dict

    cfg = config_from_dict({
        "grid": {"cells": [32], "extent": [1.0]},
        "kernel": {"family": "gaussian", "amplitude": 4.0, "width": 0.2},
        "model": {"A": 0.5, "B": 1.0, "chi": 0.0},
        "time": {"T": 0.3, "steps": 24},
        "initial": {"phi": _bump(-0.4, 0.5, 0.9, 0.12),
                    "sigma": {"kind": "constant", "value": 0.3}},
        "cost": {"alpha_omega": 1.0, "alpha_q": 1.0, "beta_omega": 1.0, "beta_q": 1.0,
                 "alpha_u": alpha, "beta_v": alpha,
                 "targets": {"kind": "manufactured", "u": _bump(0.0, 0.3, u_amplitude, 0.1),
                             "v": _bump(0.0, 0.7, -0.5, 0.15)}},
        "box": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0},
        "optimizer": {"tol": 1e-8, "max_iter": 400},
    })
    grid = cfg.build_grid()
    kernel = cfg.build_kernel(grid)
    params = cfg.build_params()
    tgrid = cfg.build_tgrid()
    phi0, sigma0 = cfg.build_initial_state(grid)
    report = pgd_optimize(cfg.build_initial_controls(grid), cfg.build_box(grid),
                          cfg.build_cost(grid, kernel, params, tgrid), params, kernel,
                          tgrid, phi0, sigma0, opts=cfg.pgd_options())
    assert report.termination == "converged"
    assert np.all(np.diff(report.costs) < 0)
    assert report.sweeps <= budget


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


def test_pgd_2d_peak_traced_memory():
    # A 2D optimize (the gradcheck-2d model and mollifier kernel at 32 x 32)
    # keeps few (steps, cells) arrays alive at once: the box is one row per
    # bound, constant targets one row each, and PGD holds the iterate, its
    # gradient and adjoint, the direction and one trial. An accepted trial's
    # adjoint sweep runs once the old iterate's adjoint and trajectory are
    # gone, the gradient change y is dropped once the spectral step is read,
    # and cost, gradient and residuals each fill one buffer per output
    # (h(phi) a block of steps at a time). Measured: 18.5 arrays with numpy
    # 2.4.6; the bound leaves 2 arrays for other numpy versions (the 2.0.2
    # floor was not measured). Holding the old adjoint through the new sweep,
    # y through the next line search and a fresh array per operation read
    # 23.2; storing every bound and target per step and wrapping each
    # intermediate read 42.9.
    import tracemalloc

    from nlch_control import config_from_dict

    cfg = config_from_dict({
        "grid": {"cells": [32, 32], "extent": [1.0, 1.0]},
        "kernel": {"family": "mollifier", "amplitude": 100.0, "width": 0.25},
        "model": {"A": 0.5, "B": 1.0, "chi": 0.0, "lambda_s": 2.0},
        "time": {"T": 0.04, "steps": 20},
        "initial": {"phi": {"kind": "bumps", "background": -0.3, "centers": [[0.4, 0.55]],
                            "amplitudes": [0.9], "widths": [0.15]},
                    "sigma": {"kind": "constant", "value": 0.3}},
        "controls": {"u": {"kind": "constant", "value": 0.05},
                     "v": {"kind": "constant", "value": -0.05}},
        "cost": {"alpha_omega": 1.0, "alpha_q": 1.0, "beta_omega": 1.0, "beta_q": 1.0,
                 "alpha_u": 1e-2, "beta_v": 1e-2,
                 "targets": {"kind": "constant", "phi_omega": 0.2, "sigma_omega": 0.3,
                             "phi_q": 0.1, "sigma_q": 0.3}},
        "box": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0},
        "optimizer": {"tol": 1e-6, "max_iter": 30},
    })
    grid = cfg.build_grid()
    kernel = cfg.build_kernel(grid)
    params = cfg.build_params()
    tgrid = cfg.build_tgrid()
    phi0, sigma0 = cfg.build_initial_state(grid)
    c0 = cfg.build_initial_controls(grid)
    tracemalloc.start()
    try:
        box = cfg.build_box(grid)
        spec = cfg.build_cost(grid, kernel, params, tgrid)
        report = pgd_optimize(c0, box, spec, params, kernel, tgrid, phi0, sigma0,
                              opts=cfg.pgd_options())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.termination == "converged"
    assert peak <= 20.5 * tgrid.steps * grid.num_cells * 8


@pytest.mark.parametrize("cells,extent,family,width", [
    ((32,), (1.0,), "gaussian", 0.2),
    ((300,), (1.0,), "gaussian", 0.2),
    ((16, 12), (1.0, 0.75), "mollifier", 0.3),
], ids=["dense-1d", "lu-1d", "mollifier-16x12"])
def test_broadcast_controls_give_the_same_bits(cells, extent, family, width):
    # a control constant in time is one row broadcast over the steps (stride
    # 0, read-only); every consumer must give the bits it gives on the same
    # row copied into every step, and none may write into it (a write into
    # the read-only view raises)
    grid = GridSpec(cells, extent)
    kernel = build_kernel(KernelSpec(family, 100.0 if family == "mollifier" else 4.0,
                                     width), grid)
    params = ModelParams(A=0.5, B=1.0, chi=0.3)
    steps = 6
    tgrid = TimeGrid(0.03, steps)
    phi0 = smooth_phi0(grid)
    sigma0 = ScalarField.constant(grid, 0.3)
    rows = [0.2 * smooth_phi0(grid, amplitude=1.0).values, np.full(grid.num_cells, -0.05)]
    spec = CostSpec(grid, alpha_omega=1.0, alpha_q=1.0, beta_omega=1.0, beta_q=1.0,
                             alpha_u=1e-2, beta_v=1e-2,
                             phi_omega=np.full(grid.num_cells, 0.2),
                             phi_q=np.full((1, grid.num_cells), 0.1))
    box = BoxConstraints.constant(grid, -0.5, 0.5, -0.5, 0.5)

    def outputs(controls):
        traj = simulate(phi0, sigma0, controls, params, kernel, tgrid)
        adj = adjoint_sweep(traj, spec, params, kernel)
        g = reduced_gradient(adj, spec)
        report = pgd_optimize(controls, box, spec, params, kernel, tgrid, phi0, sigma0,
                              opts=PgdOptions(tol=1e-14, max_iter=3))
        check = run_gradcheck(phi0, sigma0, controls, spec, params, kernel, tgrid,
                              np.random.default_rng(3), n_duality=2, n_fd=1, n_taylor=1)
        return [traj.phi.tobytes(), traj.sigma.tobytes(), repr(traj.monitors),
                repr(cost(traj, spec)), adj.p.tobytes(), adj.r.tobytes(),
                g.u.tobytes(), g.v.tobytes(), repr(report.costs),
                report.final_controls.u.tobytes(), report.final_controls.v.tobytes(),
                repr((check.duality_gaps, check.fd_table, check.taylor_orders))]

    tiled = ControlPair(grid, *(np.tile(row, (steps, 1)) for row in rows))
    broadcast = ControlPair(grid, *(np.broadcast_to(row, (steps, grid.num_cells))
                                    for row in rows))
    assert broadcast.u.strides[0] == 0 and not broadcast.v.flags.writeable
    assert outputs(broadcast) == outputs(tiled)


def whole_array_cost(traj, spec):
    """cost() as whole-array expressions: a difference and its square per term."""
    controls, vol, dt, steps = traj.controls, traj.grid.cell_volume, traj.tgrid.dt, traj.steps
    total = 0.0
    diff = traj.phi[steps] - spec.phi_omega
    total += 0.5 * spec.alpha_omega * (float(np.sum(diff * diff)) * vol)
    diff = traj.sigma[steps] - spec.sigma_omega
    total += 0.5 * spec.beta_omega * (float(np.sum(diff * diff)) * vol)
    diff = traj.phi[:steps] - spec.phi_q
    total += 0.5 * spec.alpha_q * dt * float(np.sum(diff * diff)) * vol
    diff = traj.sigma[:steps] - spec.sigma_q
    total += 0.5 * spec.beta_q * dt * float(np.sum(diff * diff)) * vol
    total += 0.5 * spec.alpha_u * dt * float(np.sum(controls.u * controls.u)) * vol
    total += 0.5 * spec.beta_v * dt * float(np.sum(controls.v * controls.v)) * vol
    return total


def whole_array_gradient(adj, spec):
    """reduced_gradient() with h(phi) over the whole trajectory at once."""
    traj = adj.traj
    steps = traj.steps
    g_u = -traj.ops.params.distribution.evaluate(traj.phi[:steps])
    g_u *= adj.p[:steps]
    g_u += spec.alpha_u * traj.controls.u
    g_v = spec.beta_v * traj.controls.v
    g_v += adj.r[:steps]
    return g_u, g_v


def whole_array_clamp(values, lower, upper):
    return np.minimum(np.maximum(values, lower), upper)


def whole_array_stationarity(c, g_u, g_v, box, dt):
    """stationarity_residual() with a fresh array per operation."""
    diff_u = c.u - whole_array_clamp(c.u - g_u, box.u_min, box.u_max)
    diff_v = c.v - whole_array_clamp(c.v - g_v, box.v_min, box.v_max)
    return float(np.sqrt((np.sum(diff_u * diff_u) + np.sum(diff_v * diff_v))
                         * c.grid.cell_volume * dt))


def whole_array_defect(controls, traj, adj, spec, box):
    """projection_formula_defect() with h(phi) over the whole trajectory at once."""
    steps = traj.steps
    distrib = traj.ops.params.distribution.evaluate(traj.phi[:steps])
    target = distrib * adj.p[:steps] / spec.alpha_u
    defect_u = float(np.max(np.abs(controls.u - whole_array_clamp(target, box.u_min,
                                                                  box.u_max))))
    target = -adj.r[:steps] / spec.beta_v
    defect_v = float(np.max(np.abs(controls.v - whole_array_clamp(target, box.v_min,
                                                                  box.v_max))))
    return defect_u, defect_v


def whole_array_taylor_remainder(base, tangent, direction, eps):
    """gradcheck._taylor_remainder() on fresh arrays: c + eps d, then (a - b) - c."""
    start = base.state(0)
    perturbed = ControlPair(base.grid, base.controls.u + eps * direction.u,
                            base.controls.v + eps * direction.v)
    traj = simulate(start.phi, start.sigma, perturbed, base.ops.params, base.ops.kernel,
                    base.tgrid, blowup_guard=base.blowup_guard, record_monitors=False)
    rem_phi = traj.phi - base.phi
    rem_phi -= eps * tangent.xi
    rem_sigma = traj.sigma - base.sigma
    rem_sigma -= eps * tangent.rho
    rem_phi, rem_sigma = rem_phi[1:], rem_sigma[1:]
    return float(np.sqrt((np.sum(rem_phi * rem_phi) + np.sum(rem_sigma * rem_sigma))
                         * base.grid.cell_volume * base.tgrid.dt))


@pytest.mark.parametrize("targets", ["one-row", "per-step"])
@pytest.mark.parametrize("layout", ["broadcast", "full"])
@pytest.mark.parametrize("cells,extent,kernel_spec,steps", [
    ((32,), (1.0,), KernelSpec("gaussian", 4.0, 0.2), 6),
    ((40, 30), (1.0, 0.75), KernelSpec("mollifier", 100.0, 0.3), 8),
], ids=["dense-1d", "2d-40x30"])
def test_blockwise_consumers_give_the_whole_array_bits(cells, extent, kernel_spec, steps,
                                                       layout, targets):
    # the consumers of a sweep form h(phi) and its products one block of
    # steps at a time and reuse their buffers; every number must be the one
    # the whole-array expressions give. The dense 1D trajectory is one block,
    # the 2D one (1200 cells, 3 rows a block) three, the last one short
    from nlch_control.gradcheck import _taylor_remainder
    from nlch_control.sensitivity import step_blocks, tangent_sweep

    grid = GridSpec(cells, extent)
    kernel = build_kernel(kernel_spec, grid)
    params = ModelParams(A=0.5, B=1.0, chi=0.3)
    tgrid = TimeGrid(0.005 * steps, steps)
    phi0 = smooth_phi0(grid)
    sigma0 = ScalarField.constant(grid, 0.3)
    rng = np.random.default_rng(11)
    if layout == "full":
        controls = random_controls(rng, grid, steps, scale=0.3)
    else:
        rows = [0.6 * smooth_phi0(grid, amplitude=1.0).values, np.full(grid.num_cells, -0.2)]
        controls = ControlPair(grid, *(np.broadcast_to(row, (steps, grid.num_cells))
                                       for row in rows))
    target_rows = 1 if targets == "one-row" else steps
    spec = CostSpec(grid, alpha_omega=1.0, alpha_q=0.7, beta_omega=0.4, beta_q=0.3,
                    alpha_u=1e-2, beta_v=2e-2,
                    phi_omega=rng.uniform(-0.5, 0.5, grid.num_cells),
                    sigma_omega=rng.uniform(0.0, 0.5, grid.num_cells),
                    phi_q=rng.uniform(-0.5, 0.5, (target_rows, grid.num_cells)),
                    sigma_q=rng.uniform(0.0, 0.5, (target_rows, grid.num_cells)))
    box = BoxConstraints.constant(grid, -0.1, 0.1, -0.15, 0.15)
    traj = simulate(phi0, sigma0, controls, params, kernel, tgrid, record_monitors=False)
    assert len(step_blocks(traj)) == (1 if grid.dim == 1 else 3)
    adj = adjoint_sweep(traj, spec, params, kernel)
    g = reduced_gradient(adj, spec)
    g_u, g_v = whole_array_gradient(adj, spec)
    bits = lambda x: np.float64(x).tobytes()

    assert bits(cost(traj, spec)) == bits(whole_array_cost(traj, spec))
    assert g.u.tobytes() == g_u.tobytes() and g.v.tobytes() == g_v.tobytes()
    assert (bits(stationarity_residual(controls, g, box, tgrid.dt))
            == bits(whole_array_stationarity(controls, g_u, g_v, box, tgrid.dt)))
    defects = projection_formula_defect(controls, traj, adj, spec, box)
    assert [bits(d) for d in defects] == [bits(d) for d in
                                          whole_array_defect(controls, traj, adj, spec, box)]
    # the box binds at some points and not at others, so the clamps take part
    assert 0.0 < defects[0] and 0.0 < defects[1]
    direction = random_controls(rng, grid, steps)
    tangent = tangent_sweep(traj, direction)
    for eps in (1e-1, 1e-3):
        assert (bits(_taylor_remainder(traj, tangent, direction, eps))
                == bits(whole_array_taylor_remainder(traj, tangent, direction, eps)))


@pytest.mark.parametrize("guard, reason", [
    (10.0, "|phi| reached 114 > guard 10"),
    (np.inf, "phi or sigma is not finite"),
], ids=["blow-up", "not-finite"])
def test_pgd_guard_trip_in_a_trial_names_the_trial(grid1d, kernel1d, params, guard, reason):
    # tau0 = 1e6 sends the first trial to the corner of a box of +-1e4, whose
    # sweep passes the guard of 10 at step 0, or with no guard overflows to a
    # non-finite state; the starting iterate ran, so the error names the
    # trial, its step and the box, gives the cause's reason, and does not
    # blame dt
    tgrid = TimeGrid(0.2, 16)
    phi0, sigma0 = smooth_phi0(grid1d), ScalarField.constant(grid1d, 0.3)
    box = BoxConstraints.constant(grid1d, -1e4, 1e4, -1e4, 1e4)
    spec = CostSpec(grid1d, alpha_omega=1.0, alpha_u=1e-2, beta_v=1e-2)
    with np.errstate(all="ignore"), pytest.raises(InstabilityError) as info:
        pgd_optimize(ControlPair.zeros(grid1d, 16), box, spec, params, kernel1d, tgrid,
                     phi0, sigma0, opts=PgdOptions(tau0=1e6), blowup_guard=guard)
    exc = info.value
    assert str(exc) == ("PGD iteration 1, line-search trial 1: the sweep of the trial "
                        "at step lambda*alpha = 1e+06 within the box "
                        "u in [-1e+04, 1e+04], v in [-1e+04, 1e+04] stopped at "
                        f"step {exc.step}: {reason}; lower tau0 or narrow the box")
    cause = exc.__cause__
    assert isinstance(cause, InstabilityError)
    assert str(cause).startswith(f"step {exc.step}: {reason}; ")
    assert (exc.step, exc.sup_norm, exc.guard) == (cause.step, cause.sup_norm, cause.guard)
    # the same box with the default tau0 converges without a trip
    report = pgd_optimize(ControlPair.zeros(grid1d, 16), box, spec, params, kernel1d, tgrid,
                          phi0, sigma0, opts=PgdOptions(tol=1e-6))
    assert report.termination == "converged"
