import dataclasses

import numpy as np
import pytest

from nlch_control import (ControlPair, GridSpec, KernelSpec, ModelParams,
                          ScalarField, State, TimeGrid,
                          build_kernel, free_energy, mass, mass_balance_residual,
                          simulate)
from nlch_control.control import control_inner_qt
from nlch_control.forward import DEFAULT_BLOWUP_GUARD, _mu_and_gap, step_operators
from nlch_control.geometry import DENSE_MAX_CELLS
from nlch_control.errors import (FieldShapeError, HypothesisViolationError,
                                 InstabilityError, SolverError, StaleTrajectoryError)
from nlch_control.kernels import convolution_matrix, convolve_array
from nlch_control.physics import POTENTIAL, ProliferationSpec
from nlch_control.solvers import dense_laplacian_matrix

from conftest import one_step, random_controls, random_run, smooth_phi0


def dense_step_oracle(grid, params, kernel, dt, phi, sigma, u, v):
    """Assemble the scheme's linear systems densely and solve directly."""
    lap = dense_laplacian_matrix(grid)
    conv = convolution_matrix(kernel)
    a = kernel.a
    eye = np.eye(grid.num_cells)

    mu = params.A * POTENTIAL.evaluate(phi, 1) + params.B * (a * phi - conv @ phi) \
        - params.chi * sigma
    gap = sigma + params.chi * (1.0 - phi) - mu
    prolif = params.proliferation.evaluate(phi)
    distrib = params.distribution.evaluate(phi)
    source = prolif * gap - distrib * u

    c = params.A * params.lambda_s + params.B * a
    m_mat = eye / dt - lap @ np.diag(c)
    w = np.linalg.solve(m_mat, lap @ mu + source)
    phi_new = phi + w

    n_mat = eye / dt - lap
    rhs = sigma / dt - params.chi * (lap @ phi_new) - prolif * gap + v
    sigma_new = np.linalg.solve(n_mat, rhs)
    return phi_new, sigma_new


def energy_double_loop_oracle(grid, params, kernel, phi, sigma):
    vol = grid.cell_volume
    coords = np.stack([c.reshape(-1) for c in grid.mesh()], axis=1)
    total = params.A * float(np.sum(POTENTIAL.evaluate(phi, 0))) * vol
    for i in range(grid.num_cells):
        for j in range(grid.num_cells):
            r2 = float(np.sum((coords[i] - coords[j]) ** 2))
            jv = float(kernel.spec.evaluate_r2(np.array(r2)))
            total += 0.25 * params.B * jv * (phi[i] - phi[j]) ** 2 * vol * vol
    total += float(np.sum(0.5 * sigma ** 2 + params.chi * sigma * (1.0 - phi))) * vol
    return total


def chemical_potential(phi, sigma, params, kernel):
    """mu of the step, J*phi convolved as the step does."""
    return _mu_and_gap(params, kernel, phi, sigma, convolve_array(kernel, phi))[0]


def test_chemical_potential_constant_field(grid1d, kernel1d, params):
    c = 0.37
    mu = chemical_potential(np.full(grid1d.num_cells, c), np.zeros(grid1d.num_cells),
                            params, kernel1d)
    expected = params.A * POTENTIAL.evaluate(c, 1)
    assert np.max(np.abs(mu - expected)) < 1e-12


def test_chemical_potential_at_well_bottom(grid1d, kernel1d, params):
    mu = chemical_potential(np.ones(grid1d.num_cells), np.zeros(grid1d.num_cells),
                            params, kernel1d)
    assert np.max(np.abs(mu)) < 1e-12


def test_chemical_potential_matches_dense_operator(rng, grid1d_small, kernel1d_small):
    params = ModelParams(A=0.7, B=1.3, chi=0.4)
    phi = rng.standard_normal(8)
    sigma = rng.standard_normal(8)
    conv = convolution_matrix(kernel1d_small)
    oracle = params.A * POTENTIAL.evaluate(phi, 1) \
        + params.B * (kernel1d_small.a * phi - conv @ phi) \
        - params.chi * sigma
    got = chemical_potential(phi, sigma, params, kernel1d_small)
    assert np.max(np.abs(got - oracle)) < 1e-12


def test_step_constant_state_is_fixed_point(grid1d, kernel1d, params_gradient_flow):
    state = State(ScalarField.constant(grid1d, 0.4), ScalarField.constant(grid1d, -0.1))
    zero = ScalarField.constant(grid1d, 0.0)
    new = one_step(state, zero, zero, params_gradient_flow, kernel1d, dt=0.01)
    assert np.max(np.abs(new.phi.values - 0.4)) < 1e-13
    assert np.max(np.abs(new.sigma.values + 0.1)) < 1e-13


def test_step_conserves_mass_without_reactions(rng, grid1d, kernel1d, params_gradient_flow):
    phi0 = smooth_phi0(grid1d)
    state = State(phi0, ScalarField.constant(grid1d, 0.2))
    zero = ScalarField.constant(grid1d, 0.0)
    new = one_step(state, zero, zero, params_gradient_flow, kernel1d, dt=0.01)
    vol = grid1d.cell_volume
    m0, m1 = mass(phi0.values, vol), mass(new.phi.values, vol)
    assert abs(m1 - m0) <= 1e-13 * max(1.0, abs(m0))


def test_step_matches_dense_oracle(rng, grid1d_small, kernel1d_small):
    # the second parameter set switches P off but keeps h = ramp (same_as_p)
    for params in (ModelParams(A=0.5, B=1.2, chi=0.0),
                   ModelParams(A=0.5, B=1.2, chi=0.0,
                               proliferation=ProliferationSpec("constant_zero"))):
        dt = 0.02
        phi = 0.5 * rng.standard_normal(8)
        sigma = 0.3 * rng.standard_normal(8)
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        oracle_phi, oracle_sigma = dense_step_oracle(grid1d_small, params, kernel1d_small,
                                                     dt, phi, sigma, u, v)
        state = State(ScalarField(grid1d_small, phi), ScalarField(grid1d_small, sigma))
        new = one_step(state, ScalarField(grid1d_small, u), ScalarField(grid1d_small, v),
                       params, kernel1d_small, dt)
        assert np.max(np.abs(new.phi.values - oracle_phi)) < 1e-10
        assert np.max(np.abs(new.sigma.values - oracle_sigma)) < 1e-10


def test_step_matches_dense_oracle_with_chemotaxis(rng, grid1d_small):
    kernel = build_kernel(KernelSpec("gaussian", 8.0, 0.25), grid1d_small)
    params = ModelParams(A=0.5, B=1.2, chi=0.5)
    dt = 0.02
    phi = 0.5 * rng.standard_normal(8)
    sigma = 0.3 * rng.standard_normal(8)
    u = rng.standard_normal(8)
    v = rng.standard_normal(8)
    oracle_phi, oracle_sigma = dense_step_oracle(grid1d_small, params, kernel,
                                                 dt, phi, sigma, u, v)
    state = State(ScalarField(grid1d_small, phi), ScalarField(grid1d_small, sigma))
    new = one_step(state, ScalarField(grid1d_small, u), ScalarField(grid1d_small, v),
                   params, kernel, dt)
    assert np.max(np.abs(new.phi.values - oracle_phi)) < 1e-10
    assert np.max(np.abs(new.sigma.values - oracle_sigma)) < 1e-10


def test_step_rejects_inadmissible_params(grid1d, kernel1d):
    params = ModelParams(A=10.0, B=1e-6, chi=0.0)  # margin deeply negative
    state = State(ScalarField.constant(grid1d, 0.1), ScalarField.constant(grid1d, 0.0))
    zero = ScalarField.constant(grid1d, 0.0)
    with pytest.raises(HypothesisViolationError):
        one_step(state, zero, zero, params, kernel1d, dt=0.01)


def test_time_grid_rejects_zero_steps():
    # every run takes at least one step, so every trajectory has operators
    with pytest.raises(FieldShapeError, match="step count must be positive, got 0"):
        TimeGrid(1.0, 0)


def test_simulate_constant_trajectory(grid1d, kernel1d, params_gradient_flow, tgrid20):
    traj = simulate(ScalarField.constant(grid1d, 0.25), ScalarField.constant(grid1d, 0.6),
                    ControlPair.zeros(grid1d, 20), params_gradient_flow, kernel1d, tgrid20)
    assert np.max(np.abs(traj.phi - 0.25)) < 1e-13
    assert np.max(np.abs(traj.sigma - 0.6)) < 1e-13


def test_simulate_matches_dense_oracle_trajectory(rng, grid1d_small, kernel1d_small):
    params = ModelParams(A=0.5, B=1.2, chi=0.0)
    tgrid = TimeGrid(0.2, 10)
    phi = 0.4 * rng.standard_normal(8)
    sigma = 0.2 * rng.standard_normal(8)
    controls = random_controls(rng, grid1d_small, 10, scale=0.2)
    traj = simulate(ScalarField(grid1d_small, phi), ScalarField(grid1d_small, sigma),
                    controls, params, kernel1d_small, tgrid)
    p, s = phi.copy(), sigma.copy()
    for n in range(10):
        p, s = dense_step_oracle(grid1d_small, params, kernel1d_small, tgrid.dt,
                                 p, s, controls.u[n], controls.v[n])
    assert np.max(np.abs(traj.phi[10] - p)) < 1e-9
    assert np.max(np.abs(traj.sigma[10] - s)) < 1e-9


def test_simulate_shape_errors(grid1d, kernel1d, params, tgrid20):
    phi0 = ScalarField.constant(grid1d, 0.0)
    with pytest.raises(FieldShapeError):
        simulate(phi0, phi0, ControlPair.zeros(grid1d, 7), params, kernel1d, tgrid20)
    other = GridSpec((16,), (1.0,))
    with pytest.raises(FieldShapeError):
        simulate(phi0, ScalarField.constant(other, 0.0),
                 ControlPair.zeros(grid1d, 20), params, kernel1d, tgrid20)


def test_simulate_deterministic(rng, grid1d, kernel1d, params, tgrid20):
    phi0 = smooth_phi0(grid1d)
    sigma0 = ScalarField.constant(grid1d, 0.3)
    controls = random_controls(rng, grid1d, 20)
    t1 = simulate(phi0, sigma0, controls, params, kernel1d, tgrid20)
    t2 = simulate(phi0, sigma0, controls, params, kernel1d, tgrid20)
    assert np.array_equal(t1.phi, t2.phi)
    assert np.array_equal(t1.sigma, t2.sigma)


@pytest.mark.parametrize("record_monitors", [True, False])
def test_simulate_convolves_each_state_once(monkeypatch, rng, grid2d, kernel2d, params,
                                            record_monitors):
    from nlch_control import forward

    calls = []
    convolve = forward.convolve_array

    def counted(kernel, values):
        calls.append(1)
        return convolve(kernel, values)

    monkeypatch.setattr(forward, "convolve_array", counted)
    steps = 6
    traj = simulate(smooth_phi0(grid2d), ScalarField.constant(grid2d, 0.3),
                    random_controls(rng, grid2d, steps), params, kernel2d,
                    TimeGrid(0.06, steps), record_monitors=record_monitors)
    assert len(calls) == (steps + 1 if record_monitors else steps)
    monkeypatch.undo()
    # the monitor energy is the public free_energy of each stored state
    for n, row in enumerate(traj.monitors):
        assert row[2] == free_energy(traj.phi[n], traj.sigma[n], params, kernel2d)


def test_simulate_stores_only_states(rng, grid1d, kernel1d, params, tgrid20):
    controls = random_controls(rng, grid1d, 20)
    traj = simulate(smooth_phi0(grid1d), ScalarField.constant(grid1d, 0.3), controls,
                    params, kernel1d, tgrid20)

    def holds_array(value):
        if isinstance(value, (tuple, list)):
            return any(holds_array(item) for item in value)
        return isinstance(value, np.ndarray)

    stored = {f.name for f in dataclasses.fields(traj) if holds_array(getattr(traj, f.name))}
    assert stored == {"phi", "sigma"}
    # the run's inputs are referenced, not copied
    assert traj.controls is controls
    assert traj.ops is step_operators(grid1d, params, kernel1d, tgrid20.dt)
    assert traj.ops.params == params and traj.ops.kernel is kernel1d
    assert traj.blowup_guard == DEFAULT_BLOWUP_GUARD


def test_blowup_guard_trips(grid1d, kernel1d, params, tgrid20):
    phi0 = ScalarField.constant(grid1d, 0.9)
    sigma0 = ScalarField.constant(grid1d, 0.0)
    with pytest.raises(InstabilityError) as exc_info:
        simulate(phi0, sigma0, ControlPair.zeros(grid1d, 20), params, kernel1d,
                 tgrid20, blowup_guard=0.5)
    assert exc_info.value.guard == 0.5
    assert exc_info.value.sup_norm > 0.5


@pytest.mark.parametrize("guard", [np.nan, 0.0, -1.0], ids=["nan", "zero", "negative"])
def test_guard_must_be_positive(grid1d, kernel1d, params, tgrid20, guard):
    # NaN would never trip (it fails every comparison), 0 or -1 would trip at
    # step 0 with a message that blames dt; each is refused before any step,
    # also where pgd_optimize and run_gradcheck pass it to simulate
    from nlch_control import BoxConstraints, CostSpec, pgd_optimize
    from nlch_control.gradcheck import run_gradcheck

    phi0 = ScalarField.constant(grid1d, 0.9)
    sigma0 = ScalarField.constant(grid1d, 0.0)
    controls = ControlPair.zeros(grid1d, 20)
    spec = CostSpec(grid1d, alpha_omega=1.0)
    for run in (
            lambda: simulate(phi0, sigma0, controls, params, kernel1d, tgrid20,
                             blowup_guard=guard),
            lambda: pgd_optimize(controls, BoxConstraints.constant(grid1d, -1.0, 1.0, -1.0, 1.0),
                                 spec, params, kernel1d, tgrid20, phi0, sigma0,
                                 blowup_guard=guard),
            lambda: run_gradcheck(phi0, sigma0, controls, spec, params, kernel1d, tgrid20,
                                  np.random.default_rng(0), blowup_guard=guard)):
        with pytest.raises(FieldShapeError, match="blowup guard must be > 0"):
            run()


def test_infinite_guard_never_trips(grid1d, kernel1d, params, tgrid20):
    # the start of test_blowup_guard_trips, which trips a guard of 0.5
    phi0 = ScalarField.constant(grid1d, 0.9)
    sigma0 = ScalarField.constant(grid1d, 0.0)
    traj = simulate(phi0, sigma0, ControlPair.zeros(grid1d, 20), params, kernel1d,
                    tgrid20, blowup_guard=np.inf)
    assert traj.blowup_guard == np.inf
    assert np.max(np.abs(traj.phi)) > 0.5


def test_reruns_keep_the_guard(rng, grid1d, kernel1d, params, tgrid20):
    # a guard just above the base run's |phi| holds for it and trips in the
    # perturbed reruns of the Taylor check, which step under the same guard
    from nlch_control.gradcheck import taylor_remainder_order

    phi0 = smooth_phi0(grid1d)
    sigma0 = ScalarField.constant(grid1d, 0.3)
    controls = random_controls(rng, grid1d, 20)
    free = simulate(phi0, sigma0, controls, params, kernel1d, tgrid20)
    guard = float(np.max(np.abs(free.phi[1:]))) * (1.0 + 1e-9)
    base = simulate(phi0, sigma0, controls, params, kernel1d, tgrid20, blowup_guard=guard)
    assert base.blowup_guard == guard
    # lowering the treatment u raises phi (its source is -h(phi) u)
    direction = ControlPair(grid1d, -np.ones((20, grid1d.num_cells)),
                            np.zeros((20, grid1d.num_cells)))
    with pytest.raises(InstabilityError) as exc_info:
        taylor_remainder_order(base, direction)
    assert exc_info.value.guard == guard


# the ids keep the "direct" label they had when a CG backend was also tested
@pytest.mark.parametrize("cells", [(32,), (8, 8)], ids=["cells0-direct", "cells1-direct"])
def test_nonfinite_state_raises_instability(cells):
    # phi**3 overflows: the step produces NaN, which no sup-norm comparison
    # catches, and must still end in InstabilityError at the failing step
    grid = GridSpec(cells, (1.0,) * len(cells))
    kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.25), grid)
    params = ModelParams(A=0.5, B=1.0, chi=0.0)
    phi0 = smooth_phi0(grid, amplitude=1e120)
    sigma0 = ScalarField.constant(grid, 0.0)
    with np.errstate(all="ignore"), pytest.raises(InstabilityError) as exc_info:
        simulate(phi0, sigma0, ControlPair.zeros(grid, 3), params, kernel,
                 TimeGrid(0.03, 3), blowup_guard=np.inf)
    assert exc_info.value.step == 0
    assert "not finite" in str(exc_info.value)
    zero = ScalarField.constant(grid, 0.0)
    with np.errstate(all="ignore"), pytest.raises(InstabilityError):
        one_step(State(phi0, sigma0), zero, zero, params, kernel, 0.01)


def test_free_energy_reference_values(grid1d, kernel1d, params):
    one, zero = np.ones(grid1d.num_cells), np.zeros(grid1d.num_cells)
    assert abs(free_energy(one, zero, params, kernel1d)) < 1e-12
    expected = params.A * 0.25 * np.prod(grid1d.extent_per_axis)
    assert free_energy(zero, zero, params, kernel1d) == pytest.approx(expected, rel=1e-12)


def test_free_energy_matches_double_loop(rng, grid1d_small, kernel1d_small):
    params = ModelParams(A=0.7, B=1.1, chi=0.3)
    phi = rng.standard_normal(8)
    sigma = rng.standard_normal(8)
    oracle = energy_double_loop_oracle(grid1d_small, params, kernel1d_small, phi, sigma)
    assert free_energy(phi, sigma, params, kernel1d_small) == pytest.approx(oracle, rel=1e-12)


def test_energy_dissipation_gradient_flow(grid1d, kernel1d, params_gradient_flow):
    tgrid = TimeGrid(0.5, 100)
    phi0 = smooth_phi0(grid1d, amplitude=0.8)
    sigma0 = ScalarField.constant(grid1d, 0.0)
    traj = simulate(phi0, sigma0, ControlPair.zeros(grid1d, 100),
                    params_gradient_flow, kernel1d, tgrid)
    energies = np.array([row[2] for row in traj.monitors])
    tol = 1e-12 * max(1.0, abs(energies[0]))
    assert np.all(np.diff(energies) <= tol)


def test_mass_balance_residual_cases(rng, grid1d, kernel1d, params, params_gradient_flow,
                                     tgrid20):
    phi0 = smooth_phi0(grid1d)
    sigma0 = ScalarField.constant(grid1d, 0.3)
    zero_controls = ControlPair.zeros(grid1d, 20)

    traj = simulate(phi0, sigma0, zero_controls, params_gradient_flow, kernel1d, tgrid20)
    assert mass_balance_residual(traj, zero_controls, params_gradient_flow) <= 1e-13

    controls = random_controls(rng, grid1d, 20)
    traj = simulate(phi0, sigma0, controls, params, kernel1d, tgrid20)
    assert mass_balance_residual(traj, controls, params) <= 1e-12

    # control supported on a single cell: locality must not break the identity
    u = np.zeros((20, grid1d.num_cells))
    u[:, 5] = 2.0
    single = ControlPair(grid1d, u, np.zeros_like(u))
    traj = simulate(phi0, sigma0, single, params, kernel1d, tgrid20)
    assert mass_balance_residual(traj, single, params) <= 1e-12


def test_mass_balance_residual_refuses_other_controls(rng, grid1d, kernel1d, params, tgrid20):
    # the residual builds its source from the controls it is given: a fresh
    # pair of the same shape would yield the defect of a run that never
    # happened, so only the run's own controls are accepted
    traj = simulate(smooth_phi0(grid1d), ScalarField.constant(grid1d, 0.3),
                    random_controls(rng, grid1d, 20), params, kernel1d, tgrid20)
    assert mass_balance_residual(traj, traj.controls, params) <= 1e-12
    for other in (random_controls(rng, grid1d, 20), ControlPair.zeros(grid1d, 19)):
        with pytest.raises(StaleTrajectoryError, match="other controls"):
            mass_balance_residual(traj, other, params)


def test_mass_balance_gate_reads_a_perturbed_solve(monkeypatch, grid1d):
    # the 1e-12 bound must be able to fail: a phi solve off by relative 1e-9
    # breaks the discrete mass identity (3.4e-10 here; the correct run reads
    # 3.2e-15)
    from nlch_control.forward import StepOperators

    params = ModelParams(A=0.5, B=1.0, chi=0.3)
    healthy = random_run(np.random.default_rng(0), grid1d, params)
    assert mass_balance_residual(healthy, healthy.controls, params) <= 1e-12

    solve = StepOperators.solve_phi_increment
    monkeypatch.setattr(StepOperators, "solve_phi_increment",
                        lambda self, rhs: solve(self, rhs) * (1.0 + 1e-9))
    broken = random_run(np.random.default_rng(0), grid1d, params)
    assert mass_balance_residual(broken, broken.controls, params) > 1e-12


def test_boundedness_analog(rng, grid1d, kernel1d):
    # admissible chi=0 runs starting inside |phi| <= 1.2 stay below 2.0
    for trial in range(3):
        params = ModelParams(A=0.4 + 0.2 * rng.random(), B=1.0 + 0.5 * rng.random(), chi=0.0)
        phi0_vals = np.clip(1.2 * np.cos((trial + 1) * np.pi * grid1d.cell_centers()[0]),
                            -1.2, 1.2)
        traj = simulate(ScalarField(grid1d, phi0_vals), ScalarField.constant(grid1d, 0.4),
                        random_controls(rng, grid1d, 40, scale=0.3),
                        params, kernel1d, TimeGrid(0.5, 40), blowup_guard=2.0)
        sup = max(row[5] for row in traj.monitors)
        assert sup <= 2.0


def test_continuous_dependence_ratios(rng, grid1d, kernel1d, params):
    tgrid = TimeGrid(0.25, 20)
    phi0 = smooth_phi0(grid1d)
    sigma0 = ScalarField.constant(grid1d, 0.2)
    base = random_controls(rng, grid1d, 20)
    direction = random_controls(rng, grid1d, 20, scale=1.0)
    traj0 = simulate(phi0, sigma0, base, params, kernel1d, tgrid)

    def perturbed_norm(eps):
        c = ControlPair(grid1d, base.u + eps * direction.u, base.v + eps * direction.v)
        traj = simulate(phi0, sigma0, c, params, kernel1d, tgrid)
        diff = np.sqrt((np.sum((traj.phi - traj0.phi) ** 2)
                        + np.sum((traj.sigma - traj0.sigma) ** 2))
                       * grid1d.cell_volume * tgrid.dt)
        d_ctrl = eps * np.sqrt(control_inner_qt(direction, direction, tgrid.dt))
        return diff / d_ctrl

    ratios = [perturbed_norm(eps) for eps in (1e-2, 5e-3, 2.5e-3)]
    assert max(ratios) / min(ratios) < 1.1


def test_solver_rejects_nonpositive_diagonal(grid1d):
    from nlch_control.solvers import ShiftedLaplacianSolver

    with pytest.raises(SolverError):
        ShiftedLaplacianSolver(grid1d, np.zeros(grid1d.num_cells))


def test_step_operators_reused_per_key(grid1d, kernel1d, params):
    ops = step_operators(grid1d, params, kernel1d, 0.01)
    assert step_operators(grid1d, params, kernel1d, 0.01) is ops
    other = step_operators(grid1d, params, kernel1d, 0.02)
    assert other is not ops and other.dt == 0.02
    with pytest.raises(FieldShapeError):
        step_operators(GridSpec((16,), (1.0,)), params, kernel1d, 0.02)


def test_solver_options_accepts_only_none(grid1d, kernel1d, params):
    # the entry points keep a solver_options parameter that takes only None
    from nlch_control import BoxConstraints, CostSpec, config_from_dict, pgd_optimize
    from nlch_control.gradcheck import run_gradcheck

    tgrid = TimeGrid(0.02, 2)
    phi0 = smooth_phi0(grid1d)
    sigma0 = ScalarField.constant(grid1d, 0.1)
    controls = ControlPair.zeros(grid1d, 2)
    spec = CostSpec(grid1d, alpha_omega=1.0, alpha_u=1e-2, beta_v=1e-2)
    box = BoxConstraints.constant(grid1d, -1.0, 1.0, -1.0, 1.0)
    assert config_from_dict({}).solver_options() is None
    simulate(phi0, sigma0, controls, params, kernel1d, tgrid, solver_options=None)
    for call in (
        lambda opts: simulate(phi0, sigma0, controls, params, kernel1d, tgrid,
                              solver_options=opts),
        lambda opts: pgd_optimize(controls, box, spec, params, kernel1d, tgrid, phi0,
                                  sigma0, solver_options=opts),
        lambda opts: run_gradcheck(phi0, sigma0, controls, spec, params, kernel1d, tgrid,
                                   np.random.default_rng(0), solver_options=opts),
    ):
        with pytest.raises(TypeError, match="solver_options must be None"):
            call({"method": "direct"})


def test_run_gradcheck_factorises_at_most_twice(rng, monkeypatch):
    from nlch_control import CostSpec
    from nlch_control.gradcheck import run_gradcheck
    from nlch_control.solvers import ShiftedLaplacianSolver

    builds = []
    init = ShiftedLaplacianSolver.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ShiftedLaplacianSolver, "__init__", counting_init)
    grid = GridSpec((8, 6), (1.0, 0.75))
    kernel = build_kernel(KernelSpec("mollifier", 100.0, 0.3), grid)
    params = ModelParams(A=0.5, B=1.0, chi=0.0)
    steps = 4
    spec = CostSpec(grid, alpha_omega=1.0, beta_q=0.5,
                             alpha_u=1e-2, beta_v=1e-2,
                             phi_omega=np.full(grid.num_cells, -0.2))
    result = run_gradcheck(smooth_phi0(grid), ScalarField.constant(grid, 0.3),
                           random_controls(rng, grid, steps), spec, params, kernel,
                           TimeGrid(0.05, steps), rng, n_duality=3, n_fd=2, n_taylor=2)
    assert result.passed
    assert len(builds) <= 2


@pytest.mark.parametrize("grid_name", ["grid1d", "grid2d"])
def test_alternating_keys_match_fresh_kernel(rng, request, grid_name):
    # one kernel shared by runs that differ in dt or params must give
    # exactly what a kernel built for each run alone gives
    grid = request.getfixturevalue(grid_name)
    spec = KernelSpec("gaussian", 4.0, 0.25)
    shared = build_kernel(spec, grid)
    phi0 = smooth_phi0(grid)
    sigma0 = ScalarField.constant(grid, 0.3)
    controls = random_controls(rng, grid, 6)
    base = (ModelParams(A=0.5, B=1.0, chi=0.0), TimeGrid(0.1, 6))
    variants = [
        base,
        (base[0], TimeGrid(0.2, 6)),
        base,
        (ModelParams(A=0.5, B=1.3, chi=0.0, lambda_s=3.0), base[1]),
        base,
    ]
    for params, tgrid in variants:
        got = simulate(phi0, sigma0, controls, params, shared, tgrid)
        want = simulate(phi0, sigma0, controls, params, build_kernel(spec, grid), tgrid)
        assert np.array_equal(got.phi, want.phi)
        assert np.array_equal(got.sigma, want.sigma)


@pytest.mark.parametrize("cells", [256, 257])
@pytest.mark.parametrize("chi", [0.0, 0.3])
def test_mass_balance_at_dense_crossover(rng, cells, chi):
    # dense operators up to the crossover, FFT and sparse LU past it
    params = ModelParams(A=0.5, B=1.0, chi=chi)
    traj = random_run(rng, GridSpec((cells,), (1.0,)), params)
    assert (traj.ops.L is not None) == (cells <= DENSE_MAX_CELLS)
    assert mass_balance_residual(traj, traj.controls, params) <= 1e-12


def test_simulate_peak_traced_memory_with_constant_controls():
    # controls constant in time are one row each, broadcast over the steps:
    # a simulate then holds its two (steps + 1, cells) state arrays and
    # per-step temporaries. Controls tiled into every step read 4.22 arrays.
    import tracemalloc

    from nlch_control import config_from_dict

    cfg = config_from_dict({
        "grid": {"cells": [48, 48], "extent": [1.0, 1.0]},
        "kernel": {"family": "gaussian", "amplitude": 20.0, "width": 0.15},
        "model": {"A": 0.5, "B": 1.0, "chi": 0.3, "lambda_s": 2.0},
        "time": {"T": 0.05, "steps": 100},
        "initial": {"phi": {"kind": "bumps", "background": -0.6, "centers": [[0.5, 0.5]],
                            "amplitudes": [1.2], "widths": [0.15]},
                    "sigma": {"kind": "constant", "value": 0.4}},
        "controls": {"u": {"kind": "bumps", "background": 0.0, "centers": [[0.4, 0.6]],
                           "amplitudes": [0.8], "widths": [0.1]},
                     "v": {"kind": "constant", "value": 0.0}},
    })
    grid = cfg.build_grid()
    kernel = cfg.build_kernel(grid)
    params = cfg.build_params()
    tgrid = cfg.build_tgrid()
    phi0, sigma0 = cfg.build_initial_state(grid)
    controls = cfg.build_initial_controls(grid)
    assert controls.u.strides[0] == 0 and not controls.u.flags.writeable
    # the operators (factorisations, FFT plans) are built by the first run
    simulate(phi0, sigma0, controls, params, kernel, tgrid)
    tracemalloc.start()
    try:
        controls = cfg.build_initial_controls(grid)
        simulate(phi0, sigma0, controls, params, kernel, tgrid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * tgrid.steps * grid.num_cells * 8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["u", "v"])
def test_broadcast_control_is_checked_over_its_stored_row(grid1d, name, bad):
    # a control constant in time holds one row; a non-finite value there is
    # a non-finite value at every step
    row = np.zeros(grid1d.num_cells)
    row[5] = bad
    arrays = {c: np.broadcast_to(np.zeros(grid1d.num_cells), (20, grid1d.num_cells))
              for c in "uv"}
    arrays[name] = np.broadcast_to(row, (20, grid1d.num_cells))
    with pytest.raises(FieldShapeError, match=f"control {name} contains non-finite values"):
        ControlPair(grid1d, **arrays)


def test_full_control_is_checked_at_every_step(grid1d):
    u = np.zeros((20, grid1d.num_cells))
    u[13, 7] = np.nan
    with pytest.raises(FieldShapeError, match="control u contains non-finite values"):
        ControlPair(grid1d, u, np.zeros_like(u))


def test_broadcast_control_of_zero_steps_passes(grid1d):
    # an empty step axis stays empty under the check: it holds no value
    row = np.full(grid1d.num_cells, np.nan)
    empty = np.broadcast_to(row, (0, grid1d.num_cells))
    assert ControlPair(grid1d, empty, empty).steps == 0
    assert ControlPair.zeros(grid1d, 0).steps == 0


def test_initial_controls_peak_traced_memory():
    # the simulate-2d configuration (200 steps of 128^2 cells): the controls
    # are a realised field and one broadcast row each, and their check reads
    # those rows. Checked over the broadcast shape, a (steps, cells) bool
    # array peaked at 27 rows of cells.
    import tracemalloc

    from nlch_control import config_from_dict

    cfg = config_from_dict({
        "grid": {"cells": [128, 128], "extent": [1.0, 1.0]},
        "kernel": {"family": "gaussian", "amplitude": 20.0, "width": 0.15},
        "model": {"A": 0.5, "B": 1.0, "chi": 0.3, "lambda_s": 2.0},
        "time": {"T": 0.1, "steps": 200},
        "controls": {"u": {"kind": "bumps", "background": 0.0, "centers": [[0.45, 0.6]],
                           "amplitudes": [0.8], "widths": [0.09]},
                     "v": {"kind": "constant", "value": 0.0}},
    })
    grid = cfg.build_grid()
    tracemalloc.start()
    try:
        controls = cfg.build_initial_controls(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert controls.steps == 200 and controls.u.strides[0] == 0
    assert peak <= 8 * grid.num_cells * 8
