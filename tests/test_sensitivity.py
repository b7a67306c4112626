import dataclasses
import itertools
import math

import numpy as np
import pytest

from nlch_control import (ControlPair, CostSpec, GridSpec, KernelSpec, ModelParams,
                          ScalarField, TimeGrid, adjoint_sweep, build_kernel,
                          duality_gap, simulate, tangent_sweep)
from nlch_control.errors import StaleTrajectoryError
from nlch_control.gradcheck import (GradcheckResult, run_gradcheck, taylor_remainder_order,
                                    trajectory_qt_norm)
from nlch_control.physics import DistributionSpec, ProliferationSpec
from nlch_control.sensitivity import vjp_sweep

from conftest import random_controls, random_run, smooth_phi0


@pytest.fixture
def base_setup(rng, grid1d, kernel1d, params, tgrid20):
    phi0 = smooth_phi0(grid1d)
    sigma0 = ScalarField.constant(grid1d, 0.3)
    controls = random_controls(rng, grid1d, 20)
    traj = simulate(phi0, sigma0, controls, params, kernel1d, tgrid20)
    return phi0, sigma0, controls, traj


def test_tangent_sweep_linearity(rng, base_setup, grid1d, kernel1d, params):
    _, _, _, traj = base_setup
    d1 = random_controls(rng, grid1d, 20)
    t1 = tangent_sweep(traj, d1)
    for d2 in (random_controls(rng, grid1d, 20), ControlPair.zeros(grid1d, 20)):
        combined = ControlPair(grid1d, 2.0 * d1.u - 0.5 * d2.u, 2.0 * d1.v - 0.5 * d2.v)
        t2 = tangent_sweep(traj, d2)
        tc = tangent_sweep(traj, combined)
        scale = max(1.0, np.max(np.abs(tc.xi)))
        assert np.max(np.abs(tc.xi - (2.0 * t1.xi - 0.5 * t2.xi))) <= 1e-13 * scale
        assert np.max(np.abs(tc.rho - (2.0 * t1.rho - 0.5 * t2.rho))) <= 1e-13 * scale
    # the last d2 is zero: zero in, zero out
    assert np.all(t2.xi == 0.0) and np.all(t2.rho == 0.0)


def test_tangent_matches_finite_differences(rng, base_setup, grid1d, kernel1d, params,
                                            tgrid20):
    phi0, sigma0, controls, traj = base_setup
    direction = random_controls(rng, grid1d, 20, scale=1.0)
    tangent = tangent_sweep(traj, direction)

    errors = []
    eps_list = (1e-2, 1e-3, 1e-4)
    for eps in eps_list:
        perturbed = ControlPair(grid1d, controls.u + eps * direction.u,
                                controls.v + eps * direction.v)
        traj_eps = simulate(phi0, sigma0, perturbed, params, kernel1d, tgrid20)
        fd_xi = (traj_eps.phi - traj.phi) / eps
        fd_rho = (traj_eps.sigma - traj.sigma) / eps
        num = trajectory_qt_norm(fd_xi - tangent.xi, fd_rho - tangent.rho,
                                 grid1d, tgrid20.dt)
        den = trajectory_qt_norm(tangent.xi, tangent.rho, grid1d, tgrid20.dt)
        errors.append(num / den)
    # first-order convergence of the one-sided difference to the tangent
    order = np.polyfit(np.log(eps_list), np.log(errors), 1)[0]
    assert order >= 0.9


def test_taylor_remainder_quadratic(rng, base_setup, grid1d):
    _, _, _, traj = base_setup
    direction = random_controls(rng, grid1d, 20, scale=1.0)
    order, remainders = taylor_remainder_order(traj, direction)
    assert order >= 1.9
    assert all(r2 < r1 for r1, r2 in zip(remainders, remainders[1:]))


def test_duality_gap_probes(rng, base_setup, grid1d, kernel1d, params):
    _, _, _, traj = base_setup
    for _ in range(5):
        d = random_controls(rng, grid1d, 20, scale=1.0)
        seed_phi = rng.standard_normal((21, grid1d.num_cells))
        seed_sigma = rng.standard_normal((21, grid1d.num_cells))
        gap = duality_gap(traj, d.u, d.v, seed_phi, seed_sigma)
        assert gap <= 1e-10


def test_duality_gap_zero_perturbation(base_setup, grid1d, kernel1d, params, rng):
    _, _, _, traj = base_setup
    zeros = np.zeros((20, grid1d.num_cells))
    seed_phi = rng.standard_normal((21, grid1d.num_cells))
    seed_sigma = rng.standard_normal((21, grid1d.num_cells))
    assert duality_gap(traj, zeros, zeros, seed_phi, seed_sigma) == 0.0


def test_duality_gap_aligned_seed(rng, base_setup, grid1d, kernel1d, params):
    # seed equal to the tangent output: pairing strictly positive, gap tiny
    _, _, _, traj = base_setup
    d = random_controls(rng, grid1d, 20, scale=1.0)
    tangent = tangent_sweep(traj, d)
    gap = duality_gap(traj, d.u, d.v, tangent.xi, tangent.rho)
    assert gap <= 1e-10
    assert trajectory_qt_norm(tangent.xi, tangent.rho, grid1d, traj.tgrid.dt) > 0.0


@pytest.mark.parametrize("cells, extent, params", [
    pytest.param((32,), (1.0,), ModelParams(A=0.5, B=1.0, chi=0.0), id="1d-dense"),
    pytest.param((12, 10), (1.0, 0.8), ModelParams(A=0.05, B=1.0, chi=0.3), id="2d"),
])
def test_pairings_keep_their_bits(rng, cells, extent, params):
    # duality_gap and trajectory_qt_norm pair through geometry.qt_inner_product;
    # each must equal, bit for bit, its defining sums written out
    grid = GridSpec(cells, extent)
    traj = random_run(rng, grid, params, steps=6)
    vol, dt = grid.cell_volume, traj.tgrid.dt
    d = random_controls(rng, grid, 6, scale=1.0)
    seed_phi = rng.standard_normal((7, grid.num_cells))
    seed_sigma = rng.standard_normal((7, grid.num_cells))
    tangent = tangent_sweep(traj, d)
    u_bar, v_bar = vjp_sweep(traj, seed_phi, seed_sigma)
    f = float((np.sum(seed_phi[1:] * tangent.xi[1:])
               + np.sum(seed_sigma[1:] * tangent.rho[1:])) * vol)
    r = float((np.sum(u_bar * d.u) + np.sum(v_bar * d.v)) * vol)
    gap = abs(f - r) / (1.0 + max(abs(f), abs(r)))
    assert duality_gap(traj, d.u, d.v, seed_phi, seed_sigma) == gap
    norm = float(np.sqrt((np.sum(tangent.xi[1:] ** 2) + np.sum(tangent.rho[1:] ** 2))
                         * vol * dt))
    assert trajectory_qt_norm(tangent.xi, tangent.rho, grid, dt) == norm > 0.0


def test_duality_gap_orthogonal_seed(base_setup, grid1d, kernel1d, params):
    # perturb only u in the first step, seed only the sigma slice of step 1:
    # both pairings are near zero and must agree absolutely
    _, _, _, traj = base_setup
    dh = np.zeros((20, grid1d.num_cells))
    dh[0, 4] = 1.0
    dk = np.zeros_like(dh)
    seed_phi = np.zeros((21, grid1d.num_cells))
    seed_sigma = np.zeros((21, grid1d.num_cells))
    seed_sigma[1, 10] = 1.0
    gap = duality_gap(traj, dh, dk, seed_phi, seed_sigma)
    assert gap <= 1e-10


def test_vjp_transposes_tangent_matrix_entry(rng, base_setup, grid1d, kernel1d, params):
    # single basis probes: entry of the tangent map equals entry of its transpose
    _, _, _, traj = base_setup
    dh = np.zeros((20, grid1d.num_cells))
    dh[2, 7] = 1.0
    dk = np.zeros_like(dh)
    tangent = tangent_sweep(traj, ControlPair(grid1d, dh, dk))
    seed_phi = np.zeros((21, grid1d.num_cells))
    seed_sigma = np.zeros((21, grid1d.num_cells))
    seed_phi[17, 23] = 1.0
    u_bar, v_bar = vjp_sweep(traj, seed_phi, seed_sigma)
    assert u_bar[2, 7] == pytest.approx(tangent.xi[17, 23], rel=1e-12, abs=1e-15)


def test_adjoint_zero_weights_gives_zero(base_setup, grid1d, kernel1d, params):
    _, _, _, traj = base_setup
    spec = CostSpec(grid1d)  # all weights default to zero here
    spec = dataclasses.replace(spec)
    adj = adjoint_sweep(traj, spec, params, kernel1d)
    assert np.all(adj.p == 0.0)
    assert np.all(adj.r == 0.0)


def test_adjoint_terminal_slices(base_setup, grid1d, kernel1d, params):
    phi0, sigma0, controls, traj = base_setup
    spec = CostSpec(grid1d, alpha_omega=1.0)
    adj = adjoint_sweep(traj, spec, params, kernel1d)
    assert np.allclose(adj.p[20], traj.phi[20] - spec.phi_omega)
    assert np.all(adj.r[20] == 0.0)


def test_adjoint_matches_per_step_loop(rng, base_setup, grid1d, kernel1d, params):
    # reference: the cost-seeded sweep written as a per-step loop that adds
    # each running tracking source as it goes; the arithmetic is the same,
    # so the slices must agree bitwise
    from nlch_control.forward import linearise_step
    from nlch_control.sensitivity import _adjoint_core

    _, _, _, traj = base_setup
    n_cells = grid1d.num_cells
    spec = CostSpec(
        grid1d, alpha_omega=1.3, alpha_q=0.7, beta_omega=0.4, beta_q=0.9,
        phi_omega=rng.standard_normal(n_cells),
        sigma_omega=rng.standard_normal(n_cells),
        phi_q=rng.standard_normal((20, n_cells)), sigma_q=rng.standard_normal((20, n_cells)))
    adj = adjoint_sweep(traj, spec, params, kernel1d)
    ops, dt = traj.ops, traj.tgrid.dt
    p_bar = spec.alpha_omega * (traj.phi[20] - spec.phi_omega)
    r_bar = spec.beta_omega * (traj.sigma[20] - spec.sigma_omega)
    assert np.array_equal(adj.p[20], p_bar) and np.array_equal(adj.r[20], r_bar)
    for n in reversed(range(20)):
        block = linearise_step(ops, traj.phi[n:n + 1], traj.sigma[n:n + 1],
                               traj.controls.u[n:n + 1])
        lin = tuple(factor[0] for factor in block)
        xi_bar, rho_bar, phi_solve_bar, sigma_solve_bar = _adjoint_core(ops, lin, p_bar, r_bar)
        assert np.array_equal(adj.p[n], phi_solve_bar / dt)
        assert np.array_equal(adj.r[n], sigma_solve_bar / dt)
        p_bar = xi_bar + dt * spec.alpha_q * (traj.phi[n] - spec.phi_q[n])
        r_bar = rho_bar + dt * spec.beta_q * (traj.sigma[n] - spec.sigma_q[n])


@pytest.mark.parametrize("cells, extent, params", [
    pytest.param((32,), (1.0,), ModelParams(A=0.5, B=1.0, chi=0.0), id="1d-dense"),
    pytest.param((12, 10), (1.0, 0.8), ModelParams(A=0.05, B=1.0, chi=0.3), id="2d"),
    # h is the ramp while P is zero: h comes from the distribution, not from P
    pytest.param((32,), (1.0,), ModelParams(
        A=0.5, B=1.0, chi=0.0, proliferation=ProliferationSpec("constant_zero"),
        distribution=DistributionSpec("same_as_p")), id="constant_zero-same_as_p"),
])
def test_vjp_matches_per_step_loop(monkeypatch, rng, cells, extent, params):
    # reference: the VJP written as a per-step loop that evaluates h(phi_n)
    # afresh for each step; the sweep takes h(phi_n) from its linearisation,
    # blocks of 7 steps here, and the arithmetic is the same, so the control
    # cotangents must agree bitwise
    import nlch_control.sensitivity as sensitivity
    from nlch_control.forward import linearise_step
    from nlch_control.sensitivity import _adjoint_core

    grid = GridSpec(cells, extent)
    monkeypatch.setattr(sensitivity, "LINEARISE_CHUNK_VALUES", 7 * grid.num_cells)
    traj = random_run(rng, grid, params)
    steps, ops = traj.steps, traj.ops
    seed_phi = rng.standard_normal((steps + 1, grid.num_cells))
    seed_sigma = rng.standard_normal((steps + 1, grid.num_cells))
    u_bar, v_bar = vjp_sweep(traj, seed_phi, seed_sigma)
    assert u_bar.shape == v_bar.shape == (steps, grid.num_cells)
    p_bar, r_bar = seed_phi[steps], seed_sigma[steps]
    for n in reversed(range(steps)):
        block = linearise_step(ops, traj.phi[n:n + 1], traj.sigma[n:n + 1],
                               traj.controls.u[n:n + 1])
        lin = tuple(factor[0] for factor in block)
        xi_bar, rho_bar, phi_solve_bar, sigma_solve_bar = _adjoint_core(ops, lin, p_bar, r_bar)
        h = params.distribution.evaluate(traj.phi[n])
        assert np.array_equal(u_bar[n], phi_solve_bar * -h)
        assert np.array_equal(v_bar[n], sigma_solve_bar)
        p_bar = xi_bar + seed_phi[n]
        r_bar = rho_bar + seed_sigma[n]


def test_adjoint_terminal_unit_example(grid1d, kernel1d, params_gradient_flow):
    # phi(T) = 1 identically, phi_Omega = 0, alpha_Omega = 1: p(T) = 1, r(T) = 0
    tgrid = TimeGrid(0.1, 5)
    traj = simulate(ScalarField.constant(grid1d, 1.0), ScalarField.constant(grid1d, 0.0),
                    ControlPair.zeros(grid1d, 5), params_gradient_flow, kernel1d, tgrid)
    spec = CostSpec(grid1d, alpha_omega=1.0)
    adj = adjoint_sweep(traj, spec, params_gradient_flow, kernel1d)
    assert np.max(np.abs(adj.p[5] - 1.0)) < 1e-13
    assert np.all(adj.r[5] == 0.0)


@pytest.mark.parametrize("cells, extents, family, width", [
    ((48,), (1.0,), "gaussian", 0.2),        # dense operators
    ((300,), (1.0,), "gaussian", 0.2),       # FFT convolution, LU solves
    ((16, 12), (1.0, 0.8), "mollifier", 0.3),
], ids=["1d-dense", "1d-fft", "2d"])
def test_gradcheck_passes_with_chemotaxis(cells, extents, family, width):
    # the adjoint is the exact transpose of the scheme at any admissible chi
    grid = GridSpec(cells, extents)
    kernel = build_kernel(KernelSpec(family, 8.0, width), grid)
    params = ModelParams(A=0.5, B=2.0 / float(np.min(kernel.a)), chi=0.3)
    steps = 10
    rng = np.random.default_rng(7)
    spec = CostSpec(grid, alpha_omega=1.0, beta_q=0.5,
                             alpha_u=1e-2, beta_v=1e-2,
                             phi_omega=np.full(grid.num_cells, -0.2))
    result = run_gradcheck(smooth_phi0(grid), ScalarField.constant(grid, 0.3),
                           random_controls(rng, grid, steps), spec, params, kernel,
                           TimeGrid(0.1, steps), rng)
    assert result.max_duality_gap <= 1e-10
    assert max(result.fd_plateau) <= 1e-5
    assert min(result.taylor_orders) >= 1.9
    assert result.passed


def test_sweeps_reject_stale_trajectory(base_setup, grid1d, kernel1d, params):
    # the adjoint sweep still takes params and kernel; given other ones than
    # the trajectory was simulated with, it refuses
    _, _, _, traj = base_setup
    other_params = dataclasses.replace(params, A=0.6)
    other_kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.25), grid1d)
    spec = CostSpec(grid1d, alpha_omega=1.0)
    for p, k in ((other_params, kernel1d), (params, other_kernel)):
        with pytest.raises(StaleTrajectoryError):
            adjoint_sweep(traj, spec, p, k)
    # an equal kernel built afresh is the same input
    same_kernel = build_kernel(kernel1d.spec, grid1d)
    adj = adjoint_sweep(traj, spec, params, same_kernel)
    assert np.array_equal(adj.p, adjoint_sweep(traj, spec, params, kernel1d).p)


def test_gradcheck_sweep_count(monkeypatch, rng, base_setup, grid1d, kernel1d, params,
                               tgrid20):
    # the base trajectory, its adjoint and the gradient are computed once and
    # shared by every probe; each probe pays only for its own sweeps
    from nlch_control import gradcheck, sensitivity

    phi0, sigma0, controls, _ = base_setup
    sweeps = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            sweeps.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((gradcheck, "simulate"), (gradcheck, "adjoint_sweep"),
                         (gradcheck, "tangent_sweep"), (sensitivity, "tangent_sweep"),
                         (sensitivity, "vjp_sweep")):
        counted(module, name)
    spec = CostSpec(grid1d, alpha_omega=1.0, alpha_u=1e-2, beta_v=1e-2)
    n_duality, n_fd, n_taylor = 3, 2, 2
    result = gradcheck.run_gradcheck(phi0, sigma0, controls, spec, params, kernel1d,
                                     tgrid20, rng, n_duality=n_duality, n_fd=n_fd,
                                     n_taylor=n_taylor)
    assert result.passed
    assert len(sweeps) == (2 + 2 * n_duality + 2 * n_fd * len(gradcheck.FD_EPSILONS)
                           + n_taylor * (1 + len(gradcheck.TAYLOR_EPSILONS)))


@pytest.mark.parametrize("cells", [256, 257])
def test_duality_at_dense_crossover(rng, cells, params):
    grid = GridSpec((cells,), (1.0,))
    traj = random_run(rng, grid, params)
    for _ in range(3):
        gap = duality_gap(traj, rng.standard_normal((20, cells)), rng.standard_normal((20, cells)),
                          rng.standard_normal((21, cells)), rng.standard_normal((21, cells)))
        assert gap <= 1e-10


@pytest.mark.parametrize("cells,extent,family,width", [
    pytest.param((256,), (1.0,), "gaussian", 0.2, id="(256,)"),
    pytest.param((257,), (1.0,), "gaussian", 0.2, id="(257,)"),
    pytest.param((12, 10), (1.0, 1.0), "gaussian", 0.2, id="(12, 10)"),
    pytest.param((12, 10), (1.0, 1.0), "mollifier", 0.3, id="mollifier-(12, 10)"),
    # reach 15 < 39 on the long axis, clipped to n - 1 = 11 on the short one
    pytest.param((40, 12), (1.0, 0.3), "mollifier", 0.4, id="mollifier-(40, 12)"),
])
def test_linearisation_blocks_match_per_step(monkeypatch, rng, cells, extent, family, width):
    # the sweeps linearise a block of steps at once, as many as fit in
    # LINEARISE_CHUNK_VALUES (set here to blocks of 7 and of 19 of the 20
    # steps: block boundaries and a lone last step); every row must be
    # bitwise the per-step linearisation in either sweep direction, and so must every
    # row of the whole trajectory linearised as one stack. The grids cover
    # every form of the convolution: the dense matrix, the 1D and 2D
    # spectra (one clipped on one axis) and the separable Gaussian
    import nlch_control.sensitivity as sensitivity
    from nlch_control.forward import linearise_step

    grid = GridSpec(cells, extent)
    # the mollifier's weight a = J*1 is smaller: a larger B keeps c0 > chi^2
    params = ModelParams(A=0.05, B=1.0 if family == "gaussian" else 4.0, chi=0.3)
    traj = random_run(rng, grid, params, family=family, width=width)
    ops, steps = traj.ops, traj.steps
    whole = linearise_step(ops, traj.phi[:steps], traj.sigma[:steps], traj.controls.u[:steps])
    for rows, reverse in itertools.product((7, 19), (False, True)):
        monkeypatch.setattr(sensitivity, "LINEARISE_CHUNK_VALUES", rows * grid.num_cells)
        order = []
        for n, lin in sensitivity._linearised_steps(traj, reverse):
            per_step = [factor[0] for factor in linearise_step(
                ops, traj.phi[n:n + 1], traj.sigma[n:n + 1], traj.controls.u[n:n + 1])]
            for blocked, single, full in zip(lin, per_step, whole):
                assert np.array_equal(blocked, single) and np.array_equal(full[n], single)
            order.append(n)
        assert order == sorted(range(steps), reverse=reverse)


@pytest.mark.parametrize("cells, extent, family, width, params", [
    pytest.param((32,), (1.0,), "gaussian", 0.2, ModelParams(A=0.5, B=1.0, chi=0.0),
                 id="1d-dense"),
    pytest.param((300,), (1.0,), "gaussian", 0.2, ModelParams(A=0.5, B=1.0, chi=0.3),
                 id="1d-lu"),
    pytest.param((12, 10), (1.0, 0.8), "mollifier", 0.3, ModelParams(A=0.05, B=4.0, chi=0.3),
                 id="2d-mollifier"),
    pytest.param((12, 10), (1.0, 0.8), "gaussian", 0.2, ModelParams(A=0.05, B=1.0, chi=0.3),
                 id="2d-gaussian"),
    # h is identically one while P is the ramp: h and h' do not come from P
    pytest.param((32,), (1.0,), "gaussian", 0.2, ModelParams(
        A=0.5, B=1.0, chi=0.3, distribution=DistributionSpec("constant_one")),
                 id="constant_one"),
])
def test_held_linearisation_matches_fresh_linearisation(monkeypatch, rng, cells, extent,
                                                        family, width, params):
    # along the held copy every sweep recomputes only P, h and h' u, so the
    # tangent, the VJP, the adjoint and the duality gap must equal the
    # sweeps along traj, which linearise every block afresh, bit for bit;
    # blocks of 7 steps put block boundaries inside the held arrays
    import nlch_control.sensitivity as sensitivity
    from nlch_control.sensitivity import hold_linearisation

    grid = GridSpec(cells, extent)
    monkeypatch.setattr(sensitivity, "LINEARISE_CHUNK_VALUES", 7 * grid.num_cells)
    traj = random_run(rng, grid, params, family=family, width=width)
    held = hold_linearisation(traj)
    assert traj.held is None and held.held is not None
    # the copy shares the states, controls and operators, not copies of them
    assert all(getattr(held, name) is getattr(traj, name)
               for name in ("phi", "sigma", "controls", "ops"))
    steps, n_cells = traj.steps, grid.num_cells
    direction = random_controls(rng, grid, steps)
    seeds = (rng.standard_normal((steps + 1, n_cells)), rng.standard_normal((steps + 1, n_cells)))
    spec = CostSpec(grid, alpha_omega=1.3, alpha_q=0.7, beta_omega=0.4, beta_q=0.9,
                    phi_omega=rng.standard_normal(n_cells),
                    sigma_q=rng.standard_normal((steps, n_cells)))
    kernel = traj.ops.kernel

    def outputs(along):
        tangent = tangent_sweep(along, direction)
        adjoint = adjoint_sweep(along, spec, params, kernel)
        gap = duality_gap(along, direction.u, direction.v, *seeds)
        return (tangent.xi, tangent.rho, *vjp_sweep(along, *seeds), adjoint.p, adjoint.r,
                np.float64(gap))

    fresh = outputs(traj)

    def linearise_afresh(*args):
        raise AssertionError("a sweep along the held copy linearised afresh")

    monkeypatch.setattr(sensitivity, "linearise_step", linearise_afresh)
    for want, from_held in zip(fresh, outputs(held), strict=True):
        assert want.tobytes() == from_held.tobytes()


NAN = float("nan")
PASSING = dict(duality_gaps=(1e-16, 1e-15), fd_table=(), fd_plateau=(1e-8, 1e-9),
               taylor_orders=(2.0, 2.01))


@pytest.mark.parametrize("field, values", [
    ("duality_gaps", (NAN, 1e-16)),
    ("duality_gaps", (1e-16, NAN)),
    ("fd_plateau", (NAN,)),
    ("fd_plateau", (1e-8, NAN)),
    ("taylor_orders", (NAN,)),
    ("taylor_orders", (2.0, NAN)),
])
def test_gradcheck_result_reads_nan_as_failure(field, values):
    # NaN fails every comparison, so each rule states what must hold; a
    # rule written as "fail when over the threshold" passed a NaN
    assert GradcheckResult(**PASSING).passed
    assert not GradcheckResult(**{**PASSING, field: values}).passed


def test_max_duality_gap_propagates_nan():
    # Python's max skips a NaN that is not first: max((1e-16, nan)) is 1e-16
    for gaps in ((NAN, 1e-16), (1e-16, NAN)):
        result = GradcheckResult(**{**PASSING, "duality_gaps": gaps})
        assert math.isnan(result.max_duality_gap)
    assert GradcheckResult(**PASSING).max_duality_gap == 1e-15


def test_fd_plateau_propagates_nan(monkeypatch, base_setup, grid1d, kernel1d, params, tgrid20):
    # a NaN relative error at any step size makes the direction's plateau NaN
    from nlch_control import gradcheck

    phi0, sigma0, controls, _ = base_setup
    monkeypatch.setattr(gradcheck, "fd_gradient_errors",
                        lambda *args: (1e-9, NAN, 1e-9, 1e-9, 1e-9))
    result = run_gradcheck(phi0, sigma0, controls, CostSpec(grid1d, alpha_omega=1.0), params,
                           kernel1d, tgrid20, np.random.default_rng(0),
                           n_duality=0, n_fd=1, n_taylor=0)
    assert math.isnan(result.fd_plateau[0])
    assert not result.passed


def _gradcheck_2d_peak(cells, steps, **probes):
    """The traced peak of run_gradcheck on the gradcheck-2d model, in
    (steps + 1, cells) arrays, with the given probe counts, and whether the
    check passed. The operators (factorisations, FFT plans) are built by a
    first run, and the generator made, before tracing starts."""
    import tracemalloc

    from nlch_control import config_from_dict

    cfg = config_from_dict({
        "grid": {"cells": list(cells), "extent": [1.0, 1.0]},
        "kernel": {"family": "mollifier", "amplitude": 100.0, "width": 0.25},
        "model": {"A": 0.5, "B": 1.0, "chi": 0.0, "lambda_s": 2.0},
        "time": {"T": 0.01 * steps, "steps": steps},
        "initial": {"phi": {"kind": "bumps", "background": -0.3, "centers": [[0.4, 0.55]],
                            "amplitudes": [0.9], "widths": [0.15]},
                    "sigma": {"kind": "constant", "value": 0.3}},
        "controls": {"u": {"kind": "constant", "value": 0.05},
                     "v": {"kind": "constant", "value": -0.05}},
        "cost": {"alpha_omega": 1.0, "alpha_q": 1.0, "beta_omega": 1.0, "beta_q": 1.0,
                 "alpha_u": 1e-2, "beta_v": 1e-2,
                 "targets": {"kind": "constant", "phi_omega": 0.2, "sigma_omega": 0.3,
                             "phi_q": 0.1, "sigma_q": 0.3}},
    })
    grid = cfg.build_grid()
    kernel = cfg.build_kernel(grid)
    params = cfg.build_params()
    tgrid = cfg.build_tgrid()
    phi0, sigma0 = cfg.build_initial_state(grid)
    controls = cfg.build_initial_controls(grid)
    spec = cfg.build_cost(grid, kernel, params, tgrid)
    simulate(phi0, sigma0, controls, params, kernel, tgrid)
    rng = np.random.default_rng(0)  # the first use of np.random imports it
    tracemalloc.start()
    try:
        result = run_gradcheck(phi0, sigma0, controls, spec, params, kernel, tgrid, rng,
                               **probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / ((steps + 1) * grid.num_cells * 8), result.passed


@pytest.mark.parametrize("cells, steps, bound", [((64, 64), 10, 14.5), ((32, 32), 40, 12.4)],
                         ids=["64x64-10", "32x32-40"])
def test_gradcheck_peak_traced_memory(cells, steps, bound):
    # the gradcheck-2d model, two probes of each kind (so each kind draws
    # again after a probe has run): the duality probes draw into four
    # buffers and read the two linearisation products held on the base
    # trajectory's copy, both of which go before the FD probes, the reduced
    # gradient is formed after the duality probes and goes before the Taylor
    # probes, each FD and Taylor probe draws its direction as it starts and
    # drops it when it ends, each perturbed control is eps d plus c in one
    # array, and each Taylor remainder is formed inside its perturbed run's
    # state arrays. The peak measured 11.73 (in the duality probes) and
    # 11.19 (in the FD and Taylor probes) (steps + 1, cells) arrays with
    # numpy 2.4.6. The bounds were set from 13.25 and 11.12, read with
    # np.random's first import inside the trace (1.65 arrays at 64 x 64),
    # and are kept. Holding every FD
    # direction to the end, each duality probe's arrays into the next draw
    # and the whole-trajectory h(phi) factor of the VJP read 24.7 and 24.2.
    peak, passed = _gradcheck_2d_peak(cells, steps, n_duality=2, n_fd=2, n_taylor=2)
    assert passed
    assert peak <= bound


@pytest.mark.parametrize("cells, steps, bound", [((64, 64), 10, 13.1), ((32, 32), 40, 12.2)],
                         ids=["64x64-10", "32x32-40"])
def test_gradcheck_duality_phase_peak_traced_memory(cells, steps, bound):
    # the duality probes and the gradient's adjoint sweep alone: beside the
    # base trajectory the run holds the two linearisation products of its
    # held copy, the four reused probe buffers and one sweep's output at a
    # time. The peak measured 11.73 and 10.94 (steps + 1, cells) arrays with
    # numpy 2.4.6, and each bound leaves 1.25 arrays for other numpy
    # versions.
    peak, passed = _gradcheck_2d_peak(cells, steps, n_duality=2, n_fd=0, n_taylor=0)
    assert passed
    assert peak <= bound
