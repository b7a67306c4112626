import dataclasses

import numpy as np
import pytest

from nlch_control import (ControlPair, CostSpec, KernelSpec, ModelParams,
                          ScalarField, TimeGrid, adjoint_sweep, build_kernel,
                          duality_gap, simulate, tangent_sweep)
from nlch_control.errors import ChemotaxisScopeError, StaleTrajectoryError
from nlch_control.gradcheck import taylor_remainder_order, trajectory_qt_norm
from nlch_control.sensitivity import vjp_sweep

from conftest import random_controls, smooth_phi0


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
    t1 = tangent_sweep(traj, d1, params, kernel1d)
    for d2 in (random_controls(rng, grid1d, 20), ControlPair.zeros(grid1d, 20)):
        combined = ControlPair(grid1d, 2.0 * d1.u - 0.5 * d2.u, 2.0 * d1.v - 0.5 * d2.v)
        t2 = tangent_sweep(traj, d2, params, kernel1d)
        tc = tangent_sweep(traj, combined, params, kernel1d)
        scale = max(1.0, np.max(np.abs(tc.xi)))
        assert np.max(np.abs(tc.xi - (2.0 * t1.xi - 0.5 * t2.xi))) <= 1e-13 * scale
        assert np.max(np.abs(tc.rho - (2.0 * t1.rho - 0.5 * t2.rho))) <= 1e-13 * scale
    # the last d2 is zero: zero in, zero out
    assert np.all(t2.xi == 0.0) and np.all(t2.rho == 0.0)


def test_tangent_matches_finite_differences(rng, base_setup, grid1d, kernel1d, params,
                                            tgrid20):
    phi0, sigma0, controls, traj = base_setup
    direction = random_controls(rng, grid1d, 20, scale=1.0)
    tangent = tangent_sweep(traj, direction, params, kernel1d)

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


def test_taylor_remainder_quadratic(rng, base_setup, grid1d, kernel1d, params, tgrid20):
    phi0, sigma0, controls, _ = base_setup
    direction = random_controls(rng, grid1d, 20, scale=1.0)
    order, remainders = taylor_remainder_order(phi0, sigma0, controls, direction,
                                               params, kernel1d, tgrid20)
    assert order >= 1.9
    assert all(r2 < r1 for r1, r2 in zip(remainders, remainders[1:]))


def test_duality_gap_probes(rng, base_setup, grid1d, kernel1d, params):
    _, _, _, traj = base_setup
    for _ in range(5):
        d = random_controls(rng, grid1d, 20, scale=1.0)
        seed_phi = rng.standard_normal((21, grid1d.num_cells))
        seed_sigma = rng.standard_normal((21, grid1d.num_cells))
        gap = duality_gap(traj, params, kernel1d, d.u, d.v, seed_phi, seed_sigma)
        assert gap <= 1e-10


def test_duality_gap_zero_perturbation(base_setup, grid1d, kernel1d, params, rng):
    _, _, _, traj = base_setup
    zeros = np.zeros((20, grid1d.num_cells))
    seed_phi = rng.standard_normal((21, grid1d.num_cells))
    seed_sigma = rng.standard_normal((21, grid1d.num_cells))
    assert duality_gap(traj, params, kernel1d, zeros, zeros, seed_phi, seed_sigma) == 0.0


def test_duality_gap_aligned_seed(rng, base_setup, grid1d, kernel1d, params):
    # seed equal to the tangent output: pairing strictly positive, gap tiny
    _, _, _, traj = base_setup
    d = random_controls(rng, grid1d, 20, scale=1.0)
    tangent = tangent_sweep(traj, d, params, kernel1d)
    gap = duality_gap(traj, params, kernel1d, d.u, d.v, tangent.xi, tangent.rho)
    assert gap <= 1e-10
    assert tangent.pair_with_seed(tangent.xi, tangent.rho) > 0.0


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
    gap = duality_gap(traj, params, kernel1d, dh, dk, seed_phi, seed_sigma)
    assert gap <= 1e-10


def test_vjp_transposes_tangent_matrix_entry(rng, base_setup, grid1d, kernel1d, params):
    # single basis probes: entry of the tangent map equals entry of its transpose
    _, _, _, traj = base_setup
    dh = np.zeros((20, grid1d.num_cells))
    dh[2, 7] = 1.0
    dk = np.zeros_like(dh)
    tangent = tangent_sweep(traj, ControlPair(grid1d, dh, dk), params, kernel1d)
    seed_phi = np.zeros((21, grid1d.num_cells))
    seed_sigma = np.zeros((21, grid1d.num_cells))
    seed_phi[17, 23] = 1.0
    u_bar, v_bar = vjp_sweep(traj, seed_phi, seed_sigma, params, kernel1d)
    assert u_bar[2, 7] == pytest.approx(tangent.xi[17, 23], rel=1e-12, abs=1e-15)


def test_adjoint_zero_weights_gives_zero(base_setup, grid1d, kernel1d, params):
    _, _, _, traj = base_setup
    spec = CostSpec.tracking(grid1d, 20)  # all weights default to zero here
    spec = dataclasses.replace(spec)
    adj = adjoint_sweep(traj, spec, params, kernel1d)
    assert np.all(adj.p == 0.0)
    assert np.all(adj.r == 0.0)


def test_adjoint_terminal_slices(base_setup, grid1d, kernel1d, params):
    phi0, sigma0, controls, traj = base_setup
    spec = CostSpec.tracking(grid1d, 20, alpha_omega=1.0)
    adj = adjoint_sweep(traj, spec, params, kernel1d)
    assert np.allclose(adj.p[20], traj.phi[20] - spec.phi_omega.values)
    assert np.all(adj.r[20] == 0.0)


def test_adjoint_terminal_unit_example(grid1d, kernel1d, params_gradient_flow):
    # phi(T) = 1 identically, phi_Omega = 0, alpha_Omega = 1: p(T) = 1, r(T) = 0
    tgrid = TimeGrid(0.1, 5)
    traj = simulate(ScalarField.constant(grid1d, 1.0), ScalarField.constant(grid1d, 0.0),
                    ControlPair.zeros(grid1d, 5), params_gradient_flow, kernel1d, tgrid)
    spec = CostSpec.tracking(grid1d, 5, alpha_omega=1.0)
    adj = adjoint_sweep(traj, spec, params_gradient_flow, kernel1d)
    assert np.max(np.abs(adj.p[5] - 1.0)) < 1e-13
    assert np.all(adj.r[5] == 0.0)


def test_adjoint_rejects_chemotaxis(grid1d, rng, tgrid20):
    from nlch_control import KernelSpec, build_kernel

    kernel = build_kernel(KernelSpec("gaussian", 8.0, 0.2), grid1d)
    params = ModelParams(A=0.5, B=1.0, chi=0.3)
    phi0 = smooth_phi0(grid1d, amplitude=0.3)
    sigma0 = ScalarField.constant(grid1d, 0.1)
    traj = simulate(phi0, sigma0, ControlPair.zeros(grid1d, 20), params, kernel, tgrid20)
    spec = CostSpec.tracking(grid1d, 20, alpha_omega=1.0)
    with pytest.raises(ChemotaxisScopeError):
        adjoint_sweep(traj, spec, params, kernel)
    zeros = np.zeros((20, grid1d.num_cells))
    seeds = np.zeros((21, grid1d.num_cells))
    with pytest.raises(ChemotaxisScopeError):
        duality_gap(traj, params, kernel, zeros, zeros, seeds, seeds)


def test_sweeps_reject_stale_trajectory(base_setup, grid1d, kernel1d, params):
    # sweeps given other inputs than the trajectory was simulated with
    _, _, _, traj = base_setup
    other_params = dataclasses.replace(params, A=0.6)
    other_kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.25), grid1d)
    spec = CostSpec.tracking(grid1d, 20, alpha_omega=1.0)
    for p, k in ((other_params, kernel1d), (params, other_kernel)):
        with pytest.raises(StaleTrajectoryError):
            tangent_sweep(traj, ControlPair.zeros(grid1d, 20), p, k)
        with pytest.raises(StaleTrajectoryError):
            adjoint_sweep(traj, spec, p, k)
    # an equal kernel built afresh is the same input
    same_kernel = build_kernel(kernel1d.spec, grid1d)
    adj = adjoint_sweep(traj, spec, params, same_kernel)
    assert np.array_equal(adj.p, adjoint_sweep(traj, spec, params, kernel1d).p)


def test_q_slice_structure(base_setup, grid1d, kernel1d, params):
    from nlch_control.geometry import laplacian_array

    _, _, _, traj = base_setup
    spec = CostSpec.tracking(grid1d, 20, alpha_omega=1.0, beta_q=0.5)
    adj = adjoint_sweep(traj, spec, params, kernel1d)
    n = 7
    q = adj.q_slice(traj, params, n)
    expected = -laplacian_array(grid1d, adj.p[n]) \
        + params.proliferation.evaluate(traj.phi[n], 0) * (adj.p[n] - adj.r[n])
    assert np.array_equal(q, expected)
