"""2D-specific exercises of the paths that differ from 1D: the Kronecker
assembly behind the sparse direct solve, the 2D zero-padded convolution, and
the flattened indexing shared by the tangent/adjoint sweeps."""

import numpy as np
import pytest

from nlch_control import (ControlPair, CostSpec, GridSpec, KernelSpec,
                          ModelParams, ScalarField, State, TimeGrid,
                          adjoint_sweep, build_kernel, duality_gap, free_energy,
                          mass_balance_residual, reduced_gradient, simulate)
from nlch_control.gradcheck import fd_gradient_errors, taylor_remainder_order
from nlch_control.physics import ProliferationSpec

from conftest import one_step, random_controls, smooth_phi0
from test_forward import dense_step_oracle, energy_double_loop_oracle


@pytest.fixture
def grid():
    return GridSpec((8, 6), (1.0, 0.75))


@pytest.fixture
def kernel(grid):
    return build_kernel(KernelSpec("gaussian", 4.0, 0.25), grid)


@pytest.fixture
def params():
    return ModelParams(A=0.5, B=1.0, chi=0.0)


def test_step_matches_dense_oracle_2d(rng, grid, kernel, params):
    dt = 0.02
    phi = 0.4 * rng.standard_normal(grid.num_cells)
    sigma = 0.3 * rng.standard_normal(grid.num_cells)
    u = rng.standard_normal(grid.num_cells)
    v = rng.standard_normal(grid.num_cells)
    oracle_phi, oracle_sigma = dense_step_oracle(grid, params, kernel, dt,
                                                 phi, sigma, u, v)
    new = one_step(State(ScalarField(grid, phi), ScalarField(grid, sigma)),
                   ScalarField(grid, u), ScalarField(grid, v), params, kernel, dt)
    assert np.max(np.abs(new.phi.values - oracle_phi)) < 1e-10
    assert np.max(np.abs(new.sigma.values - oracle_sigma)) < 1e-10


def test_free_energy_matches_double_loop_2d(rng, grid, kernel):
    params = ModelParams(A=0.7, B=1.1, chi=0.3)
    phi = rng.standard_normal(grid.num_cells)
    sigma = rng.standard_normal(grid.num_cells)
    state = State(ScalarField(grid, phi), ScalarField(grid, sigma))
    oracle = energy_double_loop_oracle(grid, params, kernel, phi, sigma)
    assert free_energy(state, params, kernel) == pytest.approx(oracle, rel=1e-12)


def test_dissipation_and_mass_balance_2d(rng, grid, kernel, params):
    tgrid = TimeGrid(0.2, 20)
    params_gf = ModelParams(A=0.5, B=1.0, chi=0.0,
                            proliferation=ProliferationSpec("constant_zero"))
    phi0 = smooth_phi0(grid, amplitude=0.7)
    traj = simulate(phi0, ScalarField.constant(grid, 0.1),
                    ControlPair.zeros(grid, 20), params_gf, kernel, tgrid)
    energies = np.array([row[2] for row in traj.monitors])
    masses = np.array([row[3] for row in traj.monitors])
    assert np.all(np.diff(energies) <= 1e-12 * max(1.0, abs(energies[0])))
    assert np.max(np.abs(masses - masses[0])) <= 1e-13 * max(1.0, abs(masses[0]))

    controls = random_controls(rng, grid, 20, scale=0.3)
    traj_r = simulate(phi0, ScalarField.constant(grid, 0.3), controls, params,
                      kernel, tgrid)
    assert mass_balance_residual(traj_r, controls, params) <= 1e-12


def test_duality_gap_2d(rng, grid, kernel, params):
    tgrid = TimeGrid(0.1, 8)
    phi0 = smooth_phi0(grid)
    sigma0 = ScalarField.constant(grid, 0.3)
    controls = random_controls(rng, grid, 8)
    traj = simulate(phi0, sigma0, controls, params, kernel, tgrid)
    for _ in range(5):
        d = random_controls(rng, grid, 8, scale=1.0)
        seed_phi = rng.standard_normal((9, grid.num_cells))
        seed_sigma = rng.standard_normal((9, grid.num_cells))
        assert duality_gap(traj, d.u, d.v, seed_phi, seed_sigma) <= 1e-10


def test_gradient_and_taylor_2d(rng, grid, kernel, params):
    tgrid = TimeGrid(0.1, 8)
    phi0 = smooth_phi0(grid)
    sigma0 = ScalarField.constant(grid, 0.3)
    controls = random_controls(rng, grid, 8)
    spec = CostSpec.tracking(grid, 8, alpha_omega=1.0, beta_q=0.5,
                             alpha_u=1e-2, beta_v=1e-2,
                             phi_omega=ScalarField.constant(grid, -0.2))
    direction = random_controls(rng, grid, 8, scale=1.0)
    base = simulate(phi0, sigma0, controls, params, kernel, tgrid, record_monitors=False)
    grad = reduced_gradient(adjoint_sweep(base, spec, params, kernel), spec)
    errors = fd_gradient_errors(base, grad, direction, spec)
    assert min(errors) <= 1e-5
    order, _ = taylor_remainder_order(base, direction)
    assert order >= 1.9
