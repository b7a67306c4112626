"""The steps skip the chi-weighted terms when chi = 0 and form P gap once.

The oracles below are the full expressions of the scheme, every chi term
included and the ramp clipped by np.clip, evaluated in the order the steps
used before the skips. The library's forward, tangent and adjoint cores must
give the same bits at chi = 0 (where each skipped term is a signed zero) and
at chi > 0 (where the order is kept), on every operator form.
"""

import numpy as np
import pytest

from nlch_control import (ControlPair, GridSpec, KernelSpec, ModelParams, ScalarField,
                          TimeGrid, build_kernel, simulate)
from nlch_control.errors import InstabilityError
from nlch_control.forward import _step_core, linearise_step
from nlch_control.physics import (POTENTIAL, DistributionSpec, ProliferationSpec,
                                  _ramp_slope, _ramp_value)
from nlch_control.sensitivity import _adjoint_core, _tangent_core

from conftest import smooth_phi0


def full_rates(params, phi):
    """(P, P', h, h') with the ramp's t from np.clip."""
    t = np.clip((phi + 1.0) * 0.5, 0.0, 1.0)
    ramp = (_ramp_value(t), _ramp_slope(phi, t))
    prolif = ((np.zeros_like(phi), np.zeros_like(phi))
              if params.proliferation.family == "constant_zero" else ramp)
    distrib = ((np.ones_like(phi), np.zeros_like(phi))
               if params.distribution.family == "constant_one" else ramp)
    return *prolif, *distrib


def full_mu_and_gap(ops, phi, sigma):
    p = ops.params
    mu = (p.A * POTENTIAL.evaluate(phi, 1) + p.B * (ops.kernel.a * phi - ops.conv(phi))
          - p.chi * sigma)
    return mu, sigma + p.chi * (1.0 - phi) - mu


def full_step(ops, phi, sigma, u, v):
    mu, gap = full_mu_and_gap(ops, phi, sigma)
    prolif, _, distrib, _ = full_rates(ops.params, phi)
    source_phi = prolif * gap - distrib * u
    phi_new = phi + ops.solve_phi_increment(ops.lap(mu) + source_phi)
    rhs_sigma = sigma / ops.dt - ops.params.chi * ops.lap(phi_new) - prolif * gap + v
    return phi_new, ops.solve_sigma(rhs_sigma)


def full_linearisation(ops, phi, sigma, u):
    p = ops.params
    _, gap = full_mu_and_gap(ops, phi, sigma)
    prolif, prolif_d, distrib, distrib_d = full_rates(p, phi)
    return (prolif, distrib, distrib_d * u, prolif_d * gap,
            p.A * POTENTIAL.evaluate(phi, 2) + p.B * ops.kernel.a)


def full_tangent(ops, lin, xi, rho, du, dv):
    chi = ops.params.chi
    prolif, distrib, distrib_du, prolif_d_gap, stiffness = lin
    eta = stiffness * xi - ops.params.B * ops.conv(xi) - chi * rho
    dgap = rho - chi * xi - eta
    d_prolif_gap = prolif_d_gap * xi + prolif * dgap
    d_source = d_prolif_gap - distrib_du * xi - distrib * du
    xi_new = xi + ops.solve_phi_increment(ops.lap(eta) + d_source)
    rhs_sigma = rho / ops.dt - chi * ops.lap(xi_new) - d_prolif_gap + dv
    return xi_new, ops.solve_sigma(rhs_sigma)


def full_adjoint(ops, lin, p_bar, r_bar):
    chi = ops.params.chi
    prolif, _, distrib_du, prolif_d_gap, stiffness = lin
    t_sigma = ops.solve_sigma(r_bar)
    rho_bar = t_sigma / ops.dt
    d_prolif_gap_bar = -t_sigma
    xi_out_bar = p_bar - chi * ops.lap(t_sigma)
    xi_bar = xi_out_bar.copy()
    phi_solve_bar = ops.solve_phi_increment_transpose(xi_out_bar)
    eta_bar = ops.lap(phi_solve_bar)
    d_prolif_gap_bar = d_prolif_gap_bar + phi_solve_bar
    xi_bar += -distrib_du * phi_solve_bar
    xi_bar += prolif_d_gap * d_prolif_gap_bar
    dgap_bar = prolif * d_prolif_gap_bar
    rho_bar = rho_bar + dgap_bar
    xi_bar += -chi * dgap_bar
    eta_bar = eta_bar - dgap_bar
    xi_bar += stiffness * eta_bar - ops.params.B * ops.conv(eta_bar)
    rho_bar = rho_bar - chi * eta_bar
    return xi_bar, rho_bar, phi_solve_bar, t_sigma


# (cells, extent, kernel family, amplitude, width, distribution): dense 1D,
# LU 1D (FFT convolution), 2D mollifier (FFT convolution, LU phi solve, DCT
# sigma solve), 2D Gaussian (separable factors) and h = 1 on the dense path
CASES = {
    "dense-1d": ((32,), (1.0,), "gaussian", 4.0, 0.2, "same_as_p"),
    "lu-1d-300": ((300,), (1.0,), "gaussian", 4.0, 0.2, "same_as_p"),
    "mollifier-2d": ((12, 10), (1.0, 0.8), "mollifier", 100.0, 0.25, "same_as_p"),
    "gaussian-2d": ((12, 10), (1.0, 0.8), "gaussian", 20.0, 0.15, "same_as_p"),
    "constant-one": ((32,), (1.0,), "gaussian", 4.0, 0.2, "constant_one"),
}


def bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("chi", [0.0, 0.3], ids=["chi0", "chi0.3"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cores_match_the_full_expressions_bitwise(case, chi):
    cells, extent, family, amplitude, width, distribution = CASES[case]
    grid = GridSpec(cells, extent)
    kernel = build_kernel(KernelSpec(family, amplitude, width), grid)
    params = ModelParams(A=0.5, B=1.0, chi=chi,
                         distribution=DistributionSpec(distribution))
    rng = np.random.default_rng(7)
    steps, n = 4, grid.num_cells
    controls = ControlPair(grid, 0.2 * rng.standard_normal((steps, n)),
                           0.2 * rng.standard_normal((steps, n)))
    sigma0 = ScalarField(grid, 0.3 + 0.1 * rng.random(n))
    traj = simulate(smooth_phi0(grid), sigma0, controls, params, kernel,
                    TimeGrid(0.04, steps))
    ops = traj.ops
    lin = linearise_step(ops, traj.phi[:steps], traj.sigma[:steps], controls.u)
    for k in range(steps):
        phi, sigma, u, v = traj.phi[k], traj.sigma[k], controls.u[k], controls.v[k]
        want_step = full_step(ops, phi, sigma, u, v)
        assert bits(*_step_core(ops, phi, sigma, u, v, ops.conv(phi))) == bits(*want_step)
        assert bits(traj.phi[k + 1], traj.sigma[k + 1]) == bits(*want_step)

        full_lin = full_linearisation(ops, phi, sigma, u)
        row_lin = tuple(factor[k] for factor in lin)
        assert bits(*row_lin) == bits(*full_lin)
        xi, rho, du, dv, p_bar, r_bar = rng.standard_normal((6, n))
        assert (bits(*_tangent_core(ops, row_lin, xi, rho, du, dv))
                == bits(*full_tangent(ops, full_lin, xi, rho, du, dv)))
        assert (bits(*_adjoint_core(ops, row_lin, p_bar, r_bar))
                == bits(*full_adjoint(ops, full_lin, p_bar, r_bar)))


def test_constant_zero_proliferation_matches_the_full_expressions():
    grid = GridSpec((32,), (1.0,))
    kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.2), grid)
    params = ModelParams(A=0.5, B=1.0, proliferation=ProliferationSpec("constant_zero"))
    rng = np.random.default_rng(8)
    controls = ControlPair(grid, 0.2 * rng.standard_normal((1, 32)),
                           0.2 * rng.standard_normal((1, 32)))
    traj = simulate(smooth_phi0(grid), ScalarField.constant(grid, 0.3), controls, params,
                    kernel, TimeGrid(0.01, 1))
    ops = traj.ops
    phi, sigma, u = traj.phi[0], traj.sigma[0], controls.u[0]
    assert bits(traj.phi[1], traj.sigma[1]) == bits(*full_step(ops, phi, sigma, u,
                                                                controls.v[0]))
    lin = tuple(f[0] for f in linearise_step(ops, traj.phi[:1], traj.sigma[:1], controls.u))
    assert bits(*lin) == bits(*full_linearisation(ops, phi, sigma, u))


# (cells, phi0, guard, sigma0) -> (step, message, sup_norm), as the steps
# raised them before the chi terms were skipped
GUARD_TRIPS = [
    (((32,), 0.9, 0.5, 0.0),
     (0, "step 0: |phi| reached 0.901 > guard 0.5; reduce dt", 0.9012702712108153)),
    (((8, 8), 0.9, 0.5, 0.3),
     (0, "step 0: |phi| reached 0.905 > guard 0.5; reduce dt", 0.9054377802382706)),
    (((32,), 1e120, np.inf, 0.0),
     (0, "step 0: phi or sigma is not finite; reduce dt or check the initial data", None)),
    (((8, 8), 1e120, np.inf, 0.0),
     (0, "step 0: phi or sigma is not finite; reduce dt or check the initial data", None)),
    (((300,), 1e120, 10.0, 0.3),
     (0, "step 0: phi or sigma is not finite; reduce dt or check the initial data", None)),
    (((32,), 1e100, np.inf, 0.3),
     (1, "step 1: phi or sigma is not finite; reduce dt or check the initial data", None)),
]


@pytest.mark.parametrize("run, expected", GUARD_TRIPS,
                         ids=["blowup-1d", "blowup-2d", "nonfinite-1d", "nonfinite-2d",
                              "nonfinite-lu-1d", "nonfinite-step1"])
def test_chi_zero_guard_trips_are_unchanged(run, expected):
    cells, phi_value, guard, sigma_value = run
    step, message, sup_norm = expected
    grid = GridSpec(cells, (1.0,) * len(cells))
    kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.25), grid)
    phi0 = (ScalarField.constant(grid, phi_value) if phi_value < 1.0
            else smooth_phi0(grid, amplitude=phi_value))
    with np.errstate(all="ignore"), pytest.raises(InstabilityError) as exc_info:
        simulate(phi0, ScalarField.constant(grid, sigma_value), ControlPair.zeros(grid, 20),
                 ModelParams(A=0.5, B=1.0, chi=0.0), kernel, TimeGrid(0.25, 20),
                 blowup_guard=guard)
    exc = exc_info.value
    assert type(exc) is InstabilityError
    assert (exc.step, str(exc), exc.guard) == (step, message, guard)
    if sup_norm is None:
        assert np.isnan(exc.sup_norm)
    else:
        assert exc.sup_norm == sup_norm
