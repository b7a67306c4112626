"""Exact discrete tangent (JVP) of the forward map and its exact transpose
(VJP), computed by reverse time sweep over the recorded trajectory.

The forward step is linear in its unknown, so differentiating it amounts to
replaying the same two SPD solves on linearised right-hand sides; the
transpose reverses the elementary operations, reusing the self-transposed
implicit solves, the symmetric Laplacian, and the symmetric convolution.
Gradients produced this way match finite differences of the discrete cost to
truncation error, which is the property the optimiser relies on. The
trajectory stores only the states; each sweep recomputes a step's
linearisation from phi_n, sigma_n and u_n right before using it.

Cotangent bookkeeping for one step (bars denote cotangents, primes the step
outputs): the phi solve transposes to K^-1 (w_bar / c) with the same SPD
factorisation K used forward, and the sigma solve is its own transpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ChemotaxisScopeError, FieldShapeError
from .geometry import GridSpec, laplacian_array
from .forward import ControlPair, StateTrajectory, StepOperators, TimeGrid, linearise_step
from .kernels import KernelData
from .physics import ModelParams


@dataclass(frozen=True)
class TangentTrajectory:
    """All tangent slices, shape (steps + 1, cells); slice 0 is zero."""

    grid: GridSpec
    tgrid: TimeGrid
    xi: np.ndarray = field(repr=False)
    rho: np.ndarray = field(repr=False)

    def pair_with_seed(self, seed_phi: np.ndarray, seed_sigma: np.ndarray) -> float:
        """Sum over produced slices of the L2(Omega) pairing with a seed."""
        vol = self.grid.cell_volume
        return float(
            (np.sum(seed_phi[1:] * self.xi[1:]) + np.sum(seed_sigma[1:] * self.rho[1:])) * vol
        )


@dataclass(frozen=True)
class AdjointTrajectory:
    """Backward-swept adjoint slices of the state trajectory traj.

    p[n], r[n] for n < steps are the slices paired with step n's explicit
    terms (the ones the reduced gradient contracts against); p[steps] and
    r[steps] hold the terminal data alpha_Om (phi(T) - phi_Om) and
    beta_Om (sigma(T) - sigma_Om). traj is the trajectory the sweep ran
    along, so everything evaluated at its states reads them from here.
    """

    traj: StateTrajectory = field(repr=False)
    p: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)

    def q_slice(self, n: int) -> np.ndarray:
        """Transient diagnostic q_n = -Lap p_n + P(phi_n)(p_n - r_n)."""
        traj = self.traj
        prolif = traj.ops.params.proliferation.evaluate(traj.phi[n], 0)
        return -laplacian_array(traj.grid, self.p[n]) + prolif * (self.p[n] - self.r[n])


def _tangent_core(ops: StepOperators, lin: tuple[np.ndarray, ...], xi: np.ndarray,
                  rho: np.ndarray, du: np.ndarray, dv: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Tangent of one step at the base point linearised by linearise_step."""
    params = ops.params
    chi = params.chi
    gap, prolif, prolif_d, distrib, distrib_du, f2 = lin
    eta = (params.A * f2 + params.B * ops.kernel.a_field.values) * xi \
        - params.B * ops.conv(xi) - chi * rho
    dgap = rho - chi * xi - eta
    d_prolif_gap = prolif_d * gap * xi + prolif * dgap
    d_source = d_prolif_gap - distrib_du * xi - distrib * du
    rhs_phi = ops.lap(eta) + d_source
    dw = ops.solve_phi_increment(rhs_phi)
    xi_new = xi + dw
    rhs_sigma = rho / ops.dt - chi * ops.lap(xi_new) - d_prolif_gap + dv
    rho_new = ops.solve_sigma(rhs_sigma)
    return xi_new, rho_new


def _adjoint_core(ops: StepOperators, lin: tuple[np.ndarray, ...], p_bar: np.ndarray,
                  r_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                              np.ndarray, np.ndarray, np.ndarray]:
    """Exact transpose of _tangent_core.

    Returns (xi_bar, rho_bar, u_bar, v_bar, phi_solve_bar, sigma_solve_bar);
    the last two are the transposed implicit solves, from which the
    gradient-facing adjoint slices are read off as phi_solve_bar / dt and
    sigma_solve_bar / dt.
    """
    params = ops.params
    chi = params.chi
    gap, prolif, prolif_d, distrib, distrib_du, f2 = lin

    t_sigma = ops.solve_sigma(r_bar)
    v_bar = t_sigma
    rho_bar = t_sigma / ops.dt
    d_prolif_gap_bar = -t_sigma

    xi_out_bar = p_bar - chi * ops.lap(t_sigma)
    xi_bar = xi_out_bar.copy()

    phi_solve_bar = ops.solve_phi_increment_transpose(xi_out_bar)
    eta_bar = ops.lap(phi_solve_bar)
    d_source_bar = phi_solve_bar

    d_prolif_gap_bar = d_prolif_gap_bar + d_source_bar
    xi_bar += -distrib_du * d_source_bar
    u_bar = -distrib * d_source_bar

    xi_bar += prolif_d * gap * d_prolif_gap_bar
    dgap_bar = prolif * d_prolif_gap_bar
    rho_bar = rho_bar + dgap_bar
    xi_bar += -chi * dgap_bar
    eta_bar = eta_bar - dgap_bar

    xi_bar += (params.A * f2 + params.B * ops.kernel.a_field.values) * eta_bar \
        - params.B * ops.conv(eta_bar)
    rho_bar = rho_bar - chi * eta_bar

    return xi_bar, rho_bar, u_bar, v_bar, phi_solve_bar, t_sigma


def tangent_sweep(traj: StateTrajectory, d_controls: ControlPair) -> TangentTrajectory:
    """Accumulate the tangent over the whole trajectory from zero initial data."""
    if d_controls.steps != traj.steps:
        raise FieldShapeError("perturbation step count does not match trajectory")
    grid = traj.grid
    ops = traj.ops
    n_cells = grid.num_cells
    xi = np.zeros((traj.steps + 1, n_cells))
    rho = np.zeros((traj.steps + 1, n_cells))
    for n in range(traj.steps):
        lin = linearise_step(ops, traj.phi[n], traj.sigma[n], traj.controls.u[n])
        xi[n + 1], rho[n + 1] = _tangent_core(ops, lin, xi[n], rho[n],
                                              d_controls.u[n], d_controls.v[n])
    return TangentTrajectory(grid=grid, tgrid=traj.tgrid, xi=xi, rho=rho)


def vjp_sweep(traj: StateTrajectory, seed_phi: np.ndarray,
              seed_sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transpose of tangent_sweep: pull trajectory cotangents back to controls.

    seed arrays have shape (steps + 1, cells); row 0 pairs with the fixed
    initial slice and is ignored. Returns per-step control cotangents in the
    raw per-slice pairing (no dt weight).
    """
    grid = traj.grid
    ops = traj.ops
    steps = traj.steps
    u_bar = np.zeros((steps, grid.num_cells))
    v_bar = np.zeros((steps, grid.num_cells))
    p_bar = np.array(seed_phi[steps], dtype=np.float64)
    r_bar = np.array(seed_sigma[steps], dtype=np.float64)
    for n in range(steps - 1, -1, -1):
        lin = linearise_step(ops, traj.phi[n], traj.sigma[n], traj.controls.u[n])
        xi_bar, rho_bar, u_bar[n], v_bar[n], _, _ = _adjoint_core(ops, lin, p_bar, r_bar)
        p_bar = xi_bar + seed_phi[n]
        r_bar = rho_bar + seed_sigma[n]
    return u_bar, v_bar


def adjoint_sweep(traj: StateTrajectory, cost, params: ModelParams,
                  kernel: KernelData) -> AdjointTrajectory:
    """Backward sweep seeded by the cost: the discrete adjoint system.

    Terminal slices carry the final-time tracking data; every earlier slice
    receives the running tracking sources weighted by dt (matching the
    left-endpoint time quadrature of the cost). Restricted to chi = 0, the
    regime where the optimality theory lives. params and kernel must be the
    ones traj was simulated with (StaleTrajectoryError otherwise).
    """
    if params.chi != 0.0:
        raise ChemotaxisScopeError(
            "adjoint/control machinery requires chi = 0 (chemotaxis-free regime)"
        )
    traj.require_inputs(params, kernel)
    cost.require_grid(traj)
    grid = traj.grid
    steps = traj.steps
    dt = traj.tgrid.dt
    n_cells = grid.num_cells

    p = np.zeros((steps + 1, n_cells))
    r = np.zeros((steps + 1, n_cells))
    p_bar = cost.alpha_omega * (traj.phi[steps] - cost.phi_omega.values)
    r_bar = cost.beta_omega * (traj.sigma[steps] - cost.sigma_omega.values)
    p[steps] = p_bar
    r[steps] = r_bar

    ops = traj.ops
    for n in range(steps - 1, -1, -1):
        lin = linearise_step(ops, traj.phi[n], traj.sigma[n], traj.controls.u[n])
        xi_bar, rho_bar, _, _, phi_solve_bar, sigma_solve_bar = _adjoint_core(
            ops, lin, p_bar, r_bar
        )
        p[n] = phi_solve_bar / dt
        r[n] = sigma_solve_bar / dt
        p_bar = xi_bar + dt * cost.alpha_q * (traj.phi[n] - cost.phi_q[n])
        r_bar = rho_bar + dt * cost.beta_q * (traj.sigma[n] - cost.sigma_q[n])

    return AdjointTrajectory(traj=traj, p=p, r=r)


def duality_gap(traj: StateTrajectory, dh: np.ndarray, dk: np.ndarray,
                seed_phi: np.ndarray, seed_sigma: np.ndarray) -> float:
    """Normalised defect of <seed, JVP(dh, dk)> = <VJP(seed), (dh, dk)>.

    Both sides are evaluated independently (full tangent sweep vs full
    reverse sweep); agreement certifies exact transposition.
    """
    if traj.steps and traj.ops.params.chi != 0.0:
        raise ChemotaxisScopeError("duality check restricted to chi = 0")
    grid = traj.grid
    tangent = tangent_sweep(traj, ControlPair(grid, dh, dk))
    forward_side = tangent.pair_with_seed(seed_phi, seed_sigma)
    u_bar, v_bar = vjp_sweep(traj, seed_phi, seed_sigma)
    vol = grid.cell_volume
    reverse_side = float((np.sum(u_bar * dh) + np.sum(v_bar * dk)) * vol)
    return abs(forward_side - reverse_side) / (1.0 + max(abs(forward_side), abs(reverse_side)))
