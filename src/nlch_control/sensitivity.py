"""Exact discrete tangent (JVP) of the forward map and its exact transpose
(VJP), computed by reverse time sweep over the recorded trajectory.

The forward step is linear in its unknown, so differentiating it amounts to
replaying its two SPD solves, forward.implicit_solves, on linearised terms;
the transpose reverses the elementary operations, reusing the self-transposed
implicit solves, the symmetric Laplacian, and the symmetric convolution.
Gradients produced this way match finite differences of the discrete cost to
truncation error, which is the property the optimiser relies on. A
trajectory from simulate stores only the states; each sweep along it
recomputes the steps' linearisations from phi_n, sigma_n and u_n, a block
of steps at a time: as many steps as fit in LINEARISE_CHUNK_VALUES values
per array, and at least one (one evaluation of the pointwise factors per
block instead of one per step, and O(chunk) memory however long the
trajectory). The convolutions run one row at a time, as in the forward
step, so every row of a block is bitwise the per-step linearisation.

Sweeps that share one base trajectory can run along its held copy
instead, hold_linearisation(traj): the same states, controls and operators,
holding the one factor that needs the convolution J*phi_n, P'(phi_n) gap_n,
as a (steps, cells) array (StateTrajectory.held), which linearise_step then
reads instead of convolving. Both give the same bits, and the held rows
cannot meet another trajectory's states. gradcheck runs its duality probes
along a held copy; a trajectory that gets one sweep, such as the one each
adjoint of gradcheck and PGD runs along, does not need it.

One backward loop, _reverse_sweep, serves both transposed products. It
hands out each step's two transposed solves together with h(phi_n) from the
linearisation it has just computed, and each product fills its own rows:
the VJP seeds the loop with arbitrary trajectory cotangents and forms the
control cotangents from the solves and h(phi_n); the discrete adjoint
system seeds it with the cost's derivative with respect to the state and
keeps the solves divided by dt.

Cotangent bookkeeping for one step (bars denote cotangents, primes the step
outputs): the phi solve transposes to K^-1 (w_bar / c) with the same SPD
factorisation K used forward, and the sigma solve is its own transpose.

As in the forward step, a term with a zero coefficient is not evaluated:
with chi = 0 the tangent skips -chi rho, -chi xi and -chi Lap xi', and the
transposed step -chi Lap t_sigma, -chi dgap_bar and -chi eta_bar. Each is a
signed zero there, so the sweeps keep their bits; with chi > 0 every
expression is evaluated in the order of the full step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FieldShapeError
from .geometry import qt_inner_product
from .forward import (ControlPair, StateTrajectory, StepOperators, implicit_solves,
                      linearise_step)
from .kernels import KernelData
from .physics import ModelParams

# Values per array in one block of steps (32 kB): the whole of most small 1D
# trajectories, and one step on a 2D grid of 64 x 64 cells or more. Each
# convolution still takes one row (batched FFTs of 8 rows at 64 x 64 cost
# more per row than single rows on a 2-vCPU x86 machine).
LINEARISE_CHUNK_VALUES = 1 << 12


@dataclass(frozen=True, eq=False)
class TangentTrajectory:
    """All tangent slices xi (of phi) and rho (of sigma), shape
    (steps + 1, cells); slice 0 is zero. Compares and hashes by identity."""

    xi: np.ndarray = field(repr=False)
    rho: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class AdjointTrajectory:
    """Cost-seeded reverse sweep along the state trajectory traj; compares
    and hashes by identity.

    p[n], r[n] for n < steps are the transposed phi and sigma solves of step
    n divided by dt, the slices paired with step n's explicit terms (the ones
    the reduced gradient contracts against); p[steps] and r[steps] hold the
    terminal data alpha_Om (phi(T) - phi_Om) and beta_Om (sigma(T) - sigma_Om).
    traj is the trajectory the sweep ran along, so everything evaluated at
    its states reads them from here.
    """

    traj: StateTrajectory = field(repr=False)
    p: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)


def _tangent_core(ops: StepOperators, lin: tuple[np.ndarray, ...], xi: np.ndarray,
                  rho: np.ndarray, du: np.ndarray, dv: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Tangent of one step at the base point linearised by linearise_step:
    implicit_solves on the linearised terms; chi terms only if chi != 0."""
    params = ops.params
    chi = params.chi
    prolif, distrib, distrib_du, prolif_d_gap, stiffness = lin
    eta = stiffness * xi - params.B * ops.conv(xi)
    if chi:
        eta -= chi * rho
        dgap = rho - chi * xi - eta
    else:
        dgap = rho - eta
    d_prolif_gap = prolif_d_gap * xi + prolif * dgap
    d_source = d_prolif_gap - distrib_du * xi - distrib * du
    return implicit_solves(ops, xi, rho, eta, d_source, d_prolif_gap, dv)


def _adjoint_core(ops: StepOperators, lin: tuple[np.ndarray, ...], p_bar: np.ndarray,
                  r_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact transpose of _tangent_core.

    Returns (xi_bar, rho_bar, phi_solve_bar, sigma_solve_bar): the cotangents
    of the step's inputs and its two transposed implicit solves. The control
    cotangents are -h(phi_n) phi_solve_bar and sigma_solve_bar; the adjoint
    slices are the solves divided by dt. The chi terms are transposed only
    when chi is non-zero.
    """
    params = ops.params
    chi = params.chi
    prolif, _, distrib_du, prolif_d_gap, stiffness = lin

    t_sigma = ops.solve_sigma(r_bar)
    rho_bar = t_sigma / ops.dt

    xi_out_bar = p_bar - chi * ops.lap(t_sigma) if chi else p_bar
    xi_bar = xi_out_bar.copy()

    phi_solve_bar = ops.solve_phi_increment_transpose(xi_out_bar)
    eta_bar = ops.lap(phi_solve_bar)
    d_source_bar = phi_solve_bar

    # -t_sigma from the sigma update plus d_source_bar from the phi source
    d_prolif_gap_bar = d_source_bar - t_sigma
    xi_bar -= distrib_du * d_source_bar

    xi_bar += prolif_d_gap * d_prolif_gap_bar
    dgap_bar = prolif * d_prolif_gap_bar
    rho_bar += dgap_bar
    if chi:
        xi_bar += -chi * dgap_bar
    eta_bar -= dgap_bar

    xi_bar += stiffness * eta_bar - params.B * ops.conv(eta_bar)
    if chi:
        rho_bar -= chi * eta_bar

    return xi_bar, rho_bar, phi_solve_bar, t_sigma


def step_blocks(traj: StateTrajectory) -> list[slice]:
    """The blocks of steps, in time order, that every whole-trajectory
    evaluation of pointwise factors takes at once: as many steps as fit in
    LINEARISE_CHUNK_VALUES values per array, and at least one."""
    rows = max(1, LINEARISE_CHUNK_VALUES // traj.grid.num_cells)
    return [slice(start, min(start + rows, traj.steps)) for start in range(0, traj.steps, rows)]


def hold_linearisation(traj: StateTrajectory) -> StateTrajectory:
    """traj holding P'(phi_n) gap_n for every step, formed one step_blocks
    block at a time: bitwise the rows linearise_step gives. The copy shares
    traj's states, controls and operators."""
    prolif_d_gap = np.empty((traj.steps, traj.grid.num_cells))
    for block in step_blocks(traj):
        prolif_d_gap[block] = linearise_step(traj.ops, traj.phi[block], traj.sigma[block],
                                             traj.controls.u[block])[3]
    return replace(traj, held=prolif_d_gap)


def _linearised_steps(traj: StateTrajectory, reverse: bool = False):
    """Yield (n, linearise_step of step n) for every step of traj, in time
    order or reversed, one step_blocks block at a time, with the block's
    rows of traj.held when traj holds them (hold_linearisation)."""
    blocks = step_blocks(traj)
    for block in (reversed(blocks) if reverse else blocks):
        lin = linearise_step(traj.ops, traj.phi[block], traj.sigma[block],
                             traj.controls.u[block],
                             None if traj.held is None else traj.held[block])
        offsets = range(block.stop - block.start)
        for k in (reversed(offsets) if reverse else offsets):
            yield block.start + k, tuple(factor[k] for factor in lin)


def tangent_sweep(traj: StateTrajectory, d_controls: ControlPair) -> TangentTrajectory:
    """Accumulate the tangent over the whole trajectory from zero initial
    data."""
    if d_controls.steps != traj.steps:
        raise FieldShapeError("perturbation step count does not match trajectory")
    ops = traj.ops
    n_cells = traj.grid.num_cells
    xi = np.zeros((traj.steps + 1, n_cells))
    rho = np.zeros((traj.steps + 1, n_cells))
    for n, lin in _linearised_steps(traj):
        xi[n + 1], rho[n + 1] = _tangent_core(ops, lin, xi[n], rho[n],
                                              d_controls.u[n], d_controls.v[n])
    return TangentTrajectory(xi=xi, rho=rho)


def _reverse_sweep(traj: StateTrajectory, seed_phi: np.ndarray, seed_sigma: np.ndarray):
    """The backward loop: transpose every step of traj, last step first.

    seed arrays have shape (steps + 1, cells); row steps starts the sweep,
    row n < steps is added to the state cotangent of slice n, and row 0 (the
    fixed initial slice) is ignored. Yields (n, h(phi_n), phi_solve_bar,
    sigma_solve_bar) for n = steps - 1, ..., 0: the distribution weight from
    step n's linearisation and the step's two transposed implicit solves.
    """
    ops = traj.ops
    p_bar = seed_phi[traj.steps]
    r_bar = seed_sigma[traj.steps]
    for n, lin in _linearised_steps(traj, reverse=True):
        xi_bar, rho_bar, phi_solve_bar, sigma_solve_bar = _adjoint_core(ops, lin, p_bar, r_bar)
        yield n, lin[1], phi_solve_bar, sigma_solve_bar
        p_bar = xi_bar + seed_phi[n]
        r_bar = rho_bar + seed_sigma[n]


def vjp_sweep(traj: StateTrajectory, seed_phi: np.ndarray, seed_sigma: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Transpose of tangent_sweep: pull trajectory cotangents back to controls.

    seed arrays have shape (steps + 1, cells); row 0 pairs with the fixed
    initial slice and is ignored. Returns per-step control cotangents in the
    raw per-slice pairing (no dt weight): u_bar[n] = -h(phi_n) phi_solve_bar
    and v_bar[n] = sigma_solve_bar.
    """
    u_bar = np.empty((traj.steps, traj.grid.num_cells))
    v_bar = np.empty((traj.steps, traj.grid.num_cells))
    for n, h, phi_solve_bar, sigma_solve_bar in _reverse_sweep(traj, seed_phi, seed_sigma):
        np.multiply(phi_solve_bar, -h, out=u_bar[n])
        v_bar[n] = sigma_solve_bar
    return u_bar, v_bar


def adjoint_sweep(traj: StateTrajectory, cost, params: ModelParams,
                  kernel: KernelData) -> AdjointTrajectory:
    """The discrete adjoint system: the reverse sweep seeded by the cost's
    derivative with respect to the state.

    The terminal row carries the final-time tracking data; every earlier row
    the running tracking sources weighted by dt (matching the left-endpoint
    time quadrature of the cost). params and kernel must be the ones traj
    was simulated with (StaleTrajectoryError otherwise).
    """
    traj.require_inputs(params, kernel)
    cost.require_grid(traj)
    steps = traj.steps
    dt = traj.tgrid.dt
    seeds = []
    for states, running, final, weight_q, weight_omega in (
            (traj.phi, cost.phi_q, cost.phi_omega, cost.alpha_q, cost.alpha_omega),
            (traj.sigma, cost.sigma_q, cost.sigma_omega, cost.beta_q, cost.beta_omega)):
        seed = states.copy()
        seed[:steps] -= running
        seed[:steps] *= dt * weight_q
        seed[steps] -= final
        seed[steps] *= weight_omega
        seeds.append(seed)
    p = np.empty_like(seeds[0])
    r = np.empty_like(seeds[1])
    p[steps] = seeds[0][steps]
    r[steps] = seeds[1][steps]
    for n, _, phi_solve_bar, sigma_solve_bar in _reverse_sweep(traj, *seeds):
        np.divide(phi_solve_bar, dt, out=p[n])
        np.divide(sigma_solve_bar, dt, out=r[n])
    return AdjointTrajectory(traj=traj, p=p, r=r)


def duality_gap(traj: StateTrajectory, dh: np.ndarray, dk: np.ndarray,
                seed_phi: np.ndarray, seed_sigma: np.ndarray) -> float:
    """Normalised defect of <seed, JVP(dh, dk)> = <VJP(seed), (dh, dk)>.

    Both sides are evaluated independently (full tangent sweep vs full
    reverse sweep); agreement certifies exact transposition. Both pairings
    leave out the time weight (dt = 1.0).
    """
    vol = traj.grid.cell_volume
    tangent = tangent_sweep(traj, ControlPair(traj.grid, dh, dk))
    forward_side = qt_inner_product(seed_phi[1:], seed_sigma[1:], tangent.xi[1:],
                                    tangent.rho[1:], vol, 1.0)
    del tangent  # released before the reverse sweep
    u_bar, v_bar = vjp_sweep(traj, seed_phi, seed_sigma)
    reverse_side = qt_inner_product(u_bar, v_bar, dh, dk, vol, 1.0)
    return abs(forward_side - reverse_side) / (1.0 + max(abs(forward_side), abs(reverse_side)))
