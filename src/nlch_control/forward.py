"""Semi-implicit time integrator for the tumour/nutrient state system.

One step of the scheme, from (phi, sigma) with piecewise-constant controls
(u, v) on the step:

    mu    = A F'(phi) + B (a phi - J*phi) - chi sigma        (explicit)
    S_phi = P(phi) (sigma + chi (1 - phi) - mu) - h(phi) u   (explicit)
    (phi' - phi)/dt = Lap[ mu + c (phi' - phi) ] + S_phi,    c = A lambda_s + B a
    (sigma' - sigma)/dt = Lap sigma' - chi Lap phi' - P(phi) gap + v

The implicit shift c (stabilisation plus the nonlocal weight) is what the
scheme treats implicitly; F' and the convolution stay explicit, so each
update is one SPD solve and the step map is linear in the unknown. That
linearity is what later makes the discrete tangent and adjoint exact
transposes of each other.

Every field here is a flat float64 array of grid.num_cells values, the
monitor rows and free_energy included; a ScalarField only enters (simulate's
phi0 and sigma0) or leaves (StateTrajectory.state).

The phi solve is symmetrised through y = c (phi' - phi):
    [diag(1/(dt c)) - Lap] y = Lap mu + S_phi,   phi' = phi + y / c.

A term whose coefficient is zero is not evaluated in a step. With chi = 0,
the model without chemotaxis, the step and the linearisation skip
-chi sigma, +chi (1 - phi) and -chi Lap phi'. Each is then a signed zero,
whose addition leaves every nonzero value as it is, so the results keep
their bits; with chi > 0 every expression is evaluated in the order written
above. P(phi) gap is formed once per step.

_step_terms forms the explicit terms (mu, P(phi) gap, S_phi), which
mass_balance_residual reads too, and implicit_solves the two updates, which
the tangent step runs on the terms' linearisations.

StepOperators holds every operator a step applies. On a 1D grid of at most
geometry.DENSE_MAX_CELLS cells each one is a dense matrix (the Laplacian L
here, the convolution on the kernel, the two solves as symmetrised
inverses), so a step is a handful of matvecs and elementwise arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FieldShapeError, InstabilityError, StaleTrajectoryError
from .geometry import (GridSpec, ScalarField, cell_array, inner_product, laplacian_array,
                       mass, uses_dense_operators)
from .kernels import KernelData, convolve_array
from .physics import POTENTIAL, ModelParams, rates_with_slopes, require_ellipticity
from .solvers import ShiftedLaplacianSolver, dense_laplacian_matrix

DEFAULT_BLOWUP_GUARD = 10.0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into `steps` intervals."""

    T: float
    steps: int

    def __post_init__(self):
        failures = []
        if not self.T > 0.0:
            failures.append(f"final time must be positive, got {self.T}")
        if not self.steps >= 1:
            failures.append(f"step count must be positive, got {self.steps}")
        if failures:
            raise FieldShapeError("; ".join(failures))

    @property
    def dt(self) -> float:
        return self.T / self.steps


@dataclass(frozen=True)
class State:
    phi: ScalarField
    sigma: ScalarField

    def __post_init__(self):
        if self.phi.grid != self.sigma.grid:
            raise FieldShapeError("phi and sigma live on different grids")


@dataclass(frozen=True, eq=False)
class ControlPair:
    """Space-time controls, piecewise constant per step: shape (steps, cells).

    No code writes into a control's arrays. A float64 array is kept as given,
    not copied, so a control constant in time can be a read-only view of one
    row of cells broadcast over the steps (np.broadcast_to, stride 0 along
    the steps): (steps, cells) in shape, one row in memory, and its
    finiteness is checked over that row alone. Compares and hashes by
    identity.
    """

    grid: GridSpec
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    def __post_init__(self):
        u = cell_array(self.u, self.grid, "control u", ndim=2)
        v = cell_array(self.v, self.grid, "control v", ndim=2)
        if u.shape != v.shape:
            raise FieldShapeError(f"controls u {u.shape} and v {v.shape} differ in shape")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def zeros(cls, grid: GridSpec, steps: int) -> "ControlPair":
        z = np.broadcast_to(np.zeros(grid.num_cells), (steps, grid.num_cells))
        return cls(grid, z, z)

    @property
    def steps(self) -> int:
        return self.u.shape[0]


class StepOperators:
    """Grid/parameter bundle with the factorised implicit solves.

    Shared by the forward step, its tangent, and the adjoint sweep; the
    implicit operators do not depend on the state or the controls. Obtain it
    through step_operators, which builds it once per discretisation. L is
    the dense Laplacian on grids with dense operators, None otherwise (the
    stencil applies).
    """

    def __init__(self, grid: GridSpec, params: ModelParams, kernel: KernelData, dt: float):
        if not (np.isfinite(dt) and dt > 0.0):
            raise FieldShapeError(f"dt must be finite and positive, got {dt}")
        self.grid = grid
        self.params = params
        self.kernel = kernel
        self.dt = dt
        self.c = params.A * params.lambda_s + params.B * kernel.a
        self.phi_solver = ShiftedLaplacianSolver(grid, 1.0 / (dt * self.c))
        self.sigma_solver = ShiftedLaplacianSolver(grid, np.full(grid.num_cells, 1.0 / dt))
        self.L = dense_laplacian_matrix(grid) if uses_dense_operators(grid) else None

    def solve_phi_increment(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I/dt - Lap diag(c)) w = rhs through the SPD form."""
        return self.phi_solver.solve(rhs) / self.c

    def solve_phi_increment_transpose(self, w_bar: np.ndarray) -> np.ndarray:
        """Transpose of solve_phi_increment: K^-1 (w_bar / c)."""
        return self.phi_solver.solve(w_bar / self.c)

    def solve_sigma(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I/dt - Lap) x = rhs; the operator is its own transpose."""
        return self.sigma_solver.solve(rhs)

    def lap(self, x: np.ndarray) -> np.ndarray:
        if self.L is not None:
            return self.L @ x
        return laplacian_array(self.grid, x)

    def conv(self, x: np.ndarray) -> np.ndarray:
        return convolve_array(self.kernel, x)


def step_operators(grid: GridSpec, params: ModelParams, kernel: KernelData,
                   dt: float) -> StepOperators:
    """The operator bundle for (kernel, params, dt), built once.

    The kernel keeps the most recently used bundle together with its key
    (params, dt), so repeated sweeps of one discretisation share the
    factorisations; any change of params or dt builds a fresh bundle.
    """
    if kernel.grid != grid:
        raise FieldShapeError("kernel built on a different grid")
    key = (params, dt)
    slot = kernel.operator_slot
    if not slot or slot[0] != key:
        ops = StepOperators(grid, params, kernel, dt)
        slot[:] = [key, ops]
    return slot[1]


def require_guard(blowup_guard: float) -> None:
    """FieldShapeError unless blowup_guard > 0 (inf switches the guard off)."""
    if not blowup_guard > 0.0:
        raise FieldShapeError(f"blowup guard must be > 0, got {blowup_guard}")


def _guard_step(n: int, phi_new: np.ndarray, sigma_new: np.ndarray,
                       blowup_guard: float) -> None:
    """Raise InstabilityError when |phi| passes the guard or a field is not finite."""
    sup = float(np.abs(phi_new).max())
    if sup > blowup_guard:
        raise InstabilityError(
            f"step {n}: |phi| reached {sup:.3g} > guard {blowup_guard:.3g}; reduce dt",
            step=n, sup_norm=sup, guard=blowup_guard,
        )
    if not (np.isfinite(sup) and np.isfinite(sigma_new).all()):
        raise InstabilityError(
            f"step {n}: phi or sigma is not finite; reduce dt or check the initial data",
            step=n, sup_norm=sup, guard=blowup_guard,
        )


def _mu_and_gap(params: ModelParams, kernel: KernelData, phi: np.ndarray, sigma: np.ndarray,
                j_phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mu = A F'(phi) + B (a phi - J*phi) - chi sigma and gap = sigma +
    chi (1 - phi) - mu, given j_phi = J*phi; the chi terms only when chi is
    non-zero."""
    mu = params.A * POTENTIAL.evaluate(phi, 1) + params.B * (kernel.a * phi - j_phi)
    if params.chi:
        mu -= params.chi * sigma
        return mu, sigma + params.chi * (1.0 - phi) - mu
    return mu, sigma - mu


def _step_terms(params: ModelParams, kernel: KernelData, phi: np.ndarray, sigma: np.ndarray,
                u: np.ndarray, j_phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The explicit terms of one step, given j_phi = J*phi: mu, P(phi) gap
    and the phi source S_phi = P(phi) gap - h(phi) u; the one place the
    source is formed."""
    mu, gap = _mu_and_gap(params, kernel, phi, sigma, j_phi)
    prolif = params.proliferation.evaluate(phi)
    distrib = (prolif if params.distribution_is_proliferation
               else params.distribution.evaluate(phi))
    prolif_gap = prolif * gap
    return mu, prolif_gap, prolif_gap - distrib * u


def linearise_step(ops: StepOperators, phi: np.ndarray, sigma: np.ndarray, u: np.ndarray,
                   prolif_d_gap: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """What the tangent and adjoint of a block of steps need from their base
    points: (P, h, h' u, P' gap, A F'' + B a), recomputed from the states and
    the controls; the one place these factors are formed. P' gap alone reads
    the convolution J*phi; it is taken from prolif_d_gap, the block's rows
    of a held trajectory's array (sensitivity.hold_linearisation), if given.

    phi, sigma and u are the rows of the block, shape (rows, cells); the
    factors come back in that shape. Uses the forward step's own expressions
    and convolves each row alone, as the forward step does, so every row of
    a block is bitwise the factors the forward step used.
    """
    params = ops.params
    prolif, prolif_d, distrib, distrib_d = rates_with_slopes(params, phi)
    if prolif_d_gap is None:
        j_phi = np.array([ops.conv(row) for row in phi])
        prolif_d_gap = prolif_d * _mu_and_gap(params, ops.kernel, phi, sigma, j_phi)[1]
    return (prolif, distrib, distrib_d * u, prolif_d_gap,
            params.A * POTENTIAL.evaluate(phi, 2) + params.B * ops.kernel.a)


def implicit_solves(ops: StepOperators, phi: np.ndarray, sigma: np.ndarray, mu: np.ndarray,
                    source: np.ndarray, prolif_gap: np.ndarray, v: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """phi' and sigma' of a step from its explicit terms, the chi term only
    when chi is non-zero. The step map is linear in them, so the tangent
    step passes their linearisations."""
    phi_new = phi + ops.solve_phi_increment(ops.lap(mu) + source)
    rhs_sigma = sigma / ops.dt
    if ops.params.chi:
        rhs_sigma -= ops.params.chi * ops.lap(phi_new)
    rhs_sigma -= prolif_gap
    rhs_sigma += v
    return phi_new, ops.solve_sigma(rhs_sigma)


def _step_core(ops: StepOperators, phi: np.ndarray, sigma: np.ndarray,
               u: np.ndarray, v: np.ndarray, j_phi: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """One step from (phi, sigma) under (u, v), given j_phi = J*phi."""
    mu, prolif_gap, source = _step_terms(ops.params, ops.kernel, phi, sigma, u, j_phi)
    return implicit_solves(ops, phi, sigma, mu, source, prolif_gap, v)


@dataclass(frozen=True, eq=False)
class StateTrajectory:
    """Discrete trajectory and run monitors; compares and hashes by identity.

    phi and sigma have shape (steps + 1, cells); they are the only per-step
    data simulate keeps. controls and ops (the operator bundle the run
    stepped with, which holds its params, kernel and dt) are references to
    the run's inputs, from which the derivative sweeps recompute each step's
    factors without being passed them again;
    blowup_guard is the guard the run stepped under, which reruns keep.
    monitors rows: (step, time, energy, mass_phi, mass_sigma, sup_phi,
    sup_sigma).
    held is None from simulate. sensitivity.hold_linearisation returns a
    copy of the trajectory (the same states, controls and operators) whose
    held is P'(phi_n) gap_n, shape (steps, cells): the one factor of its
    linearisation that reads the convolution J*phi_n, which linearise_step
    takes from there for every sweep along that copy.
    """

    grid: GridSpec
    tgrid: TimeGrid
    phi: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    controls: ControlPair = field(repr=False)
    ops: StepOperators = field(repr=False)
    blowup_guard: float
    monitors: tuple[tuple, ...] = field(repr=False)
    held: np.ndarray | None = field(default=None, repr=False)

    @property
    def steps(self) -> int:
        return self.tgrid.steps

    def state(self, n: int) -> State:
        return State(ScalarField(self.grid, self.phi[n]), ScalarField(self.grid, self.sigma[n]))

    def require_inputs(self, params: ModelParams, kernel: KernelData | None = None) -> None:
        """Raise StaleTrajectoryError unless params (and the kernel, if given)
        are the ones this trajectory was simulated with."""
        if params != self.ops.params:
            raise StaleTrajectoryError("trajectory was simulated with other model parameters")
        if kernel is not None and kernel != self.ops.kernel:
            raise StaleTrajectoryError("trajectory was simulated with another kernel")


def simulate(phi0: ScalarField, sigma0: ScalarField, controls: ControlPair,
             params: ModelParams, kernel: KernelData, tgrid: TimeGrid,
             solver_options: None = None,
             blowup_guard: float = DEFAULT_BLOWUP_GUARD,
             record_monitors: bool = True) -> StateTrajectory:
    """March the state system over the whole time grid.

    Stores the states and monitor rows for the CLI; the trajectory refers to
    (does not copy) the controls and the operator bundle it stepped with.
    record_monitors=False skips the per-step energy evaluation; optimisation
    inner loops use it, artifact-producing runs keep it on. blowup_guard
    must pass require_guard, checked before the first step.
    """
    # solver_options stays, as None only, until perfbench/workloads.py stops passing it
    if solver_options is not None:
        raise TypeError("simulate: solver_options must be None; there is no solver choice")
    require_guard(blowup_guard)
    require_ellipticity(params, kernel)
    grid = phi0.grid
    if sigma0.grid != grid:
        raise FieldShapeError("initial data on different grids")
    if controls.grid != grid:
        raise FieldShapeError("controls on a different grid")
    if controls.steps != tgrid.steps:
        raise FieldShapeError(
            f"controls carry {controls.steps} steps, time grid has {tgrid.steps}"
        )

    n_cells = grid.num_cells
    phi = np.empty((tgrid.steps + 1, n_cells))
    sigma = np.empty((tgrid.steps + 1, n_cells))
    phi[0] = phi0.values
    sigma[0] = sigma0.values

    monitors: list[tuple] = []
    vol = grid.cell_volume

    def monitor_row(n: int, j_phi: np.ndarray) -> tuple:
        return (
            n,
            n * tgrid.dt,
            free_energy(phi[n], sigma[n], params, kernel, j_phi=j_phi),
            mass(phi[n], vol),
            mass(sigma[n], vol),
            float(np.max(np.abs(phi[n]))),
            float(np.max(np.abs(sigma[n]))),
        )

    ops = step_operators(grid, params, kernel, tgrid.dt)
    for n in range(tgrid.steps):
        # J*phi_n, once: for the step from state n and for its energy
        j_phi = convolve_array(kernel, phi[n])
        if record_monitors:
            monitors.append(monitor_row(n, j_phi))
        phi_new, sigma_new = _step_core(
            ops, phi[n], sigma[n], controls.u[n], controls.v[n], j_phi
        )
        _guard_step(n, phi_new, sigma_new, blowup_guard)
        phi[n + 1] = phi_new
        sigma[n + 1] = sigma_new
    if record_monitors:
        monitors.append(monitor_row(tgrid.steps, convolve_array(kernel, phi[tgrid.steps])))

    return StateTrajectory(
        grid=grid,
        tgrid=tgrid,
        phi=phi,
        sigma=sigma,
        controls=controls,
        ops=ops,
        blowup_guard=blowup_guard,
        monitors=tuple(monitors),
    )


def free_energy(phi: np.ndarray, sigma: np.ndarray, params: ModelParams, kernel: KernelData,
                j_phi: np.ndarray | None = None) -> float:
    """Ginzburg-Landau energy of the nonlocal model at the state (phi, sigma),
    two fields (cells,) on the kernel's grid.

    The pairwise penalty sum_{ij} J(x_i - x_j)(phi_i - phi_j)^2 vol^2 / 4 is
    folded into convolutions: it equals (B/2)(<a phi, phi> - <J*phi, phi>).
    j_phi is the convolution J*phi when the caller already has it.
    """
    vol = kernel.grid.cell_volume
    bulk = params.A * float(np.sum(POTENTIAL.evaluate(phi, 0))) * vol
    if j_phi is None:
        j_phi = convolve_array(kernel, phi)
    nonlocal_term = 0.5 * params.B * (inner_product(kernel.a * phi, phi, vol)
                                      - inner_product(j_phi, phi, vol))
    coupling = 0.5 * sigma * sigma + params.chi * sigma * (1.0 - phi)
    return bulk + nonlocal_term + float(np.sum(coupling)) * vol


def mass_balance_residual(traj: StateTrajectory, controls: ControlPair,
                          params: ModelParams) -> float:
    """Worst relative defect of the discrete integral identity for phi.

    Integrating the phi update over the domain kills every Laplacian term
    (the Neumann stencil has exactly zero column sums), leaving
    d/dt mass(phi) = <S_phi, 1>, S_phi from _step_terms. Returns
    max_n |defect| / scale. controls and params must be the ones traj was
    simulated with (StaleTrajectoryError otherwise).
    """
    if controls is not traj.controls:
        raise StaleTrajectoryError("trajectory was simulated with other controls")
    traj.require_inputs(params)
    vol = traj.grid.cell_volume
    dt = traj.tgrid.dt
    worst = 0.0
    for n in range(traj.steps):
        rate = (np.sum(traj.phi[n + 1]) - np.sum(traj.phi[n])) * vol / dt
        _, _, source = _step_terms(params, traj.ops.kernel, traj.phi[n], traj.sigma[n],
                                   controls.u[n], traj.ops.conv(traj.phi[n]))
        source = float(np.sum(source)) * vol
        scale = max(1.0, abs(rate), abs(source))
        worst = max(worst, abs(rate - source) / scale)
    return worst
