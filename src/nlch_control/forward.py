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

The phi solve is symmetrised through y = c (phi' - phi):
    [diag(1/(dt c)) - Lap] y = Lap mu + S_phi,   phi' = phi + y / c.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FieldShapeError, InstabilityError, StaleTrajectoryError
from .geometry import GridSpec, ScalarField, inner_product, laplacian_array, mass
from .kernels import KernelData, convolve_array
from .physics import ModelParams, require_ellipticity
from .solvers import ShiftedLaplacianSolver

DEFAULT_BLOWUP_GUARD = 10.0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into `steps` intervals."""

    T: float
    steps: int

    def __post_init__(self):
        if not (self.T > 0.0):
            raise FieldShapeError(f"final time must be positive, got {self.T}")
        if self.steps < 0:
            raise FieldShapeError(f"step count must be nonnegative, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.T / self.steps if self.steps > 0 else 0.0


@dataclass(frozen=True)
class State:
    phi: ScalarField
    sigma: ScalarField

    def __post_init__(self):
        if self.phi.grid != self.sigma.grid:
            raise FieldShapeError("phi and sigma live on different grids")

    @property
    def grid(self) -> GridSpec:
        return self.phi.grid


@dataclass(frozen=True)
class ControlPair:
    """Space-time controls, piecewise constant per step: shape (steps, cells)."""

    grid: GridSpec
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    def __post_init__(self):
        u = np.ascontiguousarray(self.u, dtype=np.float64)
        v = np.ascontiguousarray(self.v, dtype=np.float64)
        if u.ndim != 2 or v.ndim != 2 or u.shape != v.shape:
            raise FieldShapeError("controls must be two matching (steps, cells) arrays")
        if u.shape[1] != self.grid.num_cells:
            raise FieldShapeError("control cell count does not match grid")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise FieldShapeError("controls contain non-finite values")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def zeros(cls, grid: GridSpec, steps: int) -> "ControlPair":
        z = np.zeros((steps, grid.num_cells))
        return cls(grid, z, z.copy())

    @property
    def steps(self) -> int:
        return self.u.shape[0]


class StepOperators:
    """Grid/parameter bundle with the factorised implicit solves.

    Shared by the forward step, its tangent, and the adjoint sweep; the
    implicit operators do not depend on the state or the controls. Obtain it
    through step_operators, which builds it once per discretisation.
    """

    def __init__(self, grid: GridSpec, params: ModelParams, kernel: KernelData, dt: float):
        if not (np.isfinite(dt) and dt > 0.0):
            raise FieldShapeError(f"dt must be finite and positive, got {dt}")
        self.grid = grid
        self.params = params
        self.kernel = kernel
        self.dt = dt
        self.c = params.A * params.lambda_s + params.B * kernel.a_field.values
        self.phi_solver = ShiftedLaplacianSolver(grid, 1.0 / (dt * self.c))
        self.sigma_solver = ShiftedLaplacianSolver(grid, np.full(grid.num_cells, 1.0 / dt))

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


def _guard_step(n: int, phi_new: np.ndarray, sigma_new: np.ndarray,
                       blowup_guard: float) -> None:
    """Raise InstabilityError when |phi| passes the guard or a field is not finite."""
    sup = float(np.max(np.abs(phi_new)))
    if sup > blowup_guard:
        raise InstabilityError(
            f"step {n}: |phi| reached {sup:.3g} > guard {blowup_guard:.3g}; reduce dt",
            step=n, sup_norm=sup, guard=blowup_guard,
        )
    if not (np.isfinite(sup) and np.all(np.isfinite(sigma_new))):
        raise InstabilityError(
            f"step {n}: phi or sigma is not finite; reduce dt or check the initial data",
            step=n, sup_norm=sup, guard=blowup_guard,
        )


def chemical_potential(phi: ScalarField, sigma: ScalarField, params: ModelParams,
                       kernel: KernelData) -> ScalarField:
    """mu = A F'(phi) + B (a phi - J*phi) - chi sigma."""
    grid = phi.grid
    if sigma.grid != grid or kernel.grid != grid:
        raise FieldShapeError("chemical_potential inputs on different grids")
    vals = _chemical_potential_array(phi.values, sigma.values, params, kernel)
    return ScalarField(grid, vals)


def _chemical_potential_array(phi: np.ndarray, sigma: np.ndarray, params: ModelParams,
                              kernel: KernelData, j_phi: np.ndarray | None = None
                              ) -> np.ndarray:
    if j_phi is None:
        j_phi = convolve_array(kernel, phi)
    return (
        params.A * params.potential.evaluate(phi, 1)
        + params.B * (kernel.a_field.values * phi - j_phi)
        - params.chi * sigma
    )


def _step_terms(params: ModelParams, kernel: KernelData, phi: np.ndarray, sigma: np.ndarray,
                j_phi: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The explicit factors of one step: mu, gap = sigma + chi (1 - phi) - mu,
    P(phi) and h(phi). j_phi is J*phi when the caller already has it."""
    mu = _chemical_potential_array(phi, sigma, params, kernel, j_phi)
    gap = sigma + params.chi * (1.0 - phi) - mu
    prolif = params.proliferation.evaluate(phi, 0)
    distrib = (prolif if params.distribution_is_proliferation
               else params.distribution.evaluate(phi, 0))
    return mu, gap, prolif, distrib


def linearise_step(ops: StepOperators, phi: np.ndarray, sigma: np.ndarray,
                   u: np.ndarray) -> tuple[np.ndarray, ...]:
    """What the tangent and adjoint of one step need from its base point:
    (gap, P, P', h, h' u, F''), recomputed from the state and the control.

    Uses the forward step's own expressions, so the factors are bitwise the
    ones the forward step used.
    """
    params = ops.params
    _, gap, prolif, distrib = _step_terms(params, ops.kernel, phi, sigma)
    prolif_d = params.proliferation.evaluate(phi, 1)
    distrib_d = (prolif_d if params.distribution_is_proliferation
                 else params.distribution.evaluate(phi, 1))
    f2 = params.potential.evaluate(phi, 2)
    return gap, prolif, prolif_d, distrib, distrib_d * u, f2


def _step_core(ops: StepOperators, phi: np.ndarray, sigma: np.ndarray,
               u: np.ndarray, v: np.ndarray, j_phi: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    params = ops.params
    mu, gap, prolif, distrib = _step_terms(params, ops.kernel, phi, sigma, j_phi)

    source_phi = prolif * gap - distrib * u
    rhs_phi = ops.lap(mu) + source_phi
    w = ops.solve_phi_increment(rhs_phi)
    phi_new = phi + w

    rhs_sigma = sigma / ops.dt - params.chi * ops.lap(phi_new) - prolif * gap + v
    sigma_new = ops.solve_sigma(rhs_sigma)
    return phi_new, sigma_new


@dataclass(frozen=True)
class StateTrajectory:
    """Discrete trajectory and run monitors.

    phi and sigma have shape (steps + 1, cells); they are the only per-step
    data kept. controls and ops (the operator bundle the run stepped with,
    which holds its params, kernel and dt; None for a run of zero steps) are
    references to the run's inputs, from which the derivative sweeps
    recompute each step's factors without being passed them again;
    blowup_guard is the guard the run stepped under, which reruns keep.
    monitors rows: (step, time, energy, mass_phi, mass_sigma, sup_phi,
    sup_sigma).
    """

    grid: GridSpec
    tgrid: TimeGrid
    phi: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    controls: ControlPair = field(repr=False)
    ops: StepOperators | None = field(repr=False)
    blowup_guard: float
    monitors: tuple[tuple, ...] = field(repr=False)

    @property
    def steps(self) -> int:
        return self.tgrid.steps

    def state(self, n: int) -> State:
        return State(ScalarField(self.grid, self.phi[n]), ScalarField(self.grid, self.sigma[n]))

    def require_inputs(self, params: ModelParams, kernel: KernelData | None = None) -> None:
        """Raise StaleTrajectoryError unless params (and the kernel, if given)
        are the ones this trajectory was simulated with; a run of zero steps
        used neither."""
        if self.ops is None:
            return
        if params != self.ops.params:
            raise StaleTrajectoryError("trajectory was simulated with other model parameters")
        if kernel is not None and (kernel.spec, kernel.grid) != (self.ops.kernel.spec,
                                                                 self.ops.kernel.grid):
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
    inner loops use it, artifact-producing runs keep it on.
    """
    # solver_options stays, as None only, until perfbench/workloads.py stops passing it
    if solver_options is not None:
        raise TypeError("simulate: solver_options must be None; there is no solver choice")
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
    # with monitors on, J*phi_n is computed once, for the energy of state n
    # and for the step from it
    j_phi = None

    def monitor_row(n: int) -> tuple:
        state = State(ScalarField(grid, phi[n]), ScalarField(grid, sigma[n]))
        return (
            n,
            n * tgrid.dt,
            free_energy(state, params, kernel, j_phi=j_phi),
            mass(state.phi),
            mass(state.sigma),
            state.phi.sup_norm(),
            state.sigma.sup_norm(),
        )

    if record_monitors:
        j_phi = convolve_array(kernel, phi[0])
        monitors.append(monitor_row(0))

    ops = None
    if tgrid.steps > 0:
        ops = step_operators(grid, params, kernel, tgrid.dt)
        for n in range(tgrid.steps):
            phi_new, sigma_new = _step_core(
                ops, phi[n], sigma[n], controls.u[n], controls.v[n], j_phi
            )
            _guard_step(n, phi_new, sigma_new, blowup_guard)
            phi[n + 1] = phi_new
            sigma[n + 1] = sigma_new
            if record_monitors:
                j_phi = convolve_array(kernel, phi[n + 1])
                monitors.append(monitor_row(n + 1))

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


def free_energy(state: State, params: ModelParams, kernel: KernelData,
                j_phi: np.ndarray | None = None) -> float:
    """Ginzburg-Landau energy of the nonlocal model.

    The pairwise penalty sum_{ij} J(x_i - x_j)(phi_i - phi_j)^2 vol^2 / 4 is
    folded into convolutions: it equals (B/2)(<a phi, phi> - <J*phi, phi>).
    j_phi is the convolution J*phi when the caller already has it.
    """
    phi, sigma = state.phi, state.sigma
    grid = phi.grid
    bulk = params.A * float(np.sum(params.potential.evaluate(phi.values, 0))) * grid.cell_volume
    a_phi = ScalarField(grid, kernel.a_field.values * phi.values)
    if j_phi is None:
        j_phi = convolve_array(kernel, phi.values)
    j_field = ScalarField(grid, j_phi)
    nonlocal_term = 0.5 * params.B * (inner_product(a_phi, phi) - inner_product(j_field, phi))
    coupling = 0.5 * sigma.values * sigma.values + params.chi * sigma.values * (1.0 - phi.values)
    return bulk + nonlocal_term + float(np.sum(coupling)) * grid.cell_volume


def mass_balance_residual(traj: StateTrajectory, controls: ControlPair,
                          params: ModelParams) -> float:
    """Worst relative defect of the discrete integral identity for phi.

    Integrating the phi update over the domain kills every Laplacian term
    (the Neumann stencil has exactly zero column sums), leaving
    d/dt mass(phi) = <P gap - h u, 1>. Returns max_n |defect| / scale.
    """
    if controls.steps != traj.steps:
        raise FieldShapeError("controls and trajectory step counts differ")
    traj.require_inputs(params)
    vol = traj.grid.cell_volume
    dt = traj.tgrid.dt
    worst = 0.0
    for n in range(traj.steps):
        rate = (np.sum(traj.phi[n + 1]) - np.sum(traj.phi[n])) * vol / dt
        _, gap, prolif, distrib = _step_terms(params, traj.ops.kernel, traj.phi[n],
                                              traj.sigma[n])
        source = float(np.sum(prolif * gap - distrib * controls.u[n])) * vol
        scale = max(1.0, abs(rate), abs(source))
        worst = max(worst, abs(rate - source) / scale)
    return worst
