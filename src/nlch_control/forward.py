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

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldShapeError, InstabilityError, SolverError, StaleTrajectoryError
from .geometry import GridSpec, ScalarField, inner_product, laplacian_array, mass
from .kernels import KernelData, convolve_array
from .physics import ModelParams, require_ellipticity
from .solvers import ShiftedLaplacianSolver, SolverOptions

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

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


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

    def norm_qt(self, dt: float) -> float:
        """Discrete L2(Q_T)^2 norm with left-endpoint time quadrature."""
        vol = self.grid.cell_volume
        total = (np.sum(self.u * self.u) + np.sum(self.v * self.v)) * vol * dt
        return float(np.sqrt(max(total, 0.0)))


class StepOperators:
    """Grid/parameter bundle with the factorised implicit solves.

    Shared by the forward step, its tangent, and the adjoint sweep; the
    implicit operators do not depend on the state or the controls. Obtain it
    through step_operators, which builds it once per discretisation.
    """

    def __init__(self, grid: GridSpec, params: ModelParams, kernel: KernelData,
                 dt: float, options: SolverOptions | None = None):
        if dt <= 0.0:
            raise FieldShapeError(f"dt must be positive, got {dt}")
        self.grid = grid
        self.params = params
        self.kernel = kernel
        self.dt = dt
        self.options = options or SolverOptions()
        self.c = params.A * params.lambda_s + params.B * kernel.a_field.values
        self.phi_solver = ShiftedLaplacianSolver(grid, 1.0 / (dt * self.c), self.options)
        self.sigma_solver = ShiftedLaplacianSolver(
            grid, np.full(grid.num_cells, 1.0 / dt), self.options
        )

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


def step_operators(grid: GridSpec, params: ModelParams, kernel: KernelData, dt: float,
                   options: SolverOptions | None = None) -> StepOperators:
    """The operator bundle for (kernel, params, dt, options), built once.

    The kernel keeps the most recently used bundle together with its key, so
    repeated sweeps of one discretisation share the factorisations; any
    change of params, dt or solver options builds a fresh bundle.
    """
    if kernel.grid != grid:
        raise FieldShapeError("kernel built on a different grid")
    key = (params, dt, options or SolverOptions())
    slot = kernel.operator_slot
    if not slot or slot[0] != key:
        ops = StepOperators(grid, params, kernel, dt, key[2])
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
                              kernel: KernelData) -> np.ndarray:
    return (
        params.A * params.potential.evaluate(phi, 1)
        + params.B * (kernel.a_field.values * phi - convolve_array(kernel, phi))
        - params.chi * sigma
    )


def _step_terms(params: ModelParams, kernel: KernelData, phi: np.ndarray, sigma: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The explicit factors of one step: mu, gap = sigma + chi (1 - phi) - mu,
    P(phi) and h(phi)."""
    mu = _chemical_potential_array(phi, sigma, params, kernel)
    gap = sigma + params.chi * (1.0 - phi) - mu
    prolif = params.proliferation.evaluate(phi, 0)
    distrib = (prolif if params.distribution_is_proliferation
               else params.distribution.evaluate(phi, 0))
    return mu, gap, prolif, distrib


def linearise_step(params: ModelParams, kernel: KernelData, phi: np.ndarray,
                   sigma: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """What the tangent and adjoint of one step need from its base point:
    (gap, P, P', h, h' u, F''), recomputed from the state and the control.

    Uses the forward step's own expressions, so the factors are bitwise the
    ones the forward step used.
    """
    _, gap, prolif, distrib = _step_terms(params, kernel, phi, sigma)
    prolif_d = params.proliferation.evaluate(phi, 1)
    distrib_d = (prolif_d if params.distribution_is_proliferation
                 else params.distribution.evaluate(phi, 1))
    f2 = params.potential.evaluate(phi, 2)
    return gap, prolif, prolif_d, distrib, distrib_d * u, f2


def _step_core(ops: StepOperators, phi: np.ndarray, sigma: np.ndarray,
               u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    params = ops.params
    mu, gap, prolif, distrib = _step_terms(params, ops.kernel, phi, sigma)

    source_phi = prolif * gap - distrib * u
    rhs_phi = ops.lap(mu) + source_phi
    w = ops.solve_phi_increment(rhs_phi)
    phi_new = phi + w

    rhs_sigma = sigma / ops.dt - params.chi * ops.lap(phi_new) - prolif * gap + v
    sigma_new = ops.solve_sigma(rhs_sigma)
    return phi_new, sigma_new


def step(state: State, u_n: ScalarField, v_n: ScalarField, params: ModelParams,
         kernel: KernelData, dt: float,
         solver_options: SolverOptions | None = None,
         blowup_guard: float = DEFAULT_BLOWUP_GUARD) -> State:
    """Advance one time step. Validates the ellipticity gate on entry."""
    require_ellipticity(params, kernel)
    grid = state.grid
    if u_n.grid != grid or v_n.grid != grid:
        raise FieldShapeError("controls on a different grid")
    ops = step_operators(grid, params, kernel, dt, solver_options)
    phi_new, sigma_new = _step_core(ops, state.phi.values, state.sigma.values,
                                    u_n.values, v_n.values)
    _guard_step(0, phi_new, sigma_new, blowup_guard)
    return State(ScalarField(grid, phi_new), ScalarField(grid, sigma_new))


@dataclass(frozen=True)
class StateTrajectory:
    """Discrete trajectory and run monitors.

    phi and sigma have shape (steps + 1, cells); they are the only per-step
    data kept. controls, params and kernel are references to the inputs of
    the run, from which the derivative sweeps recompute each step's factors.
    monitors rows: (step, time, energy, mass_phi, mass_sigma, sup_phi,
    sup_sigma).
    """

    grid: GridSpec
    tgrid: TimeGrid
    phi: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    controls: ControlPair = field(repr=False)
    params: ModelParams
    kernel: KernelData = field(repr=False)
    monitors: tuple[tuple, ...] = field(repr=False)
    solver_options: SolverOptions
    fingerprint: str

    @property
    def steps(self) -> int:
        return self.tgrid.steps

    def state(self, n: int) -> State:
        return State(ScalarField(self.grid, self.phi[n]), ScalarField(self.grid, self.sigma[n]))

    def final_state(self) -> State:
        return self.state(self.steps)

    def require_inputs(self, params: ModelParams, kernel: KernelData | None = None) -> None:
        """Raise StaleTrajectoryError unless params (and the kernel, if given)
        are the ones this trajectory was simulated with."""
        if params != self.params:
            raise StaleTrajectoryError("trajectory was simulated with other model parameters")
        if kernel is not None and (kernel.spec, kernel.grid) != (self.kernel.spec,
                                                                 self.kernel.grid):
            raise StaleTrajectoryError("trajectory was simulated with another kernel")


def trajectory_fingerprint(phi0: np.ndarray, sigma0: np.ndarray, controls: ControlPair,
                           params: ModelParams, kernel: KernelData, tgrid: TimeGrid) -> str:
    """Content hash of everything the trajectory depends on."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(phi0).tobytes())
    digest.update(np.ascontiguousarray(sigma0).tobytes())
    digest.update(controls.u.tobytes())
    digest.update(controls.v.tobytes())
    digest.update(repr(params).encode())
    digest.update(repr(kernel.spec).encode())
    digest.update(repr(kernel.grid).encode())
    digest.update(f"{tgrid.T!r}/{tgrid.steps}".encode())
    return digest.hexdigest()


def simulate(phi0: ScalarField, sigma0: ScalarField, controls: ControlPair,
             params: ModelParams, kernel: KernelData, tgrid: TimeGrid,
             solver_options: SolverOptions | None = None,
             blowup_guard: float = DEFAULT_BLOWUP_GUARD,
             record_monitors: bool = True) -> StateTrajectory:
    """March the state system over the whole time grid.

    Stores the states and monitor rows for the CLI; the trajectory refers to
    (does not copy) controls, params and kernel. Propagates solver failures
    with the failing step index.
    record_monitors=False skips the per-step energy evaluation; optimisation
    inner loops use it, artifact-producing runs keep it on.
    """
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
    options = solver_options or SolverOptions()

    n_cells = grid.num_cells
    phi = np.empty((tgrid.steps + 1, n_cells))
    sigma = np.empty((tgrid.steps + 1, n_cells))
    phi[0] = phi0.values
    sigma[0] = sigma0.values

    monitors: list[tuple] = []

    def monitor_row(n: int) -> tuple:
        state = State(ScalarField(grid, phi[n]), ScalarField(grid, sigma[n]))
        return (
            n,
            n * tgrid.dt,
            free_energy(state, params, kernel),
            mass(state.phi),
            mass(state.sigma),
            state.phi.sup_norm(),
            state.sigma.sup_norm(),
        )

    if record_monitors:
        monitors.append(monitor_row(0))

    if tgrid.steps > 0:
        ops = step_operators(grid, params, kernel, tgrid.dt, options)
        for n in range(tgrid.steps):
            try:
                phi_new, sigma_new = _step_core(
                    ops, phi[n], sigma[n], controls.u[n], controls.v[n]
                )
            except SolverError as exc:
                raise SolverError(f"step {n}: {exc}", exc.iterations, exc.residual) from exc
            _guard_step(n, phi_new, sigma_new, blowup_guard)
            phi[n + 1] = phi_new
            sigma[n + 1] = sigma_new
            if record_monitors:
                monitors.append(monitor_row(n + 1))

    return StateTrajectory(
        grid=grid,
        tgrid=tgrid,
        phi=phi,
        sigma=sigma,
        controls=controls,
        params=params,
        kernel=kernel,
        monitors=tuple(monitors),
        solver_options=options,
        fingerprint=trajectory_fingerprint(phi0.values, sigma0.values, controls,
                                           params, kernel, tgrid),
    )


def free_energy(state: State, params: ModelParams, kernel: KernelData) -> float:
    """Ginzburg-Landau energy of the nonlocal model.

    The pairwise penalty sum_{ij} J(x_i - x_j)(phi_i - phi_j)^2 vol^2 / 4 is
    folded into convolutions: it equals (B/2)(<a phi, phi> - <J*phi, phi>).
    """
    phi, sigma = state.phi, state.sigma
    grid = phi.grid
    bulk = params.A * float(np.sum(params.potential.evaluate(phi.values, 0))) * grid.cell_volume
    a_phi = ScalarField(grid, kernel.a_field.values * phi.values)
    j_phi = ScalarField(grid, convolve_array(kernel, phi.values))
    nonlocal_term = 0.5 * params.B * (inner_product(a_phi, phi) - inner_product(j_phi, phi))
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
        _, gap, prolif, distrib = _step_terms(params, traj.kernel, traj.phi[n], traj.sigma[n])
        source = float(np.sum(prolif * gap - distrib * controls.u[n])) * vol
        scale = max(1.0, abs(rate), abs(source))
        worst = max(worst, abs(rate - source) / scale)
    return worst
