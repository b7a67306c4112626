"""Tracking cost, reduced gradient, box projection, and a monotone spectral
projected gradient method for the therapy optimisation problem.

Conventions: controls are piecewise constant per step, the time quadrature of
every running cost term is the left-endpoint rectangle rule, and gradients
live in the same space-time layout as the controls, so projection and inner
products are index-aligned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ChemotaxisScopeError, FieldShapeError,
                     HypothesisViolationError, SolverError)
from .forward import (DEFAULT_BLOWUP_GUARD, ControlPair, StateTrajectory, TimeGrid,
                      simulate)
from .geometry import GridSpec, ScalarField
from .kernels import KernelData
from .physics import ModelParams, require_ellipticity
from .sensitivity import AdjointTrajectory, adjoint_sweep

# Armijo sufficient-decrease constant of the line search
ARMIJO_FRACTION = 1e-4
# a line search whose step fraction alpha halves below this is exhausted
ALPHA_FLOOR = 1e-14


@dataclass(frozen=True)
class CostSpec:
    """Quadratic tracking cost: final-time and running targets for phi and
    sigma plus Tikhonov penalties on both controls.

    phi_q / sigma_q are sampled at the left endpoints t_0 .. t_{steps-1},
    matching the control layout.
    """

    alpha_omega: float
    alpha_q: float
    beta_omega: float
    beta_q: float
    alpha_u: float
    beta_v: float
    phi_omega: ScalarField
    sigma_omega: ScalarField
    phi_q: np.ndarray = field(repr=False)
    sigma_q: np.ndarray = field(repr=False)

    def __post_init__(self):
        weights = (self.alpha_omega, self.alpha_q, self.beta_omega,
                   self.beta_q, self.alpha_u, self.beta_v)
        if any(w < 0.0 for w in weights):
            raise HypothesisViolationError("cost weights must be nonnegative")
        grid = self.phi_omega.grid
        if self.sigma_omega.grid != grid:
            raise FieldShapeError("cost targets on different grids")
        phi_q = np.ascontiguousarray(self.phi_q, dtype=np.float64)
        sigma_q = np.ascontiguousarray(self.sigma_q, dtype=np.float64)
        for name, arr in (("phi_q", phi_q), ("sigma_q", sigma_q)):
            if arr.ndim != 2 or arr.shape[1] != grid.num_cells:
                raise FieldShapeError(f"{name} must have shape (steps, cells)")
            if not np.all(np.isfinite(arr)):
                raise FieldShapeError(f"{name} contains non-finite values")
        if phi_q.shape[0] != sigma_q.shape[0]:
            raise FieldShapeError("phi_q and sigma_q disagree on step count")
        object.__setattr__(self, "phi_q", phi_q)
        object.__setattr__(self, "sigma_q", sigma_q)

    @property
    def grid(self) -> GridSpec:
        return self.phi_omega.grid

    @property
    def steps(self) -> int:
        return self.phi_q.shape[0]

    def all_weights_zero(self) -> bool:
        return (self.alpha_omega == 0.0 and self.alpha_q == 0.0 and self.beta_omega == 0.0
                and self.beta_q == 0.0 and self.alpha_u == 0.0 and self.beta_v == 0.0)

    def validate(self):
        """Admissibility gate: at least one weight must be active."""
        if self.all_weights_zero():
            raise HypothesisViolationError("cost weights must not all be zero")

    def require_grid(self, traj: StateTrajectory):
        if traj.grid != self.grid:
            raise FieldShapeError("cost targets and trajectory on different grids")
        if self.steps != traj.steps:
            raise FieldShapeError(
                f"cost targets carry {self.steps} steps, trajectory has {traj.steps}"
            )

    @classmethod
    def tracking(cls, grid: GridSpec, steps: int, *, alpha_omega=0.0, alpha_q=0.0,
                 beta_omega=0.0, beta_q=0.0, alpha_u=0.0, beta_v=0.0,
                 phi_omega: ScalarField | None = None,
                 sigma_omega: ScalarField | None = None,
                 phi_q: np.ndarray | None = None,
                 sigma_q: np.ndarray | None = None) -> "CostSpec":
        zero_field = ScalarField.constant(grid, 0.0)
        zeros_qt = np.zeros((steps, grid.num_cells))
        return cls(
            alpha_omega=alpha_omega, alpha_q=alpha_q, beta_omega=beta_omega,
            beta_q=beta_q, alpha_u=alpha_u, beta_v=beta_v,
            phi_omega=phi_omega if phi_omega is not None else zero_field,
            sigma_omega=sigma_omega if sigma_omega is not None else zero_field,
            phi_q=phi_q if phi_q is not None else zeros_qt,
            sigma_q=sigma_q if sigma_q is not None else zeros_qt.copy(),
        )


@dataclass(frozen=True)
class BoxConstraints:
    """Pointwise bounds per step: u_min <= u <= u_max, v_min <= v <= v_max."""

    grid: GridSpec
    u_min: np.ndarray = field(repr=False)
    u_max: np.ndarray = field(repr=False)
    v_min: np.ndarray = field(repr=False)
    v_max: np.ndarray = field(repr=False)

    def __post_init__(self):
        arrays = {}
        shape = None
        for name in ("u_min", "u_max", "v_min", "v_max"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 2 or arr.shape[1] != self.grid.num_cells:
                raise FieldShapeError(f"{name} must have shape (steps, cells)")
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise FieldShapeError("box bound shapes differ")
            if not np.all(np.isfinite(arr)):
                raise FieldShapeError(f"{name} contains non-finite values")
            arrays[name] = arr
        if np.any(arrays["u_min"] > arrays["u_max"]):
            raise HypothesisViolationError("box constraints need u_min <= u_max pointwise")
        if np.any(arrays["v_min"] > arrays["v_max"]):
            raise HypothesisViolationError("box constraints need v_min <= v_max pointwise")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @classmethod
    def constant(cls, grid: GridSpec, steps: int, u_min: float, u_max: float,
                 v_min: float, v_max: float) -> "BoxConstraints":
        full = lambda val: np.full((steps, grid.num_cells), float(val))
        return cls(grid, full(u_min), full(u_max), full(v_min), full(v_max))

    @property
    def steps(self) -> int:
        return self.u_min.shape[0]


@dataclass(frozen=True)
class OptimizeReport:
    """Iteration history of one projected-gradient run.

    costs[k] is the cost of iterate k; accepted steps make the sequence
    strictly decreasing. step_sizes[k] (the accepted lambda * alpha) and
    linesearch_counts[k] describe the move from iterate k-1 to k (zero for
    the starting iterate). final_adjoint is the adjoint of the last accepted
    iterate; its traj is that iterate's trajectory.
    """

    costs: tuple[float, ...]
    residuals: tuple[float, ...]
    step_sizes: tuple[float, ...]
    linesearch_counts: tuple[int, ...]
    final_controls: ControlPair
    final_adjoint: AdjointTrajectory = field(repr=False)
    termination: str

    @property
    def iterations(self) -> int:
        return len(self.costs) - 1


@dataclass(frozen=True)
class PgdOptions:
    tol: float = 1e-4
    max_iter: int = 200
    tau0: float = 1.0


def cost(traj: StateTrajectory, spec: CostSpec) -> float:
    """Evaluate the full discrete cost of a trajectory and its controls."""
    spec.require_grid(traj)
    controls = traj.controls
    vol = traj.grid.cell_volume
    dt = traj.tgrid.dt
    steps = traj.steps

    def sq_norm(arr):
        return float(np.sum(arr * arr)) * vol

    total = 0.0
    if spec.alpha_omega != 0.0:
        total += 0.5 * spec.alpha_omega * sq_norm(traj.phi[steps] - spec.phi_omega.values)
    if spec.beta_omega != 0.0:
        total += 0.5 * spec.beta_omega * sq_norm(traj.sigma[steps] - spec.sigma_omega.values)
    if spec.alpha_q != 0.0:
        diff = traj.phi[:steps] - spec.phi_q
        total += 0.5 * spec.alpha_q * dt * float(np.sum(diff * diff)) * vol
    if spec.beta_q != 0.0:
        diff = traj.sigma[:steps] - spec.sigma_q
        total += 0.5 * spec.beta_q * dt * float(np.sum(diff * diff)) * vol
    if spec.alpha_u != 0.0:
        total += 0.5 * spec.alpha_u * dt * float(np.sum(controls.u * controls.u)) * vol
    if spec.beta_v != 0.0:
        total += 0.5 * spec.beta_v * dt * float(np.sum(controls.v * controls.v)) * vol
    return total


def reduced_gradient(adj: AdjointTrajectory, spec: CostSpec) -> ControlPair:
    """L2(Q_T) gradient of the reduced cost at the controls of adj.traj:
    g_u[n] = -h(phi_n) p_n + alpha_u u_n,  g_v[n] = r_n + beta_v v_n."""
    traj = adj.traj
    spec.require_grid(traj)
    controls = traj.controls
    steps = traj.steps
    distrib = traj.ops.params.distribution.evaluate(traj.phi[:steps], 0)
    g_u = -distrib * adj.p[:steps] + spec.alpha_u * controls.u
    g_v = adj.r[:steps] + spec.beta_v * controls.v
    return ControlPair(traj.grid, g_u, g_v)


def project_box(c: ControlPair, box: BoxConstraints) -> ControlPair:
    """Pointwise clamp onto the admissible box (the L2(Q_T)^2 projection)."""
    if box.grid != c.grid or box.steps != c.steps:
        raise FieldShapeError("box constraints do not match control layout")
    u = np.minimum(np.maximum(c.u, box.u_min), box.u_max)
    v = np.minimum(np.maximum(c.v, box.v_min), box.v_max)
    return ControlPair(c.grid, u, v)


def control_inner_qt(a: ControlPair, b: ControlPair, dt: float) -> float:
    """Discrete L2(Q_T)^2 inner product of two control pairs."""
    vol = a.grid.cell_volume
    return float((np.sum(a.u * b.u) + np.sum(a.v * b.v)) * vol * dt)


def stationarity_residual(c: ControlPair, g: ControlPair, box: BoxConstraints,
                          dt: float) -> float:
    """Fixed-point defect of the projected-gradient map, || c - P(c - g) ||."""
    stepped = ControlPair(c.grid, c.u - g.u, c.v - g.v)
    projected = project_box(stepped, box)
    diff = ControlPair(c.grid, c.u - projected.u, c.v - projected.v)
    return float(np.sqrt(max(control_inner_qt(diff, diff, dt), 0.0)))


def projection_formula_defect(controls: ControlPair, traj: StateTrajectory,
                              adj: AdjointTrajectory, spec: CostSpec,
                              box: BoxConstraints) -> tuple[float | None, float | None]:
    """Sup-norm defect of the explicit projection characterisation of the
    optimal controls:
        u = min(u_max, max(alpha_u^-1 h(phi) p, u_min)),
        v = min(v_max, max(-beta_v^-1 r, v_min)).
    Returns None for a component whose Tikhonov weight vanishes (the formula
    divides by it).
    """
    defect_u = None
    defect_v = None
    steps = traj.steps
    if spec.alpha_u > 0.0:
        distrib = traj.ops.params.distribution.evaluate(traj.phi[:steps], 0)
        target = distrib * adj.p[:steps] / spec.alpha_u
        clamped = np.minimum(np.maximum(target, box.u_min), box.u_max)
        defect_u = float(np.max(np.abs(controls.u - clamped)))
    if spec.beta_v > 0.0:
        target = -adj.r[:steps] / spec.beta_v
        clamped = np.minimum(np.maximum(target, box.v_min), box.v_max)
        defect_v = float(np.max(np.abs(controls.v - clamped)))
    return defect_u, defect_v


def pgd_optimize(c0: ControlPair, box: BoxConstraints, spec: CostSpec,
                 params: ModelParams, kernel: KernelData, tgrid: TimeGrid,
                 phi0: ScalarField, sigma0: ScalarField,
                 opts: PgdOptions | None = None,
                 solver_options: None = None,
                 blowup_guard: float = DEFAULT_BLOWUP_GUARD,
                 callback=None) -> OptimizeReport:
    """Monotone spectral projected gradient (Birgin, Martinez & Raydan, SIAM
    J. Optim. 2000).

    From iterate c with gradient g and spectral step lambda (tau0 at first),
    trials project_box(c + alpha d), d = P(c - lambda g) - c, alpha = 1, 1/2,
    1/4, ..., are accepted when J(trial) <= J(c) + 1e-4 alpha <g, d> (the
    Armijo constant ARMIJO_FRACTION) and J(trial) < J(c), so accepted costs
    strictly decrease. The next lambda is the Barzilai-Borwein step
    <s, s> / <s, y> in L2(Q_T) (s, y the changes of iterate and gradient),
    clamped to [1e-6 tau0, 1e6 tau0]; 1e6 tau0 when <s, y> <= 0.

    Each iterate stays in the box bitwise (produced by the clamp, never
    perturbed afterwards). A line search that halves alpha below
    ALPHA_FLOOR terminates the run with reason "flat_gradient" rather than
    raising. An accepted iterate k (k = 0 is the start) with a non-finite
    cost or residual raises SolverError naming k. Every forward sweep runs
    under blowup_guard, as in simulate.

    callback, if given, receives (iteration, cost, residual, step_size,
    linesearch_count, iterate) after the starting point and every accepted
    step.
    """
    # solver_options stays, as None only, until perfbench/workloads.py stops passing it
    if solver_options is not None:
        raise TypeError("pgd_optimize: solver_options must be None; there is no solver choice")
    if params.chi != 0.0:
        raise ChemotaxisScopeError("optimal control requires chi = 0")
    require_ellipticity(params, kernel)
    spec.validate()
    opts = opts or PgdOptions()
    dt = tgrid.dt

    def run(controls: ControlPair):
        traj = simulate(phi0, sigma0, controls, params, kernel, tgrid,
                        blowup_guard=blowup_guard, record_monitors=False)
        return traj, cost(traj, spec)

    def gradient(k: int, traj: StateTrajectory, j_val: float):
        """Adjoint, gradient and stationarity residual of accepted iterate k."""
        adj = adjoint_sweep(traj, spec, params, kernel)
        g = reduced_gradient(adj, spec)
        resid = stationarity_residual(traj.controls, g, box, dt)
        if not (np.isfinite(j_val) and np.isfinite(resid)):
            raise SolverError(f"PGD iterate {k}: cost {j_val!r} or stationarity residual "
                              f"{resid!r} is not finite", iterations=k, residual=resid)
        return adj, g, resid

    c = project_box(c0, box)
    traj, j_val = run(c)
    adj, g, resid = gradient(0, traj, j_val)

    costs = [j_val]
    residuals = [resid]
    step_sizes = [0.0]
    ls_counts = [0]
    termination = "max_iterations"
    lam = opts.tau0

    if callback is not None:
        callback(0, j_val, resid, 0.0, 0, c)

    for _ in range(opts.max_iter):
        if resid <= opts.tol:
            termination = "converged"
            break
        target = project_box(ControlPair(c.grid, c.u - lam * g.u, c.v - lam * g.v), box)
        d = ControlPair(c.grid, target.u - c.u, target.v - c.v)
        slope = control_inner_qt(g, d, dt)
        alpha = 1.0
        ls_count = 0
        while alpha >= ALPHA_FLOOR:
            trial = project_box(ControlPair(c.grid, c.u + alpha * d.u, c.v + alpha * d.v), box)
            ls_count += 1
            traj_trial, j_trial = run(trial)
            if j_trial <= j_val + ARMIJO_FRACTION * alpha * slope and j_trial < j_val:
                break
            alpha *= 0.5
        else:
            termination = "flat_gradient"
            break
        adj_new, g_new, resid = gradient(len(costs), traj_trial, j_trial)
        costs.append(j_trial)
        residuals.append(resid)
        step_sizes.append(lam * alpha)
        ls_counts.append(ls_count)
        s = ControlPair(c.grid, trial.u - c.u, trial.v - c.v)
        y = ControlPair(c.grid, g_new.u - g.u, g_new.v - g.v)
        sy = control_inner_qt(s, y, dt)
        lam = 1e6 * opts.tau0 if sy <= 0.0 else min(
            max(control_inner_qt(s, s, dt) / sy, 1e-6 * opts.tau0), 1e6 * opts.tau0)
        c, j_val, g, adj = trial, j_trial, g_new, adj_new
        if callback is not None:
            callback(len(costs) - 1, j_val, resid, step_sizes[-1], ls_count, c)

    if termination == "max_iterations" and resid <= opts.tol:
        termination = "converged"

    return OptimizeReport(
        costs=tuple(costs),
        residuals=tuple(residuals),
        step_sizes=tuple(step_sizes),
        linesearch_counts=tuple(ls_counts),
        final_controls=c,
        final_adjoint=adj,
        termination=termination,
    )
