"""Tracking cost, reduced gradient, box projection, and a monotone spectral
projected gradient method for the therapy optimisation problem.

Conventions: controls are piecewise constant per step, the time quadrature of
every running cost term is the left-endpoint rectangle rule, and gradients
live in the same space-time layout as the controls, so projection and inner
products are index-aligned.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from .errors import FieldShapeError, HypothesisViolationError, InstabilityError, SolverError
from .forward import (DEFAULT_BLOWUP_GUARD, ControlPair, StateTrajectory, TimeGrid,
                      simulate)
from .geometry import GridSpec, ScalarField, cell_array, qt_inner_product
from .kernels import KernelData
from .physics import ModelParams
from .sensitivity import AdjointTrajectory, adjoint_sweep, step_blocks

# Armijo sufficient-decrease constant of the line search
ARMIJO_FRACTION = 1e-4
# a line search whose step fraction alpha halves below this is exhausted
ALPHA_FLOOR = 1e-14
# the weights of CostSpec, in the order of its fields
COST_WEIGHTS = ("alpha_omega", "alpha_q", "beta_omega", "beta_q", "alpha_u", "beta_v")


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Quadratic tracking cost: final-time and running targets for phi and
    sigma plus Tikhonov penalties on both controls.

    Everything after grid is keyword-only: six nonnegative weights (0.0 by
    default) and four finite target arrays on grid (zero by default).
    phi_omega / sigma_omega, the final-time targets, have shape (cells,).
    phi_q / sigma_q are the running targets at the left endpoints
    t_0 .. t_{steps-1}, matching the control layout. Each has shape
    (rows, cells) and broadcasts against the state slices: one row for a
    target constant in time (the default), or one row per step. Compares
    and hashes by identity.
    """

    grid: GridSpec
    _: KW_ONLY
    alpha_omega: float = 0.0
    alpha_q: float = 0.0
    beta_omega: float = 0.0
    beta_q: float = 0.0
    alpha_u: float = 0.0
    beta_v: float = 0.0
    phi_omega: np.ndarray | None = field(default=None, repr=False)
    sigma_omega: np.ndarray | None = field(default=None, repr=False)
    phi_q: np.ndarray | None = field(default=None, repr=False)
    sigma_q: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        failures = [f"{name} must be >= 0, got {w}"
                    for name, w in zip(COST_WEIGHTS, self._weights()) if w < 0.0]
        if failures:
            raise HypothesisViolationError("; ".join(failures))
        for name, ndim in (("phi_omega", 1), ("sigma_omega", 1), ("phi_q", 2), ("sigma_q", 2)):
            values = getattr(self, name)
            if values is None:
                values = np.zeros((1,) * (ndim - 1) + (self.grid.num_cells,))
            object.__setattr__(self, name, cell_array(values, self.grid, name, ndim))

    def _weights(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in COST_WEIGHTS)

    def validate(self):
        """Admissibility gate: at least one weight must be active."""
        if all(w == 0.0 for w in self._weights()):
            raise HypothesisViolationError("cost weights must not all be zero")

    def require_grid(self, traj: StateTrajectory):
        if traj.grid != self.grid:
            raise FieldShapeError("cost targets and trajectory on different grids")
        for name in ("phi_q", "sigma_q"):
            rows = getattr(self, name).shape[0]
            if rows not in (1, traj.steps):
                raise FieldShapeError(f"{name} carries {rows} rows, trajectory has {traj.steps}")


@dataclass(frozen=True, eq=False)
class BoxConstraints:
    """Time-invariant pointwise bounds u_min <= u <= u_max, v_min <= v <= v_max:
    each bound has shape (cells,) and holds at every step. Compares and
    hashes by identity."""

    grid: GridSpec
    u_min: np.ndarray = field(repr=False)
    u_max: np.ndarray = field(repr=False)
    v_min: np.ndarray = field(repr=False)
    v_max: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("u_min", "u_max", "v_min", "v_max"):
            object.__setattr__(self, name, cell_array(getattr(self, name), self.grid, name))
        failures = [f"{c}_min must be <= {c}_max at every cell" for c in "uv"
                    if np.any(getattr(self, f"{c}_min") > getattr(self, f"{c}_max"))]
        if failures:
            raise HypothesisViolationError("; ".join(failures))

    @classmethod
    def constant(cls, grid: GridSpec, u_min: float, u_max: float,
                 v_min: float, v_max: float) -> "BoxConstraints":
        full = lambda val: np.full(grid.num_cells, float(val))
        return cls(grid, full(u_min), full(u_max), full(v_min), full(v_max))


@dataclass(frozen=True)
class OptimizeReport:
    """Iteration history of one projected-gradient run.

    costs[k] is the cost of iterate k; accepted steps make the sequence
    strictly decreasing. step_sizes[k] (the accepted lambda * alpha) and
    linesearch_counts[k] describe the move from iterate k-1 to k (zero for
    the starting iterate). exhausted_trials is the trial count of the line
    search that ended the run "flat_gradient", 0 for any other ending, so the
    run made 1 + sum(linesearch_counts) + exhausted_trials forward sweeps.
    final_adjoint is the cost-seeded reverse sweep the run made at the last
    accepted iterate; its traj is that iterate's trajectory, the only one
    the report holds, and final_controls reads that trajectory's controls.
    """

    costs: tuple[float, ...]
    residuals: tuple[float, ...]
    step_sizes: tuple[float, ...]
    linesearch_counts: tuple[int, ...]
    final_adjoint: AdjointTrajectory = field(repr=False)
    termination: str
    exhausted_trials: int

    @property
    def iterations(self) -> int:
        return len(self.costs) - 1

    @property
    def final_controls(self) -> ControlPair:
        return self.final_adjoint.traj.controls

    @property
    def sweeps(self) -> int:
        """Forward sweeps (the start, every trial) plus one adjoint sweep per
        accepted iterate, the start included."""
        return 1 + sum(self.linesearch_counts) + self.exhausted_trials + self.iterations + 1


@dataclass(frozen=True)
class PgdOptions:
    """PGD stops "converged" once the stationarity residual is <= tol (a
    negative tol never, so the run ends after max_iter iterations or an
    exhausted line search); tau0 is the first spectral step.
    HypothesisViolationError lists every value out of range."""

    tol: float = 1e-4
    max_iter: int = 200
    tau0: float = 1.0

    def __post_init__(self):
        failures = []
        # NaN fails every comparison, so each rule is stated as what must hold
        if np.isnan(self.tol):
            failures.append(f"tol must be a number, got {self.tol}")
        if not self.max_iter >= 0:
            failures.append(f"max_iter must be >= 0, got {self.max_iter}")
        if not 0.0 < self.tau0 < np.inf:
            failures.append(f"tau0 must be finite and > 0, got {self.tau0}")
        if failures:
            raise HypothesisViolationError("; ".join(failures))


def cost(traj: StateTrajectory, spec: CostSpec) -> float:
    """Evaluate the full discrete cost of a trajectory and its controls.

    The running terms are squared one after another in one row-major
    (steps, cells) scratch array, and each is summed over it."""
    spec.require_grid(traj)
    controls = traj.controls
    vol = traj.grid.cell_volume
    dt = traj.tgrid.dt
    steps = traj.steps

    def sq_norm(arr):
        return float(np.sum(arr * arr)) * vol

    total = 0.0
    if spec.alpha_omega != 0.0:
        total += 0.5 * spec.alpha_omega * sq_norm(traj.phi[steps] - spec.phi_omega)
    if spec.beta_omega != 0.0:
        total += 0.5 * spec.beta_omega * sq_norm(traj.sigma[steps] - spec.sigma_omega)
    # (weight, values, target); x - 0.0 is x bitwise, so a control's target is 0.0
    running = [term for term in ((spec.alpha_q, traj.phi[:steps], spec.phi_q),
                                 (spec.beta_q, traj.sigma[:steps], spec.sigma_q),
                                 (spec.alpha_u, controls.u, 0.0),
                                 (spec.beta_v, controls.v, 0.0))
               if term[0] != 0.0]
    scratch = np.empty((steps, traj.grid.num_cells)) if running else None
    for weight, values, target in running:
        np.subtract(values, target, out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        total += 0.5 * weight * dt * float(np.sum(scratch)) * vol
    return total


def reduced_gradient(adj: AdjointTrajectory, spec: CostSpec) -> ControlPair:
    """L2(Q_T) gradient of the reduced cost at the controls of adj.traj:
    g_u[n] = -h(phi_n) p_n + alpha_u u_n,  g_v[n] = r_n + beta_v v_n.
    h(phi) and its products are formed one step_blocks block at a time in
    the rows of g_u."""
    traj = adj.traj
    controls = traj.controls
    distribution = traj.ops.params.distribution
    g_u = np.empty((traj.steps, traj.grid.num_cells))
    for block in step_blocks(traj):
        rows = g_u[block]
        np.negative(distribution.evaluate(traj.phi[block]), out=rows)
        rows *= adj.p[block]
        rows += spec.alpha_u * controls.u[block]
    g_v = spec.beta_v * controls.v
    g_v += adj.r[:traj.steps]
    return ControlPair(traj.grid, g_u, g_v)


def _clamp(values: np.ndarray, lower: np.ndarray, upper: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise clamp of one control component, into out if given (values
    itself may be out); the bounds broadcast over the steps."""
    clamped = np.maximum(values, lower, out=out)
    return np.minimum(clamped, upper, out=clamped)


def project_box(c: ControlPair, box: BoxConstraints) -> ControlPair:
    """Pointwise clamp onto the admissible box (the L2(Q_T)^2 projection)."""
    if box.grid != c.grid:
        raise FieldShapeError("box constraints and controls on different grids")
    return ControlPair(c.grid, _clamp(c.u, box.u_min, box.u_max),
                       _clamp(c.v, box.v_min, box.v_max))


def control_inner_qt(a: ControlPair, b: ControlPair, dt: float) -> float:
    """Discrete L2(Q_T)^2 inner product of two control pairs."""
    return qt_inner_product(a.u, a.v, b.u, b.v, a.grid.cell_volume, dt)


def _unit_step(c: ControlPair, g: ControlPair, box: BoxConstraints):
    """c - P(c - g) per component, each formed in one array."""
    diffs = []
    for c_k, g_k, lower, upper in ((c.u, g.u, box.u_min, box.u_max),
                                   (c.v, g.v, box.v_min, box.v_max)):
        diff = c_k - g_k
        _clamp(diff, lower, upper, out=diff)
        diffs.append(np.subtract(c_k, diff, out=diff))
    return tuple(diffs)


def stationarity_residual(c: ControlPair, g: ControlPair, box: BoxConstraints,
                          dt: float) -> float:
    """Fixed-point defect of the projected-gradient map, || c - P(c - g) ||."""
    diff_u, diff_v = _unit_step(c, g, box)
    return float(np.sqrt(qt_inner_product(diff_u, diff_v, diff_u, diff_v,
                                          c.grid.cell_volume, dt)))


def projection_formula_defect(controls: ControlPair, traj: StateTrajectory,
                              adj: AdjointTrajectory, spec: CostSpec,
                              box: BoxConstraints) -> tuple[float | None, float | None]:
    """Sup-norm defect of the explicit projection characterisation of the
    optimal controls:
        u = min(u_max, max(alpha_u^-1 h(phi) p, u_min)),
        v = min(v_max, max(-beta_v^-1 r, v_min)).
    Returns None for a component whose Tikhonov weight vanishes (the formula
    divides by it). Both targets are formed in one (steps, cells) array,
    h(phi) p one step_blocks block at a time.
    """
    steps = traj.steps
    target = np.empty((steps, traj.grid.num_cells))

    def sup_defect(c_k: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
        """sup |c_k - P(target)|, formed in target."""
        _clamp(target, lower, upper, out=target)
        np.subtract(c_k, target, out=target)
        return float(np.max(np.abs(target, out=target)))

    defect_u = None
    defect_v = None
    if spec.alpha_u > 0.0:
        distribution = traj.ops.params.distribution
        for block in step_blocks(traj):
            rows = target[block]
            np.multiply(distribution.evaluate(traj.phi[block]), adj.p[block], out=rows)
            rows /= spec.alpha_u
        defect_u = sup_defect(controls.u, box.u_min, box.u_max)
    if spec.beta_v > 0.0:
        np.negative(adj.r[:steps], out=target)
        target /= spec.beta_v
        defect_v = sup_defect(controls.v, box.v_min, box.v_max)
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
    strictly decrease. The next lambda is the short Barzilai-Borwein step
    <s, y> / <y, y> in L2(Q_T) (s, y the changes of iterate and gradient),
    clamped to [1e-6 tau0, 1e6 tau0]; 1e6 tau0 when <s, y> <= 0. Its long
    counterpart <s, s> / <s, y> overshoots more often, and every rejected
    trial costs a forward sweep.

    Each iterate stays in the box bitwise (produced by the clamp, never
    perturbed afterwards). A line search that halves alpha below
    ALPHA_FLOOR terminates the run with reason "flat_gradient" rather than
    raising; its trial count is the report's exhausted_trials. An accepted
    iterate k (k = 0 is the start) with a non-finite cost or residual raises
    SolverError naming k. Every forward sweep runs under blowup_guard, as in
    simulate; a trial that trips it raises InstabilityError naming the
    iteration, the trial, its step lambda alpha and the box.

    Between iterations the run holds the iterate, its gradient and adjoint
    (whose trajectory is the iterate's); a line search adds d and one trial
    with its trajectory. Once a trial is accepted, the old iterate's adjoint
    and trajectory are dropped before the trial's adjoint sweep, so that
    sweep runs beside the old iterate's controls and gradient only.

    callback, if given, receives (iteration, cost, residual, step_size,
    linesearch_count, iterate) after the starting point and every accepted
    step.
    """
    # solver_options stays, as None only, until perfbench/workloads.py stops passing it
    if solver_options is not None:
        raise TypeError("pgd_optimize: solver_options must be None; there is no solver choice")
    spec.validate()
    opts = opts or PgdOptions()
    dt = tgrid.dt
    vol = box.grid.cell_volume

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
                              f"{resid!r} is not finite")
        return adj, g, resid

    def line_search(k: int, c: ControlPair, g: ControlPair, lam: float, j_val: float):
        """(alpha, trials, trajectory, cost) of the accepted trial for
        iterate k; alpha is None when the search is exhausted."""
        d_u = _clamp(c.u - lam * g.u, box.u_min, box.u_max) - c.u
        d_v = _clamp(c.v - lam * g.v, box.v_min, box.v_max) - c.v
        slope = qt_inner_product(g.u, g.v, d_u, d_v, vol, dt)
        alpha = 1.0
        trials = 0
        while alpha >= ALPHA_FLOOR:
            trials += 1
            try:
                traj, j_trial = run(ControlPair(
                    c.grid, _clamp(c.u + alpha * d_u, box.u_min, box.u_max),
                    _clamp(c.v + alpha * d_v, box.v_min, box.v_max)))
            except InstabilityError as exc:
                # the cause's reason ("step n: ..."), without its advice after ";"
                reason = str(exc).partition(";")[0]
                raise InstabilityError(
                    f"PGD iteration {k}, line-search trial {trials}: the sweep of the trial "
                    f"at step lambda*alpha = {lam * alpha:.3g} within the box "
                    f"u in [{box.u_min.min():.3g}, {box.u_max.max():.3g}], "
                    f"v in [{box.v_min.min():.3g}, {box.v_max.max():.3g}] stopped at "
                    f"{reason}; lower tau0 or narrow the box",
                    step=exc.step, sup_norm=exc.sup_norm, guard=exc.guard) from exc
            if j_trial <= j_val + ARMIJO_FRACTION * alpha * slope and j_trial < j_val:
                return alpha, trials, traj, j_trial
            del traj  # released before the next trial's sweep
            alpha *= 0.5
        return None, trials, None, None

    c = project_box(c0, box)
    traj, j_val = run(c)
    adj, g, resid = gradient(0, traj, j_val)

    costs = [j_val]
    residuals = [resid]
    step_sizes = [0.0]
    ls_counts = [0]
    termination = "max_iterations"
    exhausted_trials = 0
    lam = opts.tau0

    if callback is not None:
        callback(0, j_val, resid, 0.0, 0, c)

    for _ in range(opts.max_iter):
        if resid <= opts.tol:
            termination = "converged"
            break
        alpha, ls_count, traj, j_trial = line_search(len(costs), c, g, lam, j_val)
        if alpha is None:
            termination = "flat_gradient"
            exhausted_trials = ls_count
            break
        del adj  # the old iterate's adjoint and trajectory, before the new sweep
        adj, g_new, resid = gradient(len(costs), traj, j_trial)
        trial = traj.controls
        costs.append(j_trial)
        residuals.append(resid)
        step_sizes.append(lam * alpha)
        ls_counts.append(ls_count)
        # the short spectral step from s = trial - c and y = g_new - g
        y_u, y_v = g_new.u - g.u, g_new.v - g.v
        sy = qt_inner_product(trial.u - c.u, trial.v - c.v, y_u, y_v, vol, dt)
        yy = qt_inner_product(y_u, y_v, y_u, y_v, vol, dt)
        del y_u, y_v  # released before the next line search
        lam = (1e6 * opts.tau0 if sy <= 0.0
               else min(max(sy / yy, 1e-6 * opts.tau0), 1e6 * opts.tau0))
        c, j_val, g = trial, j_trial, g_new
        if callback is not None:
            callback(len(costs) - 1, j_val, resid, step_sizes[-1], ls_count, c)

    if termination == "max_iterations" and resid <= opts.tol:
        termination = "converged"

    return OptimizeReport(
        costs=tuple(costs),
        residuals=tuple(residuals),
        step_sizes=tuple(step_sizes),
        linesearch_counts=tuple(ls_counts),
        final_adjoint=adj,
        termination=termination,
        exhausted_trials=exhausted_trials,
    )


def projection_report(report: OptimizeReport, spec: CostSpec, box: BoxConstraints) -> dict:
    """What a run's optimality verdict rests on, as optimize writes it to
    projection_report.json: its ending, its deterministic sweep counters,
    and per control component the projection-formula defect, the sup-norm
    unit-step residual sup|c - P(c - g)| at the final iterate, and the bound
    that residual puts on the defect. For a box, |c - P(c - t g)| / t does
    not increase in t and |c - P(c - t g)| does not decrease (Calamai &
    More, Math. Program. 39, 1987, Lemma 2.2); the defect is the case
    t = 1 / alpha, so it is at most max(1, 1 / alpha) times the residual.
    Defect and bound are skipped for a component whose Tikhonov weight alpha
    is zero. Reads the report's final adjoint; runs no sweep.
    """
    adj = report.final_adjoint
    controls = report.final_controls
    defects = projection_formula_defect(controls, adj.traj, adj, spec, box)
    residuals = [float(np.max(np.abs(diff)))
                 for diff in _unit_step(controls, reduced_gradient(adj, spec), box)]
    verdict = {
        "termination": report.termination,
        "iterations": report.iterations,
        "final_cost": report.costs[-1],
        "final_residual": report.residuals[-1],
        "linesearch_trials": sum(report.linesearch_counts),
        "exhausted_trials": report.exhausted_trials,
        "sweeps": report.sweeps,
    }
    for (label, weight_name, weight), defect, resid in zip(
            (("u", "alpha_u", spec.alpha_u), ("v", "beta_v", spec.beta_v)), defects, residuals):
        skipped = f"skipped ({weight_name} = 0)"
        verdict[f"unit_step_residual_{label}"] = resid
        verdict[f"projection_defect_{label}"] = skipped if defect is None else defect
        verdict[f"defect_bound_{label}"] = (skipped if defect is None
                                            else max(1.0, 1.0 / weight) * resid)
    return verdict
