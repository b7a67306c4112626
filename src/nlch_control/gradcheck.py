"""Verification sweeps for the sensitivity machinery: transpose duality
probes, finite-difference checks of the reduced gradient, and the Taylor
remainder order of the tangent. The finite-difference and Taylor checks
share their random directions, and each direction is probed once, so a
perturbed run that both checks read runs once. Shared by the gradcheck CLI
command and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import CostSpec, control_inner_qt, cost, reduced_gradient
from .forward import (DEFAULT_BLOWUP_GUARD, ControlPair, StateTrajectory, TimeGrid,
                      simulate)
from .geometry import ScalarField, qt_inner_product
from .kernels import KernelData
from .physics import ModelParams
from .sensitivity import (TangentTrajectory, adjoint_sweep, duality_gap, hold_linearisation,
                          tangent_sweep)

DUALITY_TOL = 1e-10
FD_PLATEAU_TOL = 1e-5
TAYLOR_ORDER_MIN = 1.9

FD_EPSILONS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
TAYLOR_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class GradcheckResult:
    duality_gaps: tuple[float, ...]
    fd_table: tuple[tuple[float, tuple[float, ...]], ...]  # (eps, per-direction rel err)
    fd_plateau: tuple[float, ...]                          # per-direction min over eps
    taylor_orders: tuple[float, ...]

    @property
    def max_duality_gap(self) -> float:
        """The largest gap, NaN if any gap is NaN (0.0 with no probes)."""
        return float(np.max(self.duality_gaps)) if self.duality_gaps else 0.0

    @property
    def passed(self) -> bool:
        # each rule states what must hold, so a NaN anywhere fails it
        return (all(g <= DUALITY_TOL for g in self.duality_gaps)
                and all(p <= FD_PLATEAU_TOL for p in self.fd_plateau)
                and all(o >= TAYLOR_ORDER_MIN for o in self.taylor_orders))


def _random_controls(rng, grid, steps) -> ControlPair:
    return ControlPair(grid, rng.standard_normal((steps, grid.num_cells)),
                       rng.standard_normal((steps, grid.num_cells)))


def trajectory_qt_norm(xi: np.ndarray, rho: np.ndarray, grid, dt: float) -> float:
    """Space-time L2 norm over the produced slices (rows 1..N)."""
    xi, rho = xi[1:], rho[1:]
    return float(np.sqrt(qt_inner_product(xi, rho, xi, rho, grid.cell_volume, dt)))


def _rerun(base: StateTrajectory, direction: ControlPair, eps: float) -> StateTrajectory:
    """simulate under base's controls + eps direction, with base's initial
    state, operators, time grid and guard. Each perturbed component is
    formed as eps direction, to which the control is added in place."""
    start = base.state(0)
    u = eps * direction.u
    u += base.controls.u
    v = eps * direction.v
    v += base.controls.v
    perturbed = ControlPair(base.grid, u, v)
    return simulate(start.phi, start.sigma, perturbed, base.ops.params, base.ops.kernel,
                    base.tgrid, blowup_guard=base.blowup_guard, record_monitors=False)


def _probe_rerun(base: StateTrajectory, direction: ControlPair, eps: float,
                 spec: CostSpec | None, tangent: TangentTrajectory | None
                 ) -> tuple[float | None, float | None]:
    """Run S(c + eps d) once and read what a probe asks of it: its cost under
    spec, and, given the tangent T(d), the Taylor remainder
    || S(c + eps d) - S(c) - eps T(d) ||_QT (None for what is not asked).
    The cost is read first; the remainder is then formed as (a - b) - c
    inside the run's own state arrays, once the rest of the run (its
    controls) is dropped."""
    traj = _rerun(base, direction, eps)
    value = None if spec is None else cost(traj, spec)
    if tangent is None:
        return value, None
    rem_phi, rem_sigma = traj.phi, traj.sigma
    del traj
    rem_phi -= base.phi
    rem_phi -= eps * tangent.xi
    rem_sigma -= base.sigma
    rem_sigma -= eps * tangent.rho
    return value, trajectory_qt_norm(rem_phi, rem_sigma, base.grid, base.tgrid.dt)


def _probe(base: StateTrajectory, direction: ControlPair, fd: tuple[CostSpec, float] | None,
           taylor: bool) -> tuple[tuple[float, ...], tuple[float, tuple[float, ...]] | None]:
    """Probe S around the controls c of base along one direction d.

    With fd = (spec, <grad, d>), the relative error of that directional
    derivative against central finite differences of cost(S(c)), one entry
    per eps of FD_EPSILONS (empty without fd). With taylor, the observed
    order of || S(c + eps d) - S(c) - eps T(d) || in eps over
    TAYLOR_EPSILONS, as the fitted log-log slope with the raw remainders
    (None without taylor); an exact tangent makes the remainder quadratic.
    Each perturbed run exists only while it is read. The Taylor remainder at
    an eps that the FD also steps by is read from the FD's +eps run, so a
    direction that serves both checks runs 13 sweeps, not 10 + 5.
    """
    tangent = tangent_sweep(base, direction) if taylor else None
    remainders = {}
    errors = []
    if fd is not None:
        spec, directional = fd
        for eps in FD_EPSILONS:
            shared = tangent if eps in TAYLOR_EPSILONS else None
            cost_plus, remainder = _probe_rerun(base, direction, eps, spec, shared)
            if remainder is not None:
                remainders[eps] = remainder
            cost_minus, _ = _probe_rerun(base, direction, -eps, spec, None)
            fd_value = (cost_plus - cost_minus) / (2.0 * eps)
            scale = max(abs(directional), abs(fd_value))
            errors.append(0.0 if scale < 1e-14 else abs(fd_value - directional) / scale)
    if tangent is None:
        return tuple(errors), None
    for eps in TAYLOR_EPSILONS:
        if eps not in remainders:
            remainders[eps] = _probe_rerun(base, direction, eps, None, tangent)[1]
    measured = tuple(remainders[eps] for eps in TAYLOR_EPSILONS)
    log_eps = np.log(np.asarray(TAYLOR_EPSILONS))
    log_rem = np.log(np.maximum(np.asarray(measured), 1e-300))
    slope = float(np.polyfit(log_eps, log_rem, 1)[0])
    return tuple(errors), (slope, measured)


def taylor_remainder_order(base: StateTrajectory, direction: ControlPair
                           ) -> tuple[float, tuple[float, ...]]:
    """Observed order of || S(c + eps d) - S(c) - eps T(d) || in eps, with
    S(c) the trajectory base, over eps in TAYLOR_EPSILONS: the Taylor-only
    probe. Returns the fitted log-log slope and the raw remainders.
    """
    return _probe(base, direction, None, True)[1]


def fd_gradient_errors(base: StateTrajectory, grad: ControlPair, direction: ControlPair,
                       spec: CostSpec) -> tuple[float, ...]:
    """Relative error of the directional derivative <grad, direction> against
    central finite differences of cost(simulate(c)) around the controls c of
    base, one entry per epsilon of FD_EPSILONS: the FD-only probe.
    """
    directional = control_inner_qt(grad, direction, base.tgrid.dt)
    return _probe(base, direction, (spec, directional), False)[0]


def run_gradcheck(phi0: ScalarField, sigma0: ScalarField, controls: ControlPair,
                  spec: CostSpec, params: ModelParams, kernel: KernelData,
                  tgrid: TimeGrid, rng: np.random.Generator,
                  solver_options: None = None,
                  blowup_guard: float = DEFAULT_BLOWUP_GUARD,
                  n_duality: int = 20, n_fd: int = 3, n_taylor: int = 3,
                  corrupt_adjoint: bool = False) -> GradcheckResult:
    """Full verification sweep from one seeded generator.

    The base trajectory is computed once and shared by every probe. The
    duality probes run along its held copy (hold_linearisation), which
    holds P'(phi_n) gap_n in one array; the copy goes after them, and the
    gradient's adjoint sweep, the FD and the Taylor probes run along the
    plain base, as PGD's adjoint does. The gradient is formed after the
    duality probes, which do not read it.

    Then max(n_fd, n_taylor) random directions are drawn, each probed once
    (_probe): direction k serves the FD check if k < n_fd and the Taylor
    check if k < n_taylor, so the Taylor probes run along the FD
    directions, and a Taylor rerun at an eps the FD also steps by is the
    FD's +eps run. Every <grad, d_k> is formed first and the gradient is
    released before the probes; the generator is then set back to its
    state before the first direction, so each probe redraws its direction
    bit for bit. Every forward sweep runs under blowup_guard, as in
    simulate. corrupt_adjoint is a negative-control hook: it biases the
    adjoint gradient by 0.1% plus an offset before the FD comparison, which
    a healthy check must flag.
    """
    # solver_options stays, as None only, until perfbench/workloads.py stops passing it
    if solver_options is not None:
        raise TypeError("run_gradcheck: solver_options must be None; there is no solver choice")
    grid = controls.grid
    steps = tgrid.steps
    base = simulate(phi0, sigma0, controls, params, kernel, tgrid,
                    blowup_guard=blowup_guard, record_monitors=False)

    held = hold_linearisation(base)
    # each duality probe draws its direction u, v, then the seeds, into
    # buffers the duality phase reuses (fresh arrays each probe are trimmed
    # from the heap and faulted in again); FD and Taylor probes draw their
    # direction as they start and drop it when they end
    steps_shape, seed_shape = (steps, grid.num_cells), (steps + 1, grid.num_cells)
    probe = (np.empty(steps_shape), np.empty(steps_shape), np.empty(seed_shape),
             np.empty(seed_shape))
    gaps = [duality_gap(held, *[rng.standard_normal(out=buffer) for buffer in probe])
            for _ in range(n_duality)]
    del probe, held  # the held array goes before the adjoint sweep

    grad = reduced_gradient(adjoint_sweep(base, spec, params, kernel), spec)
    if corrupt_adjoint:
        grad = ControlPair(grid, grad.u * 1.001 + 1e-6, grad.v * 1.001 + 1e-6)
    first_direction = rng.bit_generator.state
    directionals = [control_inner_qt(grad, _random_controls(rng, grid, steps), tgrid.dt)
                    for _ in range(n_fd)]
    del grad  # the probes read only the base trajectory
    rng.bit_generator.state = first_direction

    per_dir_errors, orders = [], []
    for k in range(max(n_fd, n_taylor)):
        errors, taylor = _probe(base, _random_controls(rng, grid, steps),
                                (spec, directionals[k]) if k < n_fd else None, k < n_taylor)
        if k < n_fd:
            per_dir_errors.append(errors)
        if taylor is not None:
            orders.append(taylor[0])
    fd_table = tuple(
        (eps, tuple(per_dir_errors[j][i] for j in range(n_fd)))
        for i, eps in enumerate(FD_EPSILONS)
    )
    fd_plateau = tuple(float(np.min(errs)) for errs in per_dir_errors)

    return GradcheckResult(
        duality_gaps=tuple(gaps),
        fd_table=fd_table,
        fd_plateau=fd_plateau,
        taylor_orders=tuple(orders),
    )
