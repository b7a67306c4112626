"""Verification sweeps for the sensitivity machinery: transpose duality
probes, finite-difference checks of the reduced gradient, and the Taylor
remainder order of the tangent. Shared by the gradcheck CLI command and the
acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import CostSpec, control_inner_qt, cost, reduced_gradient
from .forward import (DEFAULT_BLOWUP_GUARD, ControlPair, StateTrajectory, TimeGrid,
                      simulate)
from .geometry import ScalarField
from .kernels import KernelData
from .physics import ModelParams
from .sensitivity import adjoint_sweep, duality_gap, tangent_sweep

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
    taylor_remainders: tuple[tuple[float, ...], ...] = field(repr=False, default=())

    @property
    def max_duality_gap(self) -> float:
        return max(self.duality_gaps) if self.duality_gaps else 0.0

    @property
    def passed(self) -> bool:
        if self.max_duality_gap > DUALITY_TOL:
            return False
        if any(p > FD_PLATEAU_TOL for p in self.fd_plateau):
            return False
        if any(o < TAYLOR_ORDER_MIN for o in self.taylor_orders):
            return False
        return True


def _random_controls(rng, grid, steps, scale=1.0) -> ControlPair:
    return ControlPair(
        grid,
        scale * rng.standard_normal((steps, grid.num_cells)),
        scale * rng.standard_normal((steps, grid.num_cells)),
    )


def trajectory_qt_norm(xi: np.ndarray, rho: np.ndarray, grid, dt: float) -> float:
    """Space-time L2 norm over the produced slices (rows 1..N)."""
    vol = grid.cell_volume
    return float(np.sqrt((np.sum(xi[1:] ** 2) + np.sum(rho[1:] ** 2)) * vol * dt))


def _rerun(base: StateTrajectory, controls: ControlPair) -> StateTrajectory:
    """simulate with base's initial state, operators, time grid and guard."""
    start = base.state(0)
    return simulate(start.phi, start.sigma, controls, base.ops.params, base.ops.kernel,
                    base.tgrid, blowup_guard=base.blowup_guard, record_monitors=False)


def taylor_remainder_order(base: StateTrajectory, direction: ControlPair
                           ) -> tuple[float, tuple[float, ...]]:
    """Observed order of || S(c + eps d) - S(c) - eps T(d) || in eps, with
    S(c) the trajectory base, over eps in TAYLOR_EPSILONS.

    An exact tangent makes the remainder quadratic; the fitted log-log slope
    is returned together with the raw remainders.
    """
    tangent = tangent_sweep(base, direction)
    controls = base.controls
    grid = base.grid
    remainders = []
    for eps in TAYLOR_EPSILONS:
        perturbed = ControlPair(grid, controls.u + eps * direction.u,
                                controls.v + eps * direction.v)
        traj = _rerun(base, perturbed)
        rem_phi = traj.phi - base.phi - eps * tangent.xi
        rem_sigma = traj.sigma - base.sigma - eps * tangent.rho
        remainders.append(trajectory_qt_norm(rem_phi, rem_sigma, grid, base.tgrid.dt))
    log_eps = np.log(np.asarray(TAYLOR_EPSILONS))
    log_rem = np.log(np.maximum(np.asarray(remainders), 1e-300))
    slope = float(np.polyfit(log_eps, log_rem, 1)[0])
    return slope, tuple(remainders)


def fd_gradient_errors(base: StateTrajectory, grad: ControlPair, direction: ControlPair,
                       spec: CostSpec) -> tuple[float, ...]:
    """Relative error of the directional derivative <grad, direction> against
    central finite differences of cost(simulate(c)) around the controls c of
    base, one entry per epsilon of FD_EPSILONS.
    """
    controls = base.controls
    grid = base.grid
    directional = control_inner_qt(grad, direction, base.tgrid.dt)

    errors = []
    for eps in FD_EPSILONS:
        plus = ControlPair(grid, controls.u + eps * direction.u,
                           controls.v + eps * direction.v)
        minus = ControlPair(grid, controls.u - eps * direction.u,
                            controls.v - eps * direction.v)
        fd = (cost(_rerun(base, plus), spec) - cost(_rerun(base, minus), spec)) / (2.0 * eps)
        scale = max(abs(directional), abs(fd))
        if scale < 1e-14:
            errors.append(0.0)
        else:
            errors.append(abs(fd - directional) / scale)
    return tuple(errors)


def run_gradcheck(phi0: ScalarField, sigma0: ScalarField, controls: ControlPair,
                  spec: CostSpec, params: ModelParams, kernel: KernelData,
                  tgrid: TimeGrid, rng: np.random.Generator,
                  solver_options: None = None,
                  blowup_guard: float = DEFAULT_BLOWUP_GUARD,
                  n_duality: int = 20, n_fd: int = 3, n_taylor: int = 3,
                  corrupt_adjoint: bool = False) -> GradcheckResult:
    """Full verification sweep from one seeded generator.

    The base trajectory, its adjoint and the reduced gradient are computed
    once and shared by every duality, finite-difference and Taylor probe;
    every forward sweep runs under blowup_guard, as in simulate.
    corrupt_adjoint is a negative-control hook: it biases the adjoint
    gradient by 0.1% plus an offset before the FD comparison, which a healthy
    check must flag.
    """
    # solver_options stays, as None only, until perfbench/workloads.py stops passing it
    if solver_options is not None:
        raise TypeError("run_gradcheck: solver_options must be None; there is no solver choice")
    grid = controls.grid
    steps = tgrid.steps
    base = simulate(phi0, sigma0, controls, params, kernel, tgrid,
                    blowup_guard=blowup_guard, record_monitors=False)
    grad = reduced_gradient(adjoint_sweep(base, spec, params, kernel), spec)
    if corrupt_adjoint:
        grad = ControlPair(grid, grad.u * 1.001 + 1e-6, grad.v * 1.001 + 1e-6)

    gaps = []
    for _ in range(n_duality):
        d = _random_controls(rng, grid, steps)
        seed_phi = rng.standard_normal((steps + 1, grid.num_cells))
        seed_sigma = rng.standard_normal((steps + 1, grid.num_cells))
        gaps.append(duality_gap(base, d.u, d.v, seed_phi, seed_sigma))

    fd_dirs = [_random_controls(rng, grid, steps) for _ in range(n_fd)]
    per_dir_errors = [fd_gradient_errors(base, grad, d, spec) for d in fd_dirs]
    fd_table = tuple(
        (eps, tuple(per_dir_errors[j][i] for j in range(n_fd)))
        for i, eps in enumerate(FD_EPSILONS)
    )
    fd_plateau = tuple(min(errs) for errs in per_dir_errors)

    orders = []
    remainders = []
    for _ in range(n_taylor):
        d = _random_controls(rng, grid, steps)
        slope, rems = taylor_remainder_order(base, d)
        orders.append(slope)
        remainders.append(rems)

    return GradcheckResult(
        duality_gaps=tuple(gaps),
        fd_table=fd_table,
        fd_plateau=fd_plateau,
        taylor_orders=tuple(orders),
        taylor_remainders=tuple(remainders),
    )
