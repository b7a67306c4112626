"""The optimality verdict where the box binds.

PGD runs at chi = 0.3 on manufactured targets whose controls lie past the
box [-1, 1], so part of each optimal control sits on a bound and the
projection in the first-order condition takes part. (Criterion 5 checks the
same formula at a strict-interior optimum, where it never does.)

For a box, |c - P(c - t g)| / t does not increase in t (Calamai & More,
Math. Program. 39, 1987, Lemma 2.2), pointwise. At t = 1 / alpha the left
side is alpha times the projection-formula defect, so with alpha <= 1 the
sup-norm defect is at most the sup-norm unit-step residual
|c - P(c - g)| divided by alpha: the bound that "converged" puts on it,
which projection_report.json states as defect_bound_u / defect_bound_v.
"""

import numpy as np
import pytest

from nlch_control import (BoxConstraints, ControlPair, CostSpec, GridSpec, KernelSpec,
                          ModelParams, PgdOptions, ScalarField, TimeGrid, build_kernel,
                          pgd_optimize, project_box, projection_formula_defect,
                          reduced_gradient, simulate)
from nlch_control.control import projection_report

from conftest import smooth_phi0

ALPHA = 1e-2  # alpha_u = beta_v
# the residual and the defect are formed from values of magnitude about 1
# (the box) and divided by alpha: each is exact to a few ulps of 1 / alpha
ROUNDING_SLACK = 4 * np.finfo(float).eps / ALPHA


def _bump(grid: GridSpec, center: float, width: float) -> np.ndarray:
    """Gaussian bump at x = center (and mid-height on a 2D grid), flat."""
    mesh = grid.mesh()
    centers = (center, 0.5)[:grid.dim]
    r2 = sum((x - c) ** 2 for x, c in zip(mesh, centers))
    return np.exp(-r2 / (2.0 * width * width)).reshape(-1)


# (cells, kernel amplitude, T, steps, u target amplitude): the 1D grids take
# the dense and the LU path; the 2D grid needs a stronger kernel to pass the
# ellipticity gate at chi = 0.3, and a larger u target to reach the box there
CASES = [((32,), 4.0, 0.3, 24, 3.0), ((300,), 4.0, 0.3, 24, 3.0),
         ((32, 32), 20.0, 0.1, 10, 20.0)]


@pytest.mark.parametrize("cells,amplitude,T,steps,u_amplitude", CASES,
                         ids=["dense-1d-32", "lu-1d-300", "2d-32x32"])
def test_projection_defect_where_the_box_binds(cells, amplitude, T, steps, u_amplitude):
    grid = GridSpec(cells, (1.0,) * len(cells))
    kernel = build_kernel(KernelSpec("gaussian", amplitude, 0.2), grid)
    params = ModelParams(A=0.5, B=1.0, chi=0.3)
    tgrid = TimeGrid(T, steps)
    phi0 = smooth_phi0(grid)
    sigma0 = ScalarField.constant(grid, 0.3)
    shape = (steps, grid.num_cells)
    star = simulate(phi0, sigma0, ControlPair(
        grid, np.broadcast_to(u_amplitude * _bump(grid, 0.3, 0.1), shape),
        np.broadcast_to(-3.0 * _bump(grid, 0.7, 0.15), shape)), params, kernel, tgrid)
    spec = CostSpec(grid, alpha_omega=1.0, alpha_q=1.0, beta_omega=1.0, beta_q=1.0,
                    alpha_u=ALPHA, beta_v=ALPHA,
                    phi_omega=star.phi[steps], sigma_omega=star.sigma[steps],
                    phi_q=star.phi[:steps], sigma_q=star.sigma[:steps])
    box = BoxConstraints.constant(grid, -1.0, 1.0, -1.0, 1.0)
    iterates = []
    report = pgd_optimize(ControlPair.zeros(grid, steps), box, spec, params, kernel, tgrid,
                          phi0, sigma0, opts=PgdOptions(tol=1e-9, max_iter=400),
                          callback=lambda k, j, r, t, ls, c: iterates.append(c))
    assert report.termination == "converged"
    # every iterate lies in the box bit for bit: clamping it changes nothing
    for c in iterates:
        clamped = project_box(c, box)
        assert np.array_equal(c.u, clamped.u) and np.array_equal(c.v, clamped.v)

    final = report.final_controls
    adj = report.final_adjoint
    g = reduced_gradient(adj, spec)
    unit_step = project_box(ControlPair(grid, final.u - g.u, final.v - g.v), box)
    defects = projection_formula_defect(final, adj.traj, adj, spec, box)
    # projection_report.json states the same residual, defect and bound
    verdict = projection_report(report, spec, box)
    for label, c, lower, upper, step, defect in (
            ("u", final.u, box.u_min, box.u_max, unit_step.u, defects[0]),
            ("v", final.v, box.v_min, box.v_max, unit_step.v, defects[1])):
        active = np.mean((c == lower) | (c == upper))
        assert 0.0 < active < 1.0
        residual = float(np.max(np.abs(c - step)))
        assert verdict[f"unit_step_residual_{label}"] == residual
        assert verdict[f"projection_defect_{label}"] == defect
        assert verdict[f"defect_bound_{label}"] == max(1.0, 1.0 / ALPHA) * residual
        assert defect <= verdict[f"defect_bound_{label}"] + ROUNDING_SLACK
