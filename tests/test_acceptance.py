"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS/FAIL line. Desk scale throughout (1D 32-64 cells, 2D grids
around 32x32, horizons of 20-100 steps).
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import nlch_control
from nlch_control import (BoxConstraints, ControlPair, CostSpec, GridSpec,
                          KernelSpec, ModelParams, PgdOptions, ScalarField,
                          TimeGrid, adjoint_sweep, build_kernel, duality_gap,
                          ellipticity_margin, inner_product,
                          mass, mass_balance_residual,
                          pgd_optimize, project_box, projection_formula_defect,
                          reduced_gradient, simulate)
from nlch_control.cli import EXIT_OK, main
from nlch_control.control import control_inner_qt
from nlch_control.forward import step_operators
from nlch_control.geometry import DENSE_MAX_CELLS
from nlch_control.gradcheck import fd_gradient_errors, taylor_remainder_order
from nlch_control.kernels import convolve_array
from nlch_control.physics import ProliferationSpec

from conftest import (convolution_adjoint_check, direct_convolution_oracle, laplacian_neumann,
                      random_controls, smooth_phi0)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{title}]: PASS")


def _grids():
    return [GridSpec((32,), (1.0,)), GridSpec((16, 12), (1.0, 0.75))]


def test_criterion_1_discrete_operator_exactness():
    # the operators the scheme applies: the dense Laplacian and convolution
    # matrix on the 1D grid, the stencil and FFT on the 2D one
    rng = np.random.default_rng(101)
    with criterion(1, "discrete operator exactness"):
        for grid in _grids():
            spec = KernelSpec("gaussian", 2.0, 0.2)
            kernel = build_kernel(spec, grid)
            lap = step_operators(grid, ModelParams(A=0.5, B=1.0, chi=0.0), kernel, 0.01).lap
            vol = grid.cell_volume
            for _ in range(50):
                f = ScalarField(grid, rng.standard_normal(grid.num_cells))
                g = ScalarField(grid, rng.standard_normal(grid.num_cells))
                lap_f = lap(f.values)
                lap_g = lap(g.values)
                stencil = laplacian_neumann(f).values
                assert np.max(np.abs(lap_f - stencil)) \
                    <= 1e-12 * max(1.0, np.max(np.abs(stencil)))
                assert abs(mass(lap_f, vol)) <= 1e-13 * max(1.0, np.max(np.abs(f.values)))
                gap_sym = abs(inner_product(lap_f, g.values, vol)
                              - inner_product(f.values, lap_g, vol))
                assert gap_sym <= 1e-12 * max(1.0, abs(inner_product(lap_f, g.values, vol)))
                assert convolution_adjoint_check(kernel, f, g) <= 1e-12
                fast = convolve_array(kernel, f.values)
                oracle = direct_convolution_oracle(spec, grid, f.values)
                assert np.max(np.abs(fast - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))


def test_criterion_2_conservation_dissipation():
    rng = np.random.default_rng(102)
    grid = GridSpec((64,), (1.0,))
    kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.2), grid)
    with criterion(2, "conservation and dissipation"):
        # gradient-flow configuration: reactions off, no sources
        params_gf = ModelParams(A=0.5, B=1.0, chi=0.0,
                                proliferation=ProliferationSpec("constant_zero"))
        tgrid = TimeGrid(0.5, 100)
        phi0 = smooth_phi0(grid, amplitude=0.8)
        traj = simulate(phi0, ScalarField.constant(grid, 0.2),
                        ControlPair.zeros(grid, 100), params_gf, kernel, tgrid)
        energies = np.array([row[2] for row in traj.monitors])
        masses = np.array([row[3] for row in traj.monitors])
        scale = max(1.0, abs(energies[0]))
        assert np.all(np.diff(energies) <= 1e-12 * scale)
        assert np.max(np.abs(masses - masses[0])) <= 1e-13 * max(1.0, abs(masses[0]))

        # reactions on: discrete mass balance identity
        params = ModelParams(A=0.5, B=1.0, chi=0.0)
        controls = random_controls(rng, grid, 100, scale=0.3)
        traj_r = simulate(phi0, ScalarField.constant(grid, 0.3), controls,
                          params, kernel, tgrid)
        assert mass_balance_residual(traj_r, controls, params) <= 1e-12


def test_criterion_3_frechet_order_and_duality():
    rng = np.random.default_rng(103)
    grid = GridSpec((32,), (1.0,))
    kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.2), grid)
    params = ModelParams(A=0.5, B=1.0, chi=0.0)
    tgrid = TimeGrid(0.25, 20)
    phi0 = smooth_phi0(grid)
    sigma0 = ScalarField.constant(grid, 0.3)
    controls = random_controls(rng, grid, 20)
    with criterion(3, "Frechet order and transpose duality"):
        traj = simulate(phi0, sigma0, controls, params, kernel, tgrid)
        for _ in range(3):
            direction = random_controls(rng, grid, 20, scale=1.0)
            order, _ = taylor_remainder_order(traj, direction)
            assert order >= 1.9
        for _ in range(20):
            d = random_controls(rng, grid, 20, scale=1.0)
            seed_phi = rng.standard_normal((21, grid.num_cells))
            seed_sigma = rng.standard_normal((21, grid.num_cells))
            assert duality_gap(traj, d.u, d.v, seed_phi, seed_sigma) <= 1e-10


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(104)
    grid = GridSpec((32,), (1.0,))
    kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.2), grid)
    params = ModelParams(A=0.5, B=1.0, chi=0.0)
    tgrid = TimeGrid(0.5, 40)
    phi0 = smooth_phi0(grid)
    sigma0 = ScalarField.constant(grid, 0.3)
    controls = random_controls(rng, grid, 40)
    spec = CostSpec(grid, alpha_omega=1.0, alpha_q=0.5, beta_omega=0.3,
                             beta_q=0.2, alpha_u=1e-2, beta_v=1e-2,
                             phi_omega=np.full(grid.num_cells, -0.2),
                             sigma_omega=np.full(grid.num_cells, 0.1))
    with criterion(4, "adjoint gradient vs finite differences"):
        start = time.monotonic()
        base = simulate(phi0, sigma0, controls, params, kernel, tgrid, record_monitors=False)
        grad = reduced_gradient(adjoint_sweep(base, spec, params, kernel), spec)
        for _ in range(5):
            direction = random_controls(rng, grid, 40, scale=1.0)
            errors = fd_gradient_errors(base, grad, direction, spec)
            assert min(errors) <= 1e-5
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


def _manufactured_problem(grid, kernel, params, tgrid, alpha_u, beta_v):
    x = grid.cell_centers()[0]
    phi0 = smooth_phi0(grid)
    sigma0 = ScalarField.constant(grid, 0.3)
    steps = tgrid.steps
    u_star = 0.3 * np.exp(-((x - 0.3) ** 2) / (2 * 0.1 ** 2))
    v_star = -0.2 * np.exp(-((x - 0.7) ** 2) / (2 * 0.15 ** 2))
    c_star = ControlPair(grid, np.tile(u_star, (steps, 1)), np.tile(v_star, (steps, 1)))
    traj_star = simulate(phi0, sigma0, c_star, params, kernel, tgrid)
    spec = CostSpec(
        grid, alpha_omega=1.0, alpha_q=1.0, beta_omega=1.0, beta_q=1.0,
        alpha_u=alpha_u, beta_v=beta_v,
        phi_omega=traj_star.phi[steps],
        sigma_omega=traj_star.sigma[steps],
        phi_q=traj_star.phi[:steps].copy(),
        sigma_q=traj_star.sigma[:steps].copy(),
    )
    return phi0, sigma0, spec


def test_criterion_5_optimality_condition_fidelity():
    grid = GridSpec((32,), (1.0,))
    kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.2), grid)
    params = ModelParams(A=0.5, B=1.0, chi=0.0)
    tgrid = TimeGrid(0.3, 24)
    phi0, sigma0, spec = _manufactured_problem(grid, kernel, params, tgrid, 1e-2, 1e-2)
    box = BoxConstraints.constant(grid, -1.0, 1.0, -1.0, 1.0)
    with criterion(5, "projection formula fidelity at convergence"):
        report = pgd_optimize(ControlPair.zeros(grid, 24), box, spec, params, kernel,
                              tgrid, phi0, sigma0, opts=PgdOptions(tol=1e-9, max_iter=400))
        assert report.termination == "converged"
        final = report.final_controls
        # strict-interior optimum
        assert np.max(final.u) < 1.0 and np.min(final.u) > -1.0
        assert np.max(final.v) < 1.0 and np.min(final.v) > -1.0
        traj = simulate(phi0, sigma0, final, params, kernel, tgrid)
        adj = adjoint_sweep(traj, spec, params, kernel)
        defect_u, defect_v = projection_formula_defect(final, traj, adj, spec, box)
        assert defect_u <= 1e-4
        assert defect_v <= 1e-4


def test_criterion_6_manufactured_control_recovery():
    grid = GridSpec((32,), (1.0,))
    kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.2), grid)
    params = ModelParams(A=0.5, B=1.0, chi=0.0)
    tgrid = TimeGrid(0.5, 40)
    phi0, sigma0, spec = _manufactured_problem(grid, kernel, params, tgrid, 1e-6, 1e-6)
    box = BoxConstraints.constant(grid, -1.0, 1.0, -1.0, 1.0)
    iterates = []
    with criterion(6, "manufactured control recovery"):
        report = pgd_optimize(ControlPair.zeros(grid, 40), box, spec, params, kernel,
                              tgrid, phi0, sigma0,
                              opts=PgdOptions(tol=1e-12, max_iter=15),
                              callback=lambda k, j, r, t, ls, c: iterates.append(c))
        costs = np.array(report.costs)
        crossing = np.flatnonzero(costs <= 0.01 * costs[0])
        assert crossing.size > 0 and crossing[0] <= 200
        assert np.all(np.diff(costs) < 0)
        for c in iterates:
            clamped = project_box(c, box)
            assert np.array_equal(c.u, clamped.u) and np.array_equal(c.v, clamped.v)


def test_criterion_7_boundedness_analog():
    rng = np.random.default_rng(107)
    grid = GridSpec((48,), (1.0,))
    x = grid.cell_centers()[0]
    with criterion(7, "global boundedness analog"):
        accepted = 0
        attempts = 0
        while accepted < 10:
            attempts += 1
            assert attempts < 200, "could not sample admissible configurations"
            amp = rng.uniform(3.0, 6.0)
            width = rng.uniform(0.15, 0.3)
            kernel = build_kernel(KernelSpec("gaussian", amp, width), grid)
            params = ModelParams(A=rng.uniform(0.3, 0.8), B=rng.uniform(0.8, 1.5), chi=0.0)
            if ellipticity_margin(params, kernel) <= 0.0:
                continue
            accepted += 1
            k_mode = rng.integers(1, 4)
            phi0_vals = rng.uniform(0.5, 1.0) * 1.2 * np.cos(k_mode * np.pi * x)
            sigma0 = ScalarField.constant(grid, float(rng.uniform(0.0, 0.5)))
            controls = random_controls(rng, grid, 60, scale=0.3)
            # guard at 2.0: simulate raises if the bound is ever exceeded
            traj = simulate(ScalarField(grid, phi0_vals), sigma0, controls, params,
                            kernel, TimeGrid(0.6, 60), blowup_guard=2.0)
            sup_phi = max(row[5] for row in traj.monitors)
            assert sup_phi <= 2.0


def test_criterion_8_continuous_dependence_analog():
    rng = np.random.default_rng(108)
    grid = GridSpec((32,), (1.0,))
    kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.2), grid)
    params = ModelParams(A=0.5, B=1.0, chi=0.0)
    tgrid = TimeGrid(0.25, 20)
    phi0 = smooth_phi0(grid)
    sigma0 = ScalarField.constant(grid, 0.2)
    with criterion(8, "continuous dependence on controls"):
        for _ in range(3):
            base = random_controls(rng, grid, 20)
            direction = random_controls(rng, grid, 20, scale=1.0)
            traj0 = simulate(phi0, sigma0, base, params, kernel, tgrid)

            def lipschitz_ratio(eps):
                c = ControlPair(grid, base.u + eps * direction.u,
                                base.v + eps * direction.v)
                traj = simulate(phi0, sigma0, c, params, kernel, tgrid)
                diff = np.sqrt((np.sum((traj.phi - traj0.phi) ** 2)
                                + np.sum((traj.sigma - traj0.sigma) ** 2))
                               * grid.cell_volume * tgrid.dt)
                return diff / (eps * np.sqrt(control_inner_qt(direction, direction,
                                                              tgrid.dt)))

            eps0 = 1e-2
            ratios = [lipschitz_ratio(e) for e in (eps0, eps0 / 2, eps0 / 4)]
            assert max(ratios) / min(ratios) < 1.1


CRITERION_9_SIMULATE = {
    "grid": {"cells": [32], "extent": [1.0]},
    "kernel": {"family": "gaussian", "amplitude": 4.0, "width": 0.2},
    "model": {"A": 0.5, "B": 1.0, "chi": 0.0, "lambda_s": 2.0},
    "time": {"T": 0.25, "steps": 20},
    "initial": {"phi": {"kind": "bumps", "background": -0.4, "centers": [[0.5]],
                        "amplitudes": [0.9], "widths": [0.12]},
                "sigma": {"kind": "constant", "value": 0.3}},
    "output": {"directory": "unused", "snapshot_stride": 5},
    "seed": 11,
}
CRITERION_9_OPTIMIZE = {
    **CRITERION_9_SIMULATE,
    "time": {"T": 0.2, "steps": 12},
    "cost": {
        "alpha_omega": 1.0, "alpha_q": 1.0, "beta_omega": 1.0, "beta_q": 1.0,
        "alpha_u": 1e-4, "beta_v": 1e-4,
        "targets": {"kind": "manufactured",
                    "u": {"kind": "bumps", "background": 0.0, "centers": [[0.3]],
                          "amplitudes": [0.3], "widths": [0.1]},
                    "v": {"kind": "constant", "value": -0.1}},
    },
    "optimizer": {"tol": 1e-8, "max_iter": 8, "tau0": 1.0},
}


def assert_same_artifacts(*runs):
    """Every output file bitwise equal across run directories; the manifests
    (whose config hash covers the output directory) agree on the outputs."""
    def tree_bytes(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    t1 = tree_bytes(runs[0])
    for run in runs[1:]:
        t2 = tree_bytes(run)
        assert set(t1) == set(t2)
        for name in t1:
            if name != "run_manifest.json":
                assert t1[name] == t2[name], name
        m1 = json.loads(t1["run_manifest.json"])
        m2 = json.loads(t2["run_manifest.json"])
        assert m1["outputs"] == m2["outputs"]


def test_criterion_9_bitwise_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sim.json").write_text(json.dumps(CRITERION_9_SIMULATE))
    (tmp_path / "opt.json").write_text(json.dumps(CRITERION_9_OPTIMIZE))

    with criterion(9, "bitwise determinism of CLI artifacts"):
        assert main(["simulate", "--config", "sim.json", "--out", "sim1", "--quiet"]) == EXIT_OK
        assert main(["simulate", "--config", "sim.json", "--out", "sim2", "--quiet"]) == EXIT_OK
        assert_same_artifacts(tmp_path / "sim1", tmp_path / "sim2")

        assert main(["optimize", "--config", "opt.json", "--out", "o1", "--quiet"]) == EXIT_OK
        assert main(["optimize", "--config", "opt.json", "--out", "o2", "--quiet"]) == EXIT_OK
        assert_same_artifacts(tmp_path / "o1", tmp_path / "o2")


@pytest.mark.parametrize("command,config", [
    pytest.param("optimize", dict(CRITERION_9_OPTIMIZE, grid={"cells": [cells], "extent": [1.0]}),
                 id=str(cells))
    for cells in (32, DENSE_MAX_CELLS)
] + [
    pytest.param("simulate", dict(CRITERION_9_SIMULATE,
                                  grid={"cells": [128, 128], "extent": [1.0, 1.0]},
                                  kernel={"family": "gaussian", "amplitude": 20.0,
                                          "width": 0.15},
                                  initial={"phi": {"kind": "bumps", "background": -0.4,
                                                   "centers": [[0.5, 0.4]],
                                                   "amplitudes": [0.9], "widths": [0.12]},
                                           "sigma": {"kind": "constant", "value": 0.3}},
                                  time={"T": 0.01, "steps": 4}),
                 id="gaussian-128x128"),
])
def test_criterion_9_identity_across_blas_threads(tmp_path, command, config):
    # the dense 1D operators are BLAS matrix-vector products and the 2D
    # Gaussian convolution is two BLAS matrix-matrix products: the artifacts
    # must not depend on the run or on the OpenBLAS thread count. Whether
    # OpenBLAS splits a product over threads depends on its size, so a small
    # grid and the largest dense grid both run, and the 128 x 128 grid has
    # more than the 10000 values past which it splits a dot product (the
    # energy monitor's inner products)
    (tmp_path / "run.json").write_text(json.dumps(config))
    src = str(Path(nlch_control.__file__).resolve().parents[1])
    runs = []
    for i, threads in enumerate(("1", "1", "2", "2")):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        runs.append(tmp_path / f"o{i}")
        subprocess.run([sys.executable, "-m", "nlch_control", command, "--config", "run.json",
                        "--out", runs[-1].name, "--quiet"],
                       cwd=tmp_path, env=env, check=True, timeout=300)
    assert_same_artifacts(*runs)
