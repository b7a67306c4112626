"""The three benchmark workloads: inputs made from a seed, the command body
each one times, and the correctness gates its result must pass.

Importing this module loads only the standard library; `nlch_control` and
numpy are imported by the functions that need them, so the interpreter that
measures set-up time pays for them inside the measured interval.

Each workload is split the way the command line splits a run:

  prepare(workdir, seed)  writes the inputs (config.json and input fields);
                          run by the parent before any measured process.
  setup(nc, workdir)      load and validate the configuration and build every
                          input the body needs (kernel, fields, targets, box).
  body(nc, inputs, out)   the command itself, through the public functions.
  check(nc, inputs, res)  the gates; returns (failures, digest).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "simulate-2d.json"

# simulate-2d draws its radiotherapy bump from one of this many seeded
# variants (seed modulo the count); each variant has a stored final state.
SIMULATE_VARIANTS = 8
# Final-state tolerance against the stored reference: block means and norms
# of phi and sigma after 200 steps, absolute.
SIMULATE_REF_TOL = 1e-9
MASS_BALANCE_TOL = 1e-12
PROJECTION_DEFECT_TOL = 1e-4
DUALITY_TOL = 1e-10
FD_PLATEAU_TOL = 1e-5
TAYLOR_ORDER_MIN = 1.9
BLOCK = 16


def _write_config(workdir: Path, raw: dict) -> None:
    (workdir / "config.json").write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")


def simulate_bump(seed: int) -> dict:
    """Seeded radiotherapy bump for simulate-2d (one of SIMULATE_VARIANTS)."""
    import random

    rng = random.Random(seed % SIMULATE_VARIANTS)
    return {"kind": "bumps", "background": 0.0,
            "centers": [[round(rng.uniform(0.3, 0.7), 6), round(rng.uniform(0.3, 0.7), 6)]],
            "amplitudes": [round(rng.uniform(0.5, 1.0), 6)],
            "widths": [round(rng.uniform(0.06, 0.12), 6)]}


def simulate_config(seed: int) -> dict:
    return {
        "grid": {"cells": [128, 128], "extent": [1.0, 1.0]},
        "kernel": {"family": "gaussian", "amplitude": 20.0, "width": 0.15},
        "model": {"A": 0.5, "B": 1.0, "chi": 0.3, "lambda_s": 2.0},
        "time": {"T": 0.1, "steps": 200},
        "initial": {
            "phi": {"kind": "bumps", "background": -0.6, "centers": [[0.5, 0.5]],
                    "amplitudes": [1.2], "widths": [0.15]},
            "sigma": {"kind": "constant", "value": 0.4},
        },
        "controls": {"u": simulate_bump(seed), "v": {"kind": "constant", "value": 0.0}},
        "output": {"directory": "out", "snapshot_stride": 20},
        "seed": seed,
    }


def optimize_config(seed: int) -> dict:
    # The manufactured tracking problem of acceptance criterion 5. PGD reads
    # no random numbers, so every seed solves the same problem.
    return {
        "grid": {"cells": [32], "extent": [1.0]},
        "kernel": {"family": "gaussian", "amplitude": 4.0, "width": 0.2},
        "model": {"A": 0.5, "B": 1.0, "chi": 0.0, "lambda_s": 2.0},
        "time": {"T": 0.3, "steps": 24},
        "initial": {"phi": {"kind": "file", "path": "phi0.snap"},
                    "sigma": {"kind": "constant", "value": 0.3}},
        "cost": {"alpha_omega": 1.0, "alpha_q": 1.0, "beta_omega": 1.0, "beta_q": 1.0,
                 "alpha_u": 1e-2, "beta_v": 1e-2,
                 "targets": {"kind": "manufactured",
                             "u": {"kind": "bumps", "background": 0.0, "centers": [[0.3]],
                                   "amplitudes": [0.3], "widths": [0.1]},
                             "v": {"kind": "bumps", "background": 0.0, "centers": [[0.7]],
                                   "amplitudes": [-0.2], "widths": [0.15]}}},
        "box": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0},
        "optimizer": {"tol": 1e-9, "max_iter": 400, "tau0": 1.0},
        "seed": seed,
    }


def gradcheck_config(seed: int) -> dict:
    # The seed feeds the probe generator only; the probe counts are fixed.
    # T = 0.1 (dt = 0.01, near the test suite's 0.0125): with T = 0.02 the
    # remainder at the smallest Taylor epsilon (1e-4) nears round-off, and 3
    # of 22 seeds tried read a Taylor order of 1.887-1.898 (gate 1.9) although
    # duality and the FD check pass. At T = 0.1 the worst of 40 seeds is 1.997.
    return {
        "grid": {"cells": [64, 64], "extent": [1.0, 1.0]},
        "kernel": {"family": "mollifier", "amplitude": 100.0, "width": 0.25},
        "model": {"A": 0.5, "B": 1.0, "chi": 0.0, "lambda_s": 2.0},
        "time": {"T": 0.1, "steps": 10},
        "initial": {
            "phi": {"kind": "bumps", "background": -0.3, "centers": [[0.4, 0.55]],
                    "amplitudes": [0.9], "widths": [0.15]},
            "sigma": {"kind": "constant", "value": 0.3},
        },
        "controls": {"u": {"kind": "constant", "value": 0.05},
                     "v": {"kind": "constant", "value": -0.05}},
        "cost": {"alpha_omega": 1.0, "alpha_q": 1.0, "beta_omega": 1.0, "beta_q": 1.0,
                 "alpha_u": 1e-2, "beta_v": 1e-2,
                 "targets": {"kind": "constant", "phi_omega": 0.2, "sigma_omega": 0.3,
                             "phi_q": 0.1, "sigma_q": 0.3}},
        "seed": seed,
    }


# ---- prepare (parent process) ------------------------------------------


def prepare(name: str, workdir: Path, seed: int) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "simulate-2d":
        _write_config(workdir, simulate_config(seed))
    elif name == "optimize-1d":
        import numpy as np
        from nlch_control.geometry import GridSpec, ScalarField
        from nlch_control.snapshots import write_snapshot

        grid = GridSpec((32,), (1.0,))
        x = grid.cell_centers()[0]
        write_snapshot(workdir / "phi0.snap", ScalarField(grid, 0.5 * np.cos(np.pi * x)),
                       "phi", 0.0)
        _write_config(workdir, optimize_config(seed))
    elif name == "gradcheck-2d":
        _write_config(workdir, gradcheck_config(seed))
    else:
        raise ValueError(f"unknown workload {name!r}")


# ---- setup, body, check (measured process) ------------------------------


def setup(name: str, nc, workdir: Path) -> dict:
    cfg = nc.load_config(workdir / "config.json")
    grid = cfg.build_grid()
    kernel = cfg.build_kernel(grid)
    params = cfg.build_params()
    nc.require_ellipticity(params, kernel)
    tgrid = cfg.build_tgrid()
    phi0, sigma0 = cfg.build_initial_state(grid)
    controls = cfg.build_initial_controls(grid)
    inputs = dict(cfg=cfg, grid=grid, kernel=kernel, params=params, tgrid=tgrid,
                  phi0=phi0, sigma0=sigma0, controls=controls)
    if name != "simulate-2d":
        inputs["spec"] = cfg.build_cost(grid, kernel, params, tgrid)
        inputs["spec"].validate()
    if name == "optimize-1d":
        inputs["box"] = cfg.build_box(grid)
    return inputs


def _snapshot_steps(total: int, stride: int) -> list[int]:
    picks = set(range(0, total + 1, stride)) if stride > 0 else {0}
    picks.add(total)
    return sorted(picks)


def body(name: str, nc, inputs: dict, out: Path):
    cfg = inputs["cfg"]
    args = (inputs["params"], inputs["kernel"], inputs["tgrid"])
    if name == "simulate-2d":
        # what `nlch-control simulate` does after building its inputs
        snapshots = nc.snapshots
        out.mkdir(parents=True)
        traj = nc.simulate(inputs["phi0"], inputs["sigma0"], inputs["controls"], *args,
                           solver_options=cfg.solver_options(),
                           blowup_guard=cfg.blowup_guard)
        outputs = ["monitors.csv"]
        snapshots.write_monitors_csv(out / "monitors.csv", traj.monitors)
        tgrid = inputs["tgrid"]
        for n in _snapshot_steps(tgrid.steps, cfg.snapshot_stride):
            state = traj.state(n)
            for field, values in (("phi", state.phi), ("sigma", state.sigma)):
                fname = f"{field}_{n:06d}.snap"
                snapshots.write_snapshot(out / fname, values, field, n * tgrid.dt)
                outputs.append(fname)
        snapshots.write_manifest(out, "simulate",
                                 snapshots.sha256_bytes(nc.config.config_json(cfg).encode()),
                                 cfg.seed, outputs)
        return traj
    if name == "optimize-1d":
        return nc.pgd_optimize(inputs["controls"], inputs["box"], inputs["spec"],
                               inputs["params"], inputs["kernel"], inputs["tgrid"],
                               inputs["phi0"], inputs["sigma0"], opts=cfg.pgd_options(),
                               solver_options=cfg.solver_options())
    if name == "gradcheck-2d":
        import numpy as np

        return nc.gradcheck.run_gradcheck(
            inputs["phi0"], inputs["sigma0"], inputs["controls"], inputs["spec"], *args,
            np.random.default_rng(cfg.seed), solver_options=cfg.solver_options(),
            n_duality=20, n_fd=3, n_taylor=3,
            corrupt_adjoint=bool(inputs.get("corrupt_adjoint", False)))
    raise ValueError(f"unknown workload {name!r}")


def final_state_summary(phi, sigma, n0: int, n1: int) -> list[float]:
    """Block means (BLOCK x BLOCK cells) and L2/sup norms of both fields."""
    import numpy as np

    summary = []
    for arr in (phi, sigma):
        f = np.asarray(arr).reshape(n0, n1)
        blocks = f.reshape(n0 // BLOCK, BLOCK, n1 // BLOCK, BLOCK).mean(axis=(1, 3))
        summary.extend(blocks.reshape(-1).tolist())
        summary.append(float(np.sqrt(np.mean(f * f))))
        summary.append(float(np.max(np.abs(f))))
    return summary


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def check(name: str, nc, inputs: dict, result, out: Path, seed: int) -> tuple[list[str], str]:
    """Gate the result; returns (failure messages, digest of the outputs)."""
    import numpy as np

    failures = []
    if name == "simulate-2d":
        traj = result
        defect = nc.mass_balance_residual(traj, inputs["controls"], inputs["params"])
        if not defect <= MASS_BALANCE_TOL:
            failures.append(f"mass-balance defect {defect:.3e} > {MASS_BALANCE_TOL}")
        n0, n1 = inputs["grid"].cells_per_axis
        got = final_state_summary(traj.phi[-1], traj.sigma[-1], n0, n1)
        refs = json.loads(REFERENCE.read_text())["variants"]
        ref = refs[str(seed % SIMULATE_VARIANTS)]
        if ref["bump"] != simulate_bump(seed):
            failures.append("stored reference was made for another bump")
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(ref["summary"]))))
        if not err <= SIMULATE_REF_TOL:
            failures.append(f"final state differs from reference by {err:.3e} > {SIMULATE_REF_TOL}")
        manifest = (out / "run_manifest.json").read_bytes()
        return failures, _digest(manifest)
    if name == "optimize-1d":
        report = result
        if report.termination != "converged":
            failures.append(f"PGD ended {report.termination!r}, not 'converged'")
        final = report.final_controls
        traj = nc.simulate(inputs["phi0"], inputs["sigma0"], final, inputs["params"],
                           inputs["kernel"], inputs["tgrid"], record_monitors=False)
        adj = nc.adjoint_sweep(traj, inputs["spec"], inputs["params"], inputs["kernel"])
        defects = nc.projection_formula_defect(final, traj, adj, inputs["spec"], inputs["box"])
        for label, d in zip(("u", "v"), defects):
            if d is None or not d <= PROJECTION_DEFECT_TOL:
                failures.append(f"projection defect {label} = {d} > {PROJECTION_DEFECT_TOL}")
        return failures, _digest(final.u.tobytes(), final.v.tobytes(), report.costs)
    if name == "gradcheck-2d":
        res = result
        if not res.max_duality_gap <= DUALITY_TOL:
            failures.append(f"duality gap {res.max_duality_gap:.3e} > {DUALITY_TOL}")
        if not all(p <= FD_PLATEAU_TOL for p in res.fd_plateau):
            failures.append(f"FD plateau {max(res.fd_plateau):.3e} > {FD_PLATEAU_TOL}")
        if not all(o >= TAYLOR_ORDER_MIN for o in res.taylor_orders):
            failures.append(f"Taylor order {min(res.taylor_orders):.3f} < {TAYLOR_ORDER_MIN}")
        if not res.passed:
            failures.append("run_gradcheck reports FAIL")
        return failures, _digest(res.duality_gaps, res.fd_table, res.taylor_orders)
    raise ValueError(f"unknown workload {name!r}")


def pgd_counts(result) -> dict:
    """Accepted steps and line-search trials of a PGD report (zero otherwise)."""
    counts = getattr(result, "linesearch_counts", None)
    if counts is None:
        return {"iterations": 0, "trials": 0}
    return {"iterations": len(counts) - 1, "trials": int(sum(counts))}


WORKLOADS = ("simulate-2d", "optimize-1d", "gradcheck-2d")
