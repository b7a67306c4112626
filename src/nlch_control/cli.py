"""Command line entry point.

Subcommands: simulate | optimize | gradcheck | validate
Flags:       --config <path>  --out <dir>  --seed <int>  --quiet
Exit codes:  0 success, 2 validation, 3 solver, 4 check-failure

Every output file is a deterministic function of (config, seed): numbers are
serialised with repr, manifests carry no timestamps, and all randomness flows
from the single config seed. A run refuses to write into a directory that
already holds a manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import snapshots
from .config import (RunConfig, config_from_dict, config_json, config_to_dict,
                     load_config)
from .control import pgd_optimize, projection_formula_defect
from .errors import (ChemotaxisScopeError, ConfigError, FieldShapeError,
                     GridError, HypothesisViolationError, InstabilityError,
                     KernelResolutionError, NLCHError, SolverError,
                     StaleTrajectoryError)
from .forward import simulate
from .geometry import ScalarField
from .gradcheck import run_gradcheck
from .physics import require_ellipticity

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4

_VALIDATION_ERRORS = (ConfigError, HypothesisViolationError, GridError,
                      KernelResolutionError, FieldShapeError,
                      ChemotaxisScopeError, StaleTrajectoryError)
_SOLVER_ERRORS = (SolverError, InstabilityError)


def _say(quiet: bool, *parts):
    if not quiet:
        print(*parts)


def _prepare_outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_directory)
    if snapshots.manifest_present(out):
        raise ConfigError(
            [f"output directory {out} already holds a run manifest; refusing to overwrite"]
        )
    out.mkdir(parents=True, exist_ok=True)
    return out


def _snapshot_steps(total: int, stride: int) -> list[int]:
    if stride <= 0:
        picks = {0, total}
    else:
        picks = set(range(0, total + 1, stride))
        picks.add(total)
    return sorted(picks)


def cmd_simulate(cfg: RunConfig, quiet: bool = False) -> int:
    grid = cfg.build_grid()
    kernel = cfg.build_kernel(grid)
    params = cfg.build_params()
    require_ellipticity(params, kernel)
    tgrid = cfg.build_tgrid()
    phi0, sigma0 = cfg.build_initial_state(grid)
    controls = cfg.build_initial_controls(grid)
    out = _prepare_outdir(cfg)

    traj = simulate(phi0, sigma0, controls, params, kernel, tgrid,
                    blowup_guard=cfg.blowup_guard)

    outputs = ["monitors.csv"]
    snapshots.write_monitors_csv(out / "monitors.csv", traj.monitors)
    for n in _snapshot_steps(tgrid.steps, cfg.snapshot_stride):
        t = n * tgrid.dt
        state = traj.state(n)
        for name, field in (("phi", state.phi), ("sigma", state.sigma)):
            fname = f"{name}_{n:06d}.snap"
            snapshots.write_snapshot(out / fname, field, name, t)
            outputs.append(fname)
    snapshots.write_manifest(out, "simulate",
                             snapshots.sha256_bytes(config_json(cfg).encode()),
                             cfg.seed, outputs)
    _say(quiet, f"simulate: {tgrid.steps} steps written to {out}")
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig, quiet: bool = False,
                  _corrupt_adjoint: bool = False) -> int:
    params = cfg.build_params()
    if params.chi != 0.0:
        raise ChemotaxisScopeError("gradcheck requires chi = 0")
    grid = cfg.build_grid()
    kernel = cfg.build_kernel(grid)
    require_ellipticity(params, kernel)
    tgrid = cfg.build_tgrid()
    phi0, sigma0 = cfg.build_initial_state(grid)
    controls = cfg.build_initial_controls(grid)
    spec = cfg.build_cost(grid, kernel, params, tgrid)
    rng = np.random.default_rng(cfg.seed)

    result = run_gradcheck(phi0, sigma0, controls, spec, params, kernel, tgrid, rng,
                           blowup_guard=cfg.blowup_guard, corrupt_adjoint=_corrupt_adjoint)

    _say(quiet, f"duality gap (max over {len(result.duality_gaps)} probes): "
                f"{result.max_duality_gap:.3e}")
    _say(quiet, "finite-difference relative errors (rows: eps, cols: directions):")
    for eps, errs in result.fd_table:
        _say(quiet, f"  eps={eps:8.1e}  " + "  ".join(f"{e:10.3e}" for e in errs))
    _say(quiet, "fd plateau per direction: " + "  ".join(f"{p:.3e}" for p in result.fd_plateau))
    _say(quiet, "taylor remainder orders:  " + "  ".join(f"{o:.3f}" for o in result.taylor_orders))
    _say(quiet, "gradcheck " + ("PASS" if result.passed else "FAIL"))
    return EXIT_OK if result.passed else EXIT_CHECK


def cmd_optimize(cfg: RunConfig, quiet: bool = False) -> int:
    params = cfg.build_params()
    if params.chi != 0.0:
        raise ChemotaxisScopeError("optimize requires chi = 0")
    grid = cfg.build_grid()
    kernel = cfg.build_kernel(grid)
    require_ellipticity(params, kernel)
    tgrid = cfg.build_tgrid()
    phi0, sigma0 = cfg.build_initial_state(grid)
    c0 = cfg.build_initial_controls(grid)
    box = cfg.build_box(grid)
    spec = cfg.build_cost(grid, kernel, params, tgrid)
    spec.validate()
    out = _prepare_outdir(cfg)

    def progress(k, j_val, resid, step, ls, _iterate):
        _say(quiet, f"iter {k:4d}  cost {j_val:.6e}  residual {resid:.3e}  "
                    f"step {step:.3e}  ls {ls}")

    report = pgd_optimize(c0, box, spec, params, kernel, tgrid, phi0, sigma0,
                          opts=cfg.pgd_options(), blowup_guard=cfg.blowup_guard,
                          callback=progress)

    outputs = ["iterations.csv", "projection_report.json"]
    snapshots.write_iterations_csv(out / "iterations.csv", report)

    adj = report.final_adjoint
    final_traj = adj.traj
    defect_u, defect_v = projection_formula_defect(report.final_controls, final_traj,
                                                   adj, spec, box)
    projection_report = {
        "termination": report.termination,
        "iterations": report.iterations,
        "final_cost": report.costs[-1],
        "final_residual": report.residuals[-1],
        "projection_defect_u": defect_u if defect_u is not None else "skipped (alpha_u = 0)",
        "projection_defect_v": defect_v if defect_v is not None else "skipped (beta_v = 0)",
    }
    (out / "projection_report.json").write_text(
        json.dumps(projection_report, indent=2, sort_keys=True) + "\n")

    for name, values in (("phi_final", final_traj.phi[tgrid.steps]),
                         ("sigma_final", final_traj.sigma[tgrid.steps])):
        fname = f"{name}.snap"
        snapshots.write_snapshot(out / fname, ScalarField(grid, values),
                                 name.split("_")[0], tgrid.T)
        outputs.append(fname)

    stride = cfg.snapshot_stride
    control_steps = (range(tgrid.steps) if stride <= 0
                     else sorted(set(range(0, tgrid.steps, stride)) | {tgrid.steps - 1}))
    for n in control_steps:
        t = n * tgrid.dt
        for name, arr in (("u", report.final_controls.u), ("v", report.final_controls.v)):
            fname = f"{name}_{n:06d}.snap"
            snapshots.write_snapshot(out / fname, ScalarField(grid, arr[n]), name, t)
            outputs.append(fname)

    snapshots.write_manifest(out, "optimize",
                             snapshots.sha256_bytes(config_json(cfg).encode()),
                             cfg.seed, outputs)
    _say(quiet, f"optimize: {report.termination} after {report.iterations} iterations, "
                f"cost {report.costs[-1]:.6e}, outputs in {out}")
    return EXIT_OK


def cmd_validate(cfg: RunConfig, quiet: bool = False) -> int:
    grid = cfg.build_grid()
    kernel = cfg.build_kernel(grid)
    params = cfg.build_params()
    margin = require_ellipticity(params, kernel)
    cfg.build_tgrid()
    cfg.build_initial_state(grid)
    cfg.build_box(grid)
    _say(quiet, f"configuration OK (ellipticity margin c0 = {margin:.6g}, "
                f"chi^2 = {params.chi ** 2:.6g})")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlch-control",
        description="Nonlocal Cahn-Hilliard tumour growth: simulation and optimal therapy control",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run the forward model and write monitors + snapshots"),
        ("optimize", "run projected gradient descent on the therapy controls"),
        ("gradcheck", "verify duality, finite-difference and Taylor-order contracts"),
        ("validate", "parse and validate a configuration, then stop"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, output_directory=args.out)
        if args.seed is not None:
            # through the parser again, so a bad seed is a collected failure
            cfg = config_from_dict({**config_to_dict(cfg), "seed": args.seed},
                                   base_dir=cfg.base_dir)
        handler = {
            "simulate": cmd_simulate,
            "optimize": cmd_optimize,
            "gradcheck": cmd_gradcheck,
            "validate": cmd_validate,
        }[args.command]
        return handler(cfg, quiet=args.quiet)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except NLCHError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
