"""Command line entry point.

Subcommands: simulate | optimize | gradcheck | validate
Flags:       --config <path>  --seed <int>  --quiet, and for simulate and
             optimize --out <dir>
Exit codes:  0 success, 2 validation, 3 solver, 4 check-failure

--seed and --out override the config's seed and output.directory before it
is validated, so the manifest's config hash covers them. A grid or a
trajectory numpy refuses to allocate (an absurd grid.cells or time.steps)
is a collected validation failure; exit code 2 also ends a run whose other
arrays do not fit in memory (a MemoryError raised at the allocation). An
allocation that the operating system commits lazily and kills later is not
caught. optimize exits 0 also when it stops short of tol, and then says so
on stderr, --quiet or not.

Every output file is a deterministic function of (config, seed): numbers are
serialised with repr, manifests carry no timestamps, and all randomness flows
from the single config seed. A run refuses to write into a directory that
already holds a manifest or cannot be made, and optimize refuses all-zero
cost weights before it makes one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import snapshots
from .config import RunConfig, config_from_dict, config_json, read_config_json
from .control import pgd_optimize, projection_report
from .errors import ConfigError, InstabilityError, NLCHError, SolverError
from .forward import simulate
from .geometry import ScalarField
from .gradcheck import run_gradcheck
from .physics import ellipticity_margin

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4

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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file by that name, or in its path
        raise ConfigError([f"cannot make output directory {out}: {exc}"]) from exc
    return out


def _snapshot_steps(total: int, stride: int) -> list[int]:
    if stride <= 0:
        picks = {0, total}
    else:
        picks = set(range(0, total + 1, stride))
        picks.add(total)
    return sorted(picks)


def _run_inputs(cfg: RunConfig) -> tuple:
    """(grid, kernel, params, tgrid, phi0, sigma0, initial controls)."""
    grid = cfg.build_grid()
    return (grid, cfg.build_kernel(grid), cfg.build_params(), cfg.build_tgrid(),
            *cfg.build_initial_state(grid), cfg.build_initial_controls(grid))


def cmd_simulate(cfg: RunConfig, quiet: bool = False) -> int:
    grid, kernel, params, tgrid, phi0, sigma0, controls = _run_inputs(cfg)
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


def cmd_gradcheck(cfg: RunConfig, quiet: bool = False) -> int:
    grid, kernel, params, tgrid, phi0, sigma0, controls = _run_inputs(cfg)
    spec = cfg.build_cost(grid, kernel, params, tgrid)
    rng = np.random.default_rng(cfg.seed)

    result = run_gradcheck(phi0, sigma0, controls, spec, params, kernel, tgrid, rng,
                           blowup_guard=cfg.blowup_guard)

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
    grid, kernel, params, tgrid, phi0, sigma0, c0 = _run_inputs(cfg)
    box = cfg.build_box(grid)
    spec = cfg.build_cost(grid, kernel, params, tgrid)
    spec.validate()  # before the output directory is made
    out = _prepare_outdir(cfg)

    def progress(k, j_val, resid, step, ls, _iterate):
        _say(quiet, f"iter {k:4d}  cost {j_val:.6e}  residual {resid:.3e}  "
                    f"step {step:.3e}  ls {ls}")

    report = pgd_optimize(c0, box, spec, params, kernel, tgrid, phi0, sigma0,
                          opts=cfg.pgd_options(), blowup_guard=cfg.blowup_guard,
                          callback=progress)

    outputs = ["iterations.csv", "projection_report.json"]
    snapshots.write_iterations_csv(out / "iterations.csv", report)

    (out / "projection_report.json").write_text(
        json.dumps(projection_report(report, spec, box), indent=2, sort_keys=True) + "\n")
    final_traj = report.final_adjoint.traj

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
    if report.termination != "converged":
        # still exit 0 (the outputs are complete), but never silent, even
        # under --quiet: projection_report.json's termination says the same
        print(f"optimize: not converged ({report.termination}), residual "
              f"{report.residuals[-1]:.3e}, tol {cfg.data['optimizer']['tol']:.3e}",
              file=sys.stderr)
    _say(quiet, f"optimize: {report.termination} after {report.iterations} iterations "
                f"({report.exhausted_trials} trials in an exhausted line search), "
                f"cost {report.costs[-1]:.6e}, outputs in {out}")
    return EXIT_OK


def cmd_validate(cfg: RunConfig, quiet: bool = False) -> int:
    """Build every input a run reads, files included, short of simulating:
    manufactured cost targets realise their controls but are not run."""
    grid, kernel, params, tgrid, *_ = _run_inputs(cfg)
    margin = ellipticity_margin(params, kernel)
    cfg.build_box(grid)
    targets = cfg.data["cost"]["targets"]
    if targets["kind"] == "manufactured":
        cfg.realize_field(targets["u"], grid)
        cfg.realize_field(targets["v"], grid)
    else:
        cfg.build_cost(grid, kernel, params, tgrid)
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
        if name in ("simulate", "optimize"):
            p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = read_config_json(args.config)
        if args.seed is not None:
            # validated with the file, so a bad seed is a collected failure
            raw = {**raw, "seed": args.seed}
        output = raw.get("output", {})
        if getattr(args, "out", None) is not None and isinstance(output, dict):
            # an output section that is no object stays a collected failure
            raw = {**raw, "output": {**output, "directory": args.out}}
        cfg = config_from_dict(raw, base_dir=str(Path(args.config).parent))
        handler = {
            "simulate": cmd_simulate,
            "optimize": cmd_optimize,
            "gradcheck": cmd_gradcheck,
            "validate": cmd_validate,
        }[args.command]
        return handler(cfg, quiet=args.quiet)
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except NLCHError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: the problem in {args.config} does not fit in memory ({exc})",
              file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
