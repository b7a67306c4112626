import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from nlch_control import GridSpec, ScalarField, load_config, write_config
from nlch_control.cli import (EXIT_CHECK, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION,
                              cmd_gradcheck, main)
from nlch_control.config import config_from_dict, config_to_dict
from nlch_control.errors import ConfigError, FieldShapeError
from nlch_control.snapshots import (MANIFEST_NAME, read_snapshot, write_snapshot)


BASE_CONFIG = {
    "grid": {"cells": [24], "extent": [1.0]},
    "kernel": {"family": "gaussian", "amplitude": 4.0, "width": 0.2},
    "model": {"A": 0.5, "B": 1.0, "chi": 0.0, "lambda_s": 2.0},
    "time": {"T": 0.2, "steps": 16},
    "initial": {
        "phi": {"kind": "bumps", "background": -0.4, "centers": [[0.5]],
                "amplitudes": [0.9], "widths": [0.12]},
        "sigma": {"kind": "constant", "value": 0.3},
    },
    "cost": {"alpha_omega": 1.0, "alpha_u": 0.01, "beta_v": 0.01,
             "targets": {"kind": "zero"}},
    "output": {"directory": "out", "snapshot_stride": 8},
    "seed": 5,
}


def write_cfg(tmp_path, overrides=None, name="config.json"):
    raw = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and key in raw and isinstance(raw[key], dict):
            raw[key].update(value)
        else:
            raw[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=1))
    return path


# ---- configuration ------------------------------------------------------


def test_minimal_config_gets_documented_defaults(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text("{}\n")
    cfg = load_config(path)
    assert cfg.grid_cells == (64,)
    assert cfg.kernel_family == "gaussian"
    assert cfg.blowup_guard == 10.0
    assert cfg.opt_max_iter == 200
    assert cfg.seed == 0
    assert cfg.snapshot_stride == 0


def test_config_rejects_zero_b_with_ellipticity_message(tmp_path):
    path = write_cfg(tmp_path, {"model": {"B": 0.0}})
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    messages = "\n".join(exc_info.value.failures)
    assert "c0" in messages and "chi^2" in messages


def test_config_collects_multiple_failures(tmp_path):
    path = write_cfg(tmp_path, {
        "model": {"B": 0.0},
        "time": {"T": -1.0, "steps": 0},
        "box": {"u_min": 2.0, "u_max": -2.0},
        "optimizer": {"tol": 0.0},
    })
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    failures = exc_info.value.failures
    assert len(failures) >= 4


@pytest.mark.parametrize("key", ["method", "cg_tol", "cg_max_iter"])
def test_removed_solver_keys_are_unknown(tmp_path, capsys, key):
    # the solver choice is gone; a config that still sets one of its keys
    # must fail loudly rather than be ignored
    path = write_cfg(tmp_path, {"solver": {key: 1, "blowup_guard": 10.0}})
    assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
    assert f"solver: unknown keys ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,literal", [
    ("solver", "blowup_guard", "NaN"),
    ("optimizer", "tol", "Infinity"),
    ("cost", "alpha_u", "1e400"),
])
def test_config_rejects_nonfinite_numbers(tmp_path, capsys, section, key, literal):
    # JSON accepts NaN, Infinity and overflowing literals; NaN in particular
    # passes every "must be positive" comparison
    path = write_cfg(tmp_path, {section: {key: "PLACEHOLDER"}})
    path.write_text(path.read_text().replace('"PLACEHOLDER"', literal))
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert any(f.startswith(f"{section}.{key} must be a finite number")
               for f in exc_info.value.failures)
    assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
    assert f"{section}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("key,overrides,literal", [
    ("time.steps", {"time": {"steps": "PLACEHOLDER"}}, "1e400"),
    ("time.steps", {"time": {"steps": "PLACEHOLDER"}}, "NaN"),
    ("time.steps", {"time": {"steps": "PLACEHOLDER"}}, "2.5"),
    ("optimizer.max_iter", {"optimizer": {"max_iter": "PLACEHOLDER"}}, "Infinity"),
    ("output.snapshot_stride", {"output": {"snapshot_stride": "PLACEHOLDER"}}, "0.5"),
    ("seed", {"seed": "PLACEHOLDER"}, "1e400"),
    ("grid.cells[0]", {"grid": {"cells": ["PLACEHOLDER"]}}, "24.5"),
])
def test_config_rejects_nonintegral_counts(tmp_path, capsys, key, overrides, literal):
    # JSON admits overflowing, non-finite and fractional numbers where a count
    # is due; each must be a collected failure, never truncated or a traceback
    path = write_cfg(tmp_path, overrides)
    path.write_text(path.read_text().replace('"PLACEHOLDER"', literal))
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert exc_info.value.failures == [f"{key} must be an integer, got {float(literal)!r}"]
    assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
    assert key in capsys.readouterr().err


def test_config_accepts_integral_floats(tmp_path):
    path = write_cfg(tmp_path, {"time": {"steps": 16.0}, "grid": {"cells": [24.0]}})
    cfg = load_config(path)
    assert cfg.steps == 16 and type(cfg.steps) is int
    assert cfg.grid_cells == (24,) and type(cfg.grid_cells[0]) is int


@pytest.mark.parametrize("key,overrides,message", [
    ("model.A", {"model": {"A": "x"}}, "must be a number, got 'x'"),
    ("initial.phi.value", {"initial": {"phi": {"kind": "constant", "value": "x"}}},
     "must be a number, got 'x'"),
    ("grid.cells", {"grid": {"cells": 32}}, "must be a list, got 32"),
    ("grid.extent", {"grid": {"extent": 1.0}}, "must be a list, got 1.0"),
])
def test_config_rejects_ill_typed_values(tmp_path, capsys, key, overrides, message):
    # a string where a number is due, or a number where a list is due, is a
    # collected failure naming the key, not a ValueError or TypeError
    path = write_cfg(tmp_path, overrides)
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert f"{key} {message}" in exc_info.value.failures
    assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
    assert f"{key} {message}" in capsys.readouterr().err


def test_negative_seed_in_config_is_a_collected_failure(tmp_path, capsys):
    path = write_cfg(tmp_path, {"seed": -1})
    assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err


def test_negative_seed_override_is_a_collected_failure(tmp_path, capsys):
    # the --seed override is validated like the file's seed
    good = write_cfg(tmp_path, {"time": {"T": 0.02, "steps": 2}})
    assert main(["gradcheck", "--config", str(good), "--seed", "-1",
                 "--quiet"]) == EXIT_VALIDATION
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err


def test_readme_example_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    raw = json.loads(blocks[0])
    cfg = config_from_dict(raw)
    assert config_to_dict(cfg)["solver"] == raw["solver"]


def test_config_parse_error_carries_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "grid": {,}\n}\n')
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert "line 2" in exc_info.value.failures[0]


def test_config_rejects_unknown_keys(tmp_path):
    path = write_cfg(tmp_path, {"grd": {"cells": [8]}})
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert any("unknown top-level" in f for f in exc_info.value.failures)


def test_config_roundtrip(tmp_path):
    path = write_cfg(tmp_path, {
        "cost": {"targets": {"kind": "manufactured",
                             "u": {"kind": "bumps", "background": 0.0,
                                   "centers": [[0.3]], "amplitudes": [0.2],
                                   "widths": [0.1]},
                             "v": {"kind": "constant", "value": -0.1}}},
    })
    cfg = load_config(path)
    out = tmp_path / "rewritten.json"
    write_config(cfg, out)
    cfg2 = load_config(out)
    assert cfg2 == dataclasses.replace(cfg, base_dir=cfg2.base_dir)


def test_config_missing_referenced_file(tmp_path):
    path = write_cfg(tmp_path, {
        "initial": {"phi": {"kind": "file", "path": "missing.snap"},
                    "sigma": {"kind": "constant", "value": 0.0}},
    })
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert any("missing.snap" in f for f in exc_info.value.failures)


def test_chi_positive_forward_only_config_valid(tmp_path):
    # chi > 0 passes validation when the margin clears chi^2
    path = write_cfg(tmp_path, {"kernel": {"amplitude": 8.0}, "model": {"chi": 0.4}})
    cfg = load_config(path)
    assert cfg.chi == 0.4


# ---- snapshots -----------------------------------------------------------


@pytest.mark.parametrize("cells,extent", [((9,), (1.0,)), ((6, 4), (1.5, 1.0))])
def test_snapshot_roundtrip_bitwise(tmp_path, rng, cells, extent):
    grid = GridSpec(cells, extent)
    field = ScalarField(grid, rng.standard_normal(grid.num_cells))
    p1 = tmp_path / "field.snap"
    write_snapshot(p1, field, "phi", 0.125)
    loaded, name, time = read_snapshot(p1)
    assert name == "phi" and time == 0.125
    assert loaded.grid == grid
    assert np.array_equal(loaded.values, field.values)
    p2 = tmp_path / "field2.snap"
    write_snapshot(p2, loaded, name, time)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_rejects_truncated_payload(tmp_path, rng):
    grid = GridSpec((9,), (1.0,))
    field = ScalarField(grid, rng.standard_normal(9))
    path = tmp_path / "field.snap"
    write_snapshot(path, field, "phi", 0.0)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FieldShapeError):
        read_snapshot(path)


# ---- commands ------------------------------------------------------------


def test_cmd_simulate_outputs_and_locking(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path)
    assert main(["simulate", "--config", str(path), "--quiet"]) == EXIT_OK
    out = tmp_path / "out"
    assert (out / "monitors.csv").exists()
    assert (out / MANIFEST_NAME).exists()
    assert (out / "phi_000000.snap").exists()
    assert (out / "phi_000016.snap").exists()
    header = (out / "monitors.csv").read_text().splitlines()[0]
    assert header == "step,time,energy,mass_phi,mass_sigma,sup_phi,sup_sigma"
    # locking: a second run into the same directory must refuse
    assert main(["simulate", "--config", str(path), "--quiet"]) == EXIT_VALIDATION


def test_cmd_simulate_constant_energy_without_reactions(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, {
        "model": {"proliferation": "constant_zero"},
        "initial": {"phi": {"kind": "constant", "value": 0.2},
                    "sigma": {"kind": "constant", "value": 0.1}},
        "output": {"directory": "flat", "snapshot_stride": 0},
    })
    assert main(["simulate", "--config", str(path), "--quiet"]) == EXIT_OK
    rows = (tmp_path / "flat" / "monitors.csv").read_text().splitlines()[1:]
    energies = np.array([float(r.split(",")[2]) for r in rows])
    assert np.max(np.abs(energies - energies[0])) <= 1e-12 * max(1.0, abs(energies[0]))


def test_cmd_simulate_energy_nonincreasing_gradient_flow(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, {
        "model": {"proliferation": "constant_zero"},
        "output": {"directory": "gflow", "snapshot_stride": 0},
    })
    assert main(["simulate", "--config", str(path), "--quiet"]) == EXIT_OK
    rows = (tmp_path / "gflow" / "monitors.csv").read_text().splitlines()[1:]
    energies = np.array([float(r.split(",")[2]) for r in rows])
    assert np.all(np.diff(energies) <= 1e-12 * max(1.0, abs(energies[0])))


def test_cmd_simulate_bitwise_deterministic(tmp_path, monkeypatch):
    assert_simulate_runs_identical(tmp_path, monkeypatch)


def test_cmd_simulate_bitwise_deterministic_2d(tmp_path, monkeypatch):
    # the 2D solves (DCT for sigma, LU for phi) on an anisotropic grid
    assert_simulate_runs_identical(tmp_path, monkeypatch, {
        "grid": {"cells": [12, 7], "extent": [1.3, 0.7]},
        "kernel": {"width": 0.25},
        "initial": {"phi": {"kind": "bumps", "background": -0.4,
                            "centers": [[0.6, 0.3]], "amplitudes": [0.9],
                            "widths": [0.2]},
                    "sigma": {"kind": "constant", "value": 0.3}},
        "time": {"T": 0.1, "steps": 8},
        "output": {"directory": "out", "snapshot_stride": 4},
    })


def assert_simulate_runs_identical(tmp_path, monkeypatch, overrides=None):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, overrides)
    assert main(["simulate", "--config", str(path), "--out", "r1", "--quiet"]) == EXIT_OK
    assert main(["simulate", "--config", str(path), "--out", "r2", "--quiet"]) == EXIT_OK
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    names = sorted(p.name for p in r1.iterdir())
    assert names == sorted(p.name for p in r2.iterdir())
    for name in names:
        if name == MANIFEST_NAME:
            continue  # differs only if payloads differ; compared below anyway
        assert (r1 / name).read_bytes() == (r2 / name).read_bytes(), name
    m1 = json.loads((r1 / MANIFEST_NAME).read_text())
    m2 = json.loads((r2 / MANIFEST_NAME).read_text())
    assert m1["outputs"] == m2["outputs"]
    assert m1["config_sha256"] != ""


def test_cmd_gradcheck_passes_and_corruption_detected(tmp_path):
    path = write_cfg(tmp_path, {"time": {"T": 0.15, "steps": 10},
                                "grid": {"cells": [16]}})
    cfg = load_config(path)
    assert cmd_gradcheck(cfg, quiet=True) == EXIT_OK
    assert cmd_gradcheck(cfg, quiet=True, _corrupt_adjoint=True) == EXIT_CHECK


def test_cmd_gradcheck_zero_weights(tmp_path):
    path = write_cfg(tmp_path, {
        "grid": {"cells": [16]},
        "time": {"T": 0.15, "steps": 10},
        "cost": {"alpha_omega": 0.0, "alpha_u": 0.0, "beta_v": 0.0,
                 "targets": {"kind": "zero"}},
    })
    cfg = load_config(path)
    assert cmd_gradcheck(cfg, quiet=True) == EXIT_OK


def test_cmd_gradcheck_rejects_chemotaxis(tmp_path):
    path = write_cfg(tmp_path, {"kernel": {"amplitude": 8.0}, "model": {"chi": 0.4}})
    cfg = load_config(path)
    with pytest.raises(Exception):
        cmd_gradcheck(cfg, quiet=True)
    assert main(["gradcheck", "--config", str(path), "--quiet"]) == EXIT_VALIDATION


def test_cmd_optimize_manufactured(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, {
        "time": {"T": 0.3, "steps": 20},
        "cost": {"alpha_omega": 1.0, "alpha_q": 1.0, "beta_omega": 1.0, "beta_q": 1.0,
                 "alpha_u": 1e-6, "beta_v": 1e-6,
                 "targets": {"kind": "manufactured",
                             "u": {"kind": "bumps", "background": 0.0,
                                   "centers": [[0.3]], "amplitudes": [0.3],
                                   "widths": [0.1]},
                             "v": {"kind": "constant", "value": -0.1}}},
        "optimizer": {"tol": 1e-9, "max_iter": 12, "tau0": 1.0},
        "output": {"directory": "opt", "snapshot_stride": 10},
    })
    assert main(["optimize", "--config", str(path), "--quiet"]) == EXIT_OK
    out = tmp_path / "opt"
    rows = (out / "iterations.csv").read_text().splitlines()
    assert rows[0] == "iter,cost,residual,step_size,linesearch_count"
    costs = [float(r.split(",")[1]) for r in rows[1:]]
    assert costs[-1] <= 0.01 * costs[0]
    assert (out / "phi_final.snap").exists()
    assert (out / "u_000000.snap").exists()
    report = json.loads((out / "projection_report.json").read_text())
    assert report["termination"] in ("converged", "max_iterations")


def test_cmd_optimize_zero_iterations_when_stationary(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, {
        "cost": {"alpha_omega": 0.0, "alpha_u": 1.0, "beta_v": 1.0,
                 "targets": {"kind": "zero"}},
        "output": {"directory": "stat", "snapshot_stride": 0},
    })
    assert main(["optimize", "--config", str(path), "--quiet"]) == EXIT_OK
    rows = (tmp_path / "stat" / "iterations.csv").read_text().splitlines()
    assert len(rows) == 2  # header + starting iterate only


def test_cmd_optimize_infeasible_box(tmp_path):
    path = write_cfg(tmp_path, {"box": {"u_min": 1.0, "u_max": -1.0}})
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["optimize", "--config", str(path), "--quiet"]) == EXIT_VALIDATION


def test_cmd_validate(tmp_path):
    path = write_cfg(tmp_path)
    assert main(["validate", "--config", str(path), "--quiet"]) == EXIT_OK
    bad = write_cfg(tmp_path, {"model": {"A": 5.0}}, name="bad.json")
    assert main(["validate", "--config", str(bad), "--quiet"]) == EXIT_VALIDATION


def test_main_missing_config_file(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == EXIT_VALIDATION


def test_seed_override_changes_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path)
    assert main(["simulate", "--config", str(path), "--out", "s1", "--quiet"]) == EXIT_OK
    assert main(["simulate", "--config", str(path), "--out", "s2", "--seed", "99",
                 "--quiet"]) == EXIT_OK
    m1 = json.loads((tmp_path / "s1" / MANIFEST_NAME).read_text())
    m2 = json.loads((tmp_path / "s2" / MANIFEST_NAME).read_text())
    assert m1["seed"] == 5 and m2["seed"] == 99
    assert m1["config_sha256"] != m2["config_sha256"]


def test_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    # a blow-up guard below the initial |phi| trips on the first step
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, {
        "grid": {"cells": [16], "extent": [1.0]},
        "initial": {"phi": {"kind": "constant", "value": 0.9},
                    "sigma": {"kind": "constant", "value": 0.3}},
        "solver": {"blowup_guard": 0.5},
        "output": {"directory": "fail", "snapshot_stride": 0},
    })
    assert main(["simulate", "--config", str(path), "--quiet"]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "step 0: |phi| reached 0.9" in err and "> guard 0.5" in err


GUARDED_GRADCHECK = {
    # a smooth 16x16 field near 0.49 everywhere: |phi| stays above 0.45
    "grid": {"cells": [16, 16], "extent": [1.0, 1.0]},
    "kernel": {"amplitude": 8.0, "width": 0.25},
    "time": {"T": 0.1, "steps": 8},
    "initial": {"phi": {"kind": "bumps", "background": 0.4, "centers": [[0.5, 0.5]],
                        "amplitudes": [0.1], "widths": [0.2]},
                "sigma": {"kind": "constant", "value": 0.3}},
    "controls": {"u": {"kind": "constant", "value": 0.05},
                 "v": {"kind": "constant", "value": -0.05}},
}


def test_gradcheck_runs_under_config_guard(tmp_path, capsys):
    path = write_cfg(tmp_path, GUARDED_GRADCHECK)
    assert main(["gradcheck", "--config", str(path)]) == EXIT_OK
    assert "gradcheck PASS" in capsys.readouterr().out
    guarded = write_cfg(tmp_path, {**GUARDED_GRADCHECK, "solver": {"blowup_guard": 0.3}},
                        name="guarded.json")
    assert main(["gradcheck", "--config", str(guarded)]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert "step 0: |phi| reached 0.47" in captured.err and "> guard 0.3" in captured.err
    assert "gradcheck" not in captured.out


def test_optimize_runs_under_config_guard(tmp_path, monkeypatch, capsys):
    # the initial |phi| is about 0.5: the first forward sweep, at iterate 0, trips
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, {"solver": {"blowup_guard": 0.3},
                                "output": {"directory": "guarded", "snapshot_stride": 0}})
    assert main(["optimize", "--config", str(path)]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert "> guard 0.3" in captured.err
    assert "iter" not in captured.out
    assert not (tmp_path / "guarded" / "iterations.csv").exists()


def count_sweeps(monkeypatch) -> dict:
    """Count calls of every sweep entry point at each site that names it."""
    import sys

    from nlch_control import forward, sensitivity

    counts = {}
    for fn in (forward.simulate, sensitivity.tangent_sweep, sensitivity.vjp_sweep,
               sensitivity.adjoint_sweep):
        counts[fn.__name__] = 0

        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "nlch_control" or name.startswith("nlch_control."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
    return counts


def test_cmd_optimize_sweeps_once_per_trial_and_iterate(tmp_path, monkeypatch):
    # the report's final adjoint serves the projection report and the final
    # snapshots: no sweep runs after the optimiser returns
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, {"optimizer": {"tol": 1e-6, "max_iter": 30, "tau0": 1.0},
                                "output": {"directory": "opt", "snapshot_stride": 0}})
    counts = count_sweeps(monkeypatch)
    assert main(["optimize", "--config", str(path), "--quiet"]) == EXIT_OK
    rows = (tmp_path / "opt" / "iterations.csv").read_text().splitlines()[1:]
    linesearch_counts = [int(row.split(",")[-1]) for row in rows]
    iterations = len(rows) - 1
    assert iterations >= 2
    assert counts == {"simulate": 1 + sum(linesearch_counts), "tangent_sweep": 0,
                      "vjp_sweep": 0, "adjoint_sweep": 1 + iterations}


def test_config_to_dict_is_stable(tmp_path):
    path = write_cfg(tmp_path)
    cfg = load_config(path)
    d1 = config_to_dict(cfg)
    cfg2 = config_from_dict(json.loads(json.dumps(d1)), base_dir=cfg.base_dir)
    assert cfg2 == cfg
