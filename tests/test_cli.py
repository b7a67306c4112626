import dataclasses
import functools
import hashlib
import importlib.machinery
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlch_control
from nlch_control import GridSpec, PgdOptions, ScalarField, load_config, solvers
from nlch_control.cli import (EXIT_CHECK, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION,
                              cmd_gradcheck, main)
from nlch_control.config import config_from_dict, config_json
from nlch_control.errors import ConfigError, FieldShapeError, GridError
from nlch_control.forward import DEFAULT_BLOWUP_GUARD
from nlch_control.gradcheck import run_gradcheck
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
    data = cfg.data
    assert data["grid"]["cells"] == [64]
    assert data["kernel"]["family"] == "gaussian"
    assert cfg.blowup_guard == 10.0 == DEFAULT_BLOWUP_GUARD
    assert data["optimizer"]["max_iter"] == 200
    assert cfg.pgd_options() == PgdOptions()
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


@pytest.mark.parametrize("overrides,failure", [
    ({"time": {"T": 0.0}}, "time: final time must be positive, got 0.0"),
    ({"time": {"steps": 0}}, "time: step count must be positive, got 0"),
    ({"cost": {"beta_q": -1.0}}, "cost: beta_q must be >= 0, got -1.0"),
    ({"box": {"u_min": 1.0, "u_max": -1.0}}, "box: u_min must be <= u_max at every cell"),
    ({"box": {"v_min": 1.0, "v_max": -1.0}}, "box: v_min must be <= v_max at every cell"),
    ({"optimizer": {"max_iter": -1}}, "optimizer: max_iter must be >= 0, got -1"),
    ({"optimizer": {"tau0": 0.0}}, "optimizer: tau0 must be finite and > 0, got 0.0"),
    ({"solver": {"blowup_guard": -1.0}}, "solver: blowup guard must be > 0, got -1.0"),
    ({"model": {"A": 5.0}}, "model: ellipticity hypothesis violation: c0 = -3.91402 <= chi^2 = 0"),
    ({"model": {"B": 0.0}}, "model: ellipticity hypothesis violation: c0 = -0.5 <= chi^2 = 0"),
], ids=["T", "steps", "weight", "u-box", "v-box", "max_iter", "tau0", "guard",
        "ellipticity-A", "ellipticity-B"])
def test_each_rule_is_the_message_of_the_object_that_owns_it(tmp_path, capsys, overrides,
                                                              failure):
    # validation builds the object a rule belongs to (TimeGrid, CostSpec,
    # BoxConstraints, PgdOptions, the guard and ellipticity checks) and lists
    # its message once, under the section's name
    path = write_cfg(tmp_path, overrides)
    assert main(["validate", "--config", str(path), "--quiet"]) == EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "error: invalid configuration:"
    assert sum(line.startswith(f"  - {failure}") for line in lines) == 1


def test_every_failure_of_an_object_is_listed(tmp_path):
    path = write_cfg(tmp_path, {"time": {"T": -1.0, "steps": 0},
                                "box": {"u_min": 2.0, "u_max": -2.0,
                                        "v_min": 1.0, "v_max": -1.0}})
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert exc_info.value.failures == ["time: final time must be positive, got -1.0",
                                       "time: step count must be positive, got 0",
                                       "box: u_min must be <= u_max at every cell",
                                       "box: v_min must be <= v_max at every cell"]


def test_nonpositive_tol_validates_and_runs_max_iter_iterations(tmp_path, monkeypatch,
                                                               capsys):
    # the rule is PgdOptions': any tol but NaN. A run never stops "converged"
    # on a negative tol, so it takes every one of its max_iter iterations
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, {"optimizer": {"tol": -1.0, "max_iter": 4}})
    assert main(["validate", "--config", str(path), "--quiet"]) == EXIT_OK
    assert main(["optimize", "--config", str(path), "--quiet"]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "projection_report.json").read_text())
    assert report["termination"] == "max_iterations"
    assert report["iterations"] == 4
    assert "not converged (max_iterations)" in capsys.readouterr().err


def test_optimize_with_zero_weights_exits_2_before_making_the_output(tmp_path, monkeypatch,
                                                                    capsys):
    # a zero cost is a valid configuration (gradcheck checks its zero
    # gradients), but optimize refuses it before it makes the output directory
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, {"cost": {"alpha_omega": 0.0, "alpha_u": 0.0, "beta_v": 0.0}})
    assert main(["validate", "--config", str(path), "--quiet"]) == EXIT_OK
    assert main(["optimize", "--config", str(path), "--quiet"]) == EXIT_VALIDATION
    assert "cost weights must not all be zero" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flag,directory", [
    ("simulate", False, "taken"), ("optimize", False, "taken"),
    ("simulate", True, "taken"), ("optimize", True, "taken/inside"),
], ids=["simulate", "optimize", "simulate-out", "optimize-out-below-a-file"])
def test_output_directory_that_is_a_file_exits_2(tmp_path, monkeypatch, capsys, command,
                                                 flag, directory):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("a file\n")
    if flag:
        argv = ["--config", str(write_cfg(tmp_path)), "--out", directory]
    else:
        argv = ["--config", str(write_cfg(tmp_path, {"output": {"directory": directory}}))]
    assert main([command, *argv, "--quiet"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid configuration:\n  - cannot make output directory "
                          f"{directory}: ")
    assert err.count("\n") == 2
    assert (tmp_path / "taken").read_text() == "a file\n"


@pytest.mark.parametrize("key", ["method", "cg_tol", "cg_max_iter"])
def test_removed_solver_keys_are_unknown(tmp_path, capsys, key):
    # the solver choice is gone; a config that still sets one of its keys
    # must fail loudly rather than be ignored
    path = write_cfg(tmp_path, {"solver": {key: 1, "blowup_guard": 10.0}})
    assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
    assert f"solver: unknown keys ['{key}']" in capsys.readouterr().err


def test_removed_potential_key_is_unknown(tmp_path, capsys):
    # the quartic double well is the only potential; naming it is an error
    path = write_cfg(tmp_path, {"model": {"potential": "quartic_double_well"}})
    assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
    assert "model: unknown keys ['potential']" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,literal", [
    ("solver", "blowup_guard", "NaN"),
    ("optimizer", "tol", "Infinity"),
    ("cost", "alpha_u", "1e400"),
    ("model", "A", "Infinity"),
])
def test_config_rejects_nonfinite_numbers(tmp_path, capsys, section, key, literal):
    # JSON accepts NaN, Infinity and overflowing literals; NaN in particular
    # passes every "must be positive" comparison. The value is reported once,
    # where it is read: no later check (such as the ellipticity margin) sees it
    path = write_cfg(tmp_path, {section: {key: "PLACEHOLDER"}})
    path.write_text(path.read_text().replace('"PLACEHOLDER"', literal))
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert exc_info.value.failures == [
        f"{section}.{key} must be a finite number, got {float(literal)}"]
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
    data = load_config(path).data
    assert data["time"]["steps"] == 16 and type(data["time"]["steps"]) is int
    assert data["grid"]["cells"] == [24] and type(data["grid"]["cells"][0]) is int


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
    assert cfg.data["solver"] == raw["solver"]


def test_readme_example_report_bounds_its_defects(tmp_path, capsys):
    # the example converges under its own max_iter, and projection_report.json
    # states the Calamai-More bound on each defect and the sweeps that the
    # run made
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    raw = json.loads(re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)[0])
    path = tmp_path / "readme_example.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    report = json.loads((out / "projection_report.json").read_text())
    assert report["termination"] == "converged"
    rows = (out / "iterations.csv").read_text().splitlines()[1:]
    trials = sum(int(row.split(",")[4]) for row in rows)
    assert report["linesearch_trials"] == trials and report["exhausted_trials"] == 0
    assert report["sweeps"] == 1 + trials + report["iterations"] + 1
    for label, weight in (("u", raw["cost"]["alpha_u"]), ("v", raw["cost"]["beta_v"])):
        assert report[f"defect_bound_{label}"] == (
            max(1.0, 1.0 / weight) * report[f"unit_step_residual_{label}"])
        assert report[f"projection_defect_{label}"] <= (
            report[f"defect_bound_{label}"] + 4 * np.finfo(float).eps / weight)


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
    out.write_text(config_json(cfg))
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
    assert cfg.build_params().chi == 0.4


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


def test_snapshot_cell_count_does_not_wrap_around(tmp_path):
    # 2**32 x 2**32 cells are 2**64 values, 0 in int64 arithmetic: an empty
    # payload must not read as a field of 0 values
    path = tmp_path / "huge.snap"
    path.write_bytes(b"NLCH-SNAPSHOT 1\ndim 2\ncells 4294967296 4294967296\n"
                     b"spacing 1.0 1.0\nfield phi\ntime 0.0\ndata\n")
    with pytest.raises(FieldShapeError, match="header says 18446744073709551616"):
        read_snapshot(path)


@pytest.mark.parametrize("spacing", ["nan", "inf", "-0.125"])
def test_snapshot_rejects_bad_spacing(tmp_path, spacing):
    path = tmp_path / "bad.snap"
    path.write_bytes(f"NLCH-SNAPSHOT 1\ndim 1\ncells 8\nspacing {spacing}\nfield phi\n"
                     "time 0.0\ndata\n".encode("ascii") + np.zeros(8).tobytes())
    with pytest.raises(GridError, match=re.escape(f"{path}: extents must be positive and finite")):
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


# runs the CLI in a fresh interpreter and prints the scipy modules it loaded
_SCIPY_AFTER_CLI = ("import json, sys\nfrom nlch_control.cli import main\n"
                    "assert main(sys.argv[1:]) == 0\n"
                    "print(json.dumps([m for m in sys.modules"
                    " if m.split('.')[0].startswith('scipy')]))")
_GRID_2D = {"grid": {"cells": [12, 7], "extent": [1.3, 0.7]}, "kernel": {"width": 0.25},
            "initial": {"phi": {"kind": "bumps", "background": -0.4, "centers": [[0.6, 0.3]],
                                "amplitudes": [0.9], "widths": [0.2]},
                        "sigma": {"kind": "constant", "value": 0.3}}}


_SUPERLU_ONLY = {"scipy.sparse.linalg._dsolve._superlu"}


@pytest.mark.parametrize("command,overrides,loaded_scipy", [
    ("simulate", {"grid": {"cells": [256]}, "time": {"T": 0.05, "steps": 4}}, set()),
    ("optimize", {"optimizer": {"max_iter": 3}}, set()),
    ("simulate", _GRID_2D, _SUPERLU_ONLY),
    ("simulate", {**_GRID_2D,
                  "kernel": {"family": "mollifier", "amplitude": 100.0, "width": 0.25}},
     _SUPERLU_ONLY),
    ("gradcheck", {**_GRID_2D, "time": {"T": 0.02, "steps": 3}}, _SUPERLU_ONLY),
    ("validate", _GRID_2D, set()),
], ids=["simulate-1d-256", "optimize-1d", "simulate-2d", "simulate-2d-mollifier",
        "gradcheck-2d", "validate-2d"])
def test_scipy_loaded_only_off_the_dense_path(tmp_path, command, overrides, loaded_scipy):
    # small 1D runs apply dense numpy operators only; a 2D run convolves
    # through per-axis products (Gaussian) or numpy.fft (mollifier), solves
    # the nutrient step through DCT-II matrices and loads scipy's compiled
    # SuperLU module alone for the sparse LU: no scipy Python package, so
    # neither scipy.sparse nor scipy.linalg. validate factorises nothing.
    path = write_cfg(tmp_path, overrides)
    src = str(Path(nlch_control.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _SCIPY_AFTER_CLI, command, "--config", str(path),
                          "--quiet"], cwd=tmp_path, env=env, capture_output=True, text=True,
                         check=True, timeout=300)
    assert set(json.loads(out.stdout)) == loaded_scipy


@pytest.mark.parametrize("broken", ["missing", "unloadable"])
def test_broken_superlu_extension_exits_3(tmp_path, monkeypatch, capsys, broken):
    # scipy installed without its SuperLU file, or with a file that is no
    # extension: the first factorisation of a 2D run fails with a solver
    # error naming the path and the scipy version, and the CLI exits 3, not
    # with a traceback
    scipy_dir = tmp_path / "scipy"
    folder = scipy_dir / "sparse" / "linalg" / "_dsolve"
    folder.mkdir(parents=True)
    if broken == "unloadable":
        (folder / ("_superlu" + importlib.machinery.EXTENSION_SUFFIXES[0])).write_bytes(b"")
    monkeypatch.setattr(solvers, "_scipy_dirs", lambda: [str(scipy_dir)])
    monkeypatch.delitem(sys.modules, solvers._SUPERLU, raising=False)
    path = write_cfg(tmp_path, _GRID_2D)
    assert main(["simulate", "--config", str(path), "--quiet"]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith({"missing": "solver error: scipy's SuperLU extension is missing",
                           "unloadable": "solver error: cannot load"}[broken])
    assert str(folder) in err
    assert re.search(r"\(scipy \S+\)$", err.strip())
    assert solvers._SUPERLU not in sys.modules


def test_cmd_gradcheck_passes_and_corruption_detected(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, {"time": {"T": 0.15, "steps": 10},
                                "grid": {"cells": [16]}})
    cfg = load_config(path)
    assert cmd_gradcheck(cfg, quiet=True) == EXIT_OK
    monkeypatch.setattr("nlch_control.cli.run_gradcheck",
                        functools.partial(run_gradcheck, corrupt_adjoint=True))
    assert cmd_gradcheck(cfg, quiet=True) == EXIT_CHECK


def test_cmd_gradcheck_zero_weights(tmp_path):
    path = write_cfg(tmp_path, {
        "grid": {"cells": [16]},
        "time": {"T": 0.15, "steps": 10},
        "cost": {"alpha_omega": 0.0, "alpha_u": 0.0, "beta_v": 0.0,
                 "targets": {"kind": "zero"}},
    })
    cfg = load_config(path)
    assert cmd_gradcheck(cfg, quiet=True) == EXIT_OK


def test_cmd_gradcheck_and_optimize_with_chemotaxis(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, {"kernel": {"amplitude": 8.0}, "model": {"chi": 0.4}})
    assert main(["gradcheck", "--config", str(path), "--quiet"]) == EXIT_OK
    assert main(["optimize", "--config", str(path), "--quiet"]) == EXIT_OK
    assert (tmp_path / "out" / "iterations.csv").is_file()


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


def test_cmd_optimize_says_when_it_stops_short(tmp_path, monkeypatch, capsys):
    # exit 0 either way; a run that ends short of tol says so on stderr even
    # under --quiet, and a converged run writes nothing there
    monkeypatch.chdir(tmp_path)
    for max_iter, termination in ((2, "max_iterations"), (30, "converged")):
        path = write_cfg(tmp_path, {"optimizer": {"tol": 1e-6, "max_iter": max_iter},
                                    "output": {"directory": termination}})
        assert main(["optimize", "--config", str(path), "--quiet"]) == EXIT_OK
        report = json.loads((tmp_path / termination / "projection_report.json").read_text())
        assert report["termination"] == termination
        assert capsys.readouterr().err == (
            "" if termination == "converged" else
            f"optimize: not converged (max_iterations), residual "
            f"{report['final_residual']:.3e}, tol 1.000e-06\n")


def test_cmd_optimize_infeasible_box(tmp_path):
    path = write_cfg(tmp_path, {"box": {"u_min": 1.0, "u_max": -1.0}})
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["optimize", "--config", str(path), "--quiet"]) == EXIT_VALIDATION


@pytest.mark.parametrize("command", ["simulate", "optimize", "gradcheck"])
def test_runs_reject_inadmissible_config(tmp_path, capsys, monkeypatch, command):
    # c0 = A min F'' + B min a <= chi^2 is caught where the config is read,
    # before any output directory is made
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, {"model": {"A": 5.0}})
    assert main([command, "--config", str(path), "--quiet"]) == EXIT_VALIDATION
    assert re.search(r"hypothesis violation: c0 = .* <= chi\^2", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_cmd_validate(tmp_path):
    path = write_cfg(tmp_path)
    assert main(["validate", "--config", str(path), "--quiet"]) == EXIT_OK
    bad = write_cfg(tmp_path, {"model": {"A": 5.0}}, name="bad.json")
    assert main(["validate", "--config", str(bad), "--quiet"]) == EXIT_VALIDATION


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_problem_beyond_memory_exits_2(tmp_path, monkeypatch, capsys, command):
    # 1e15 steps of 24 cells ask numpy for petabytes of trajectory, which it
    # refuses at once while the config is validated: one collected failure
    # naming time.steps, not a traceback, and no output directory
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, {"time": {"steps": 1e15}})
    assert main([command, "--config", str(path), "--quiet"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:\n  - time.steps 1000000000000000: "
                          "the trajectory does not fit in memory (")
    assert err.count("\n") == 2
    assert not (tmp_path / "out").exists()


def test_trajectory_beyond_memory_is_a_collected_failure():
    # the guard asks numpy for the two state arrays and writes neither, so a
    # refused size is reported with the configuration's other failures
    with pytest.raises(ConfigError) as exc_info:
        config_from_dict({"time": {"steps": 1e15}, "seed": -1})
    failures = exc_info.value.failures
    assert len(failures) == 2
    assert failures[0].startswith("time.steps 1000000000000000: the trajectory does "
                                  "not fit in memory (")
    assert failures[1] == "seed must be nonnegative, got -1"


@pytest.mark.parametrize("cells", [[1e15], [1e8, 1e8], [2**32, 2**32]],
                         ids=["1d", "2d", "2d-past-int64"])
def test_grid_beyond_memory_is_a_collected_failure(tmp_path, capsys, cells):
    # numpy refuses one field of each grid (petabytes, or 2**64 values, past
    # its index range) at once, before the kernel's tables are built, so
    # nothing here touches memory
    raw = {"grid": {"cells": cells, "extent": [1.0] * len(cells)}, "seed": -1}
    with pytest.raises(ConfigError) as exc_info:
        config_from_dict(raw)
    failures = exc_info.value.failures
    assert failures[0].startswith(f"grid.cells {[int(n) for n in cells]}: the grid does "
                                  "not fit in memory (")
    assert failures[1:] == ["seed must be nonnegative, got -1"]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(path), "--quiet"]) == EXIT_VALIDATION
    assert "grid.cells" in capsys.readouterr().err


# runs `validate` after capping its own address space at what it has mapped
# plus LIMIT_BYTES; prints the exit code and the peak RSS in kB as JSON
_VALIDATE_UNDER_LIMIT = """
import json, resource, sys
from nlch_control.cli import main
with open("/proc/self/statm") as statm:
    mapped = int(statm.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS,
                   (mapped + int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_AS)[1]))
code = main(["validate", "--config", sys.argv[2]])
print(json.dumps([code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_kernel_tables_beyond_memory_are_refused_before_any_is_written(tmp_path):
    # one field of cells [1e8, 2] (1.6 GB) is granted lazily, but the 2D
    # Gaussian's 1e8 x 1e8 Toeplitz factor is not: build_kernel asks for it
    # before it samples the 2e8 per-axis offsets and taps (1.6 GB each), so
    # validate ends with the collected failure and writes no large table.
    # The limit (what the child has mapped plus 1.75 GiB) grants the field
    # probe and no second 1.6 GB table, so a build that writes its offsets
    # first ends at about 1.6 GB of RSS instead of taking the machine's memory
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"grid": {"cells": [1e8, 2], "extent": [1.0, 0.1]},
                                "kernel": {"family": "gaussian", "amplitude": 4.0,
                                           "width": 0.2}}))
    src = str(Path(nlch_control.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _VALIDATE_UNDER_LIMIT, str(int(1.75 * 2**30)),
                          str(path)], cwd=tmp_path, env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    code, peak_kb = json.loads(out.stdout)
    assert code == EXIT_VALIDATION
    assert out.stderr.startswith("error: invalid configuration:\n  - grid.cells [100000000, 2]: "
                                 "the grid does not fit in memory (")
    # about 33 MB (the interpreter and numpy) where this was measured
    assert peak_kb < 200 * 1024


@pytest.mark.parametrize("command", ["gradcheck", "validate"])
def test_out_flag_only_where_a_command_writes(tmp_path, command):
    path = write_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--config", str(path), "--out", "elsewhere"])
    assert exc_info.value.code == 2


def test_out_override_is_hashed_like_the_config_key(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, {"time": {"T": 0.02, "steps": 2}})
    assert main(["simulate", "--config", str(path), "--out", "o1", "--quiet"]) == EXIT_OK
    raw = json.loads(path.read_text())
    raw["output"]["directory"] = "o1"
    manifest = json.loads((tmp_path / "o1" / MANIFEST_NAME).read_text())
    assert manifest["config_sha256"] == hashlib.sha256(
        config_json(config_from_dict(raw)).encode()).hexdigest()
    # an output section that is no object stays a collected failure
    bad = write_cfg(tmp_path, {"output": 5}, name="bad.json")
    assert main(["simulate", "--config", str(bad), "--out", "o2", "--quiet"]) == EXIT_VALIDATION
    assert "output: expected an object" in capsys.readouterr().err


def _snapshot_with_header(path, header: bytes, values=np.zeros(24)):
    path.write_bytes(header + b"\ndata\n" + np.asarray(values).astype("<f8").tobytes())


_GOOD_HEADER = b"NLCH-SNAPSHOT 1\ndim 1\ncells 24\nspacing 0.041666666666666664\ntime 0.0"


@pytest.mark.parametrize("case", [
    "missing_dim", "nonnumeric_dim", "nonnumeric_cells", "nonnumeric_spacing",
    "nonnumeric_time", "non_ascii_header", "directory", "controls_other_grid",
    "files_target_other_grid", "manufactured_other_grid", "one_cell",
    "negative_spacing", "nonfinite_payload",
])
def test_cmd_validate_reports_bad_input_files(tmp_path, capsys, case):
    # every input file a run would read is read by validate; a bad one ends
    # with exit 2 and a message naming the file, never a traceback or exit 0
    bad = tmp_path / "bad.snap"
    headers = {
        "missing_dim": _GOOD_HEADER.replace(b"dim 1\n", b""),
        "nonnumeric_dim": _GOOD_HEADER.replace(b"dim 1", b"dim one"),
        "nonnumeric_cells": _GOOD_HEADER.replace(b"cells 24", b"cells 2x4"),
        "nonnumeric_spacing": _GOOD_HEADER.replace(b"spacing 0.0416", b"spacing h0.0416"),
        "nonnumeric_time": _GOOD_HEADER.replace(b"time 0.0", b"time zero"),
        "non_ascii_header": _GOOD_HEADER + b"\nfield \xcf\x86",
        "negative_spacing": _GOOD_HEADER.replace(b"spacing 0.0416", b"spacing -0.0416"),
    }
    if case in headers:
        _snapshot_with_header(bad, headers[case])
    elif case == "one_cell":
        _snapshot_with_header(bad, b"NLCH-SNAPSHOT 1\ndim 1\ncells 1\nspacing 1.0", [0.0])
    elif case == "nonfinite_payload":
        _snapshot_with_header(bad, _GOOD_HEADER, [0.0] * 23 + [np.nan])
    elif case == "directory":
        bad.mkdir()
    else:
        # a well-formed snapshot on an 8-cell grid, the run has 24 cells
        write_snapshot(bad, ScalarField.constant(GridSpec((8,), (1.0,)), 0.1), "u", 0.0)
    file_field = {"kind": "file", "path": bad.name}
    overrides = {"initial": {"phi": file_field, "sigma": {"kind": "constant", "value": 0.3}}}
    if case == "controls_other_grid":
        overrides = {"controls": {"u": file_field, "v": {"kind": "constant", "value": 0.0}}}
    elif case == "files_target_other_grid":
        overrides = {"cost": {"targets": {"kind": "files", "phi_omega": bad.name,
                                          "sigma_omega": bad.name}}}
    elif case == "manufactured_other_grid":
        overrides = {"cost": {"targets": {"kind": "manufactured", "u": file_field}}}
    path = write_cfg(tmp_path, overrides)
    assert main(["validate", "--config", str(path), "--quiet"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert bad.name in err, err


@pytest.mark.parametrize("grid, key, spec, expected", [
    ({"cells": [12, 10], "extent": [1.0, 0.8]}, "initial",
     {"phi": {"kind": "bumps", "centers": [[0.5]], "amplitudes": [0.9], "widths": [0.12]}},
     "initial.phi.centers[0] must have 2 coordinates, got 1"),
    ({"cells": [24], "extent": [1.0]}, "controls",
     {"u": {"kind": "bumps", "centers": [[]], "amplitudes": [0.1], "widths": [0.1]}},
     "controls.u.centers[0] must have 1 coordinates, got 0"),
    ({"cells": [24], "extent": [1.0]}, "cost",
     {"targets": {"kind": "manufactured",
                  "u": {"kind": "bumps", "centers": [[0.3], [0.5, 7.0]],
                        "amplitudes": [0.1, 0.1], "widths": [0.1, 0.1]}}},
     "cost.targets.u.centers[1] must have 1 coordinates, got 2"),
], ids=["2d_short", "1d_empty", "1d_long"])
def test_config_rejects_bump_centres_off_grid_dimension(tmp_path, capsys, grid, key, spec,
                                                        expected):
    path = write_cfg(tmp_path, {"grid": grid, key: spec})
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert expected in exc_info.value.failures
    assert main(["validate", "--config", str(path), "--quiet"]) == EXIT_VALIDATION
    assert expected in capsys.readouterr().err


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


def test_optimize_trial_guard_trip_names_the_trial(tmp_path, monkeypatch, capsys):
    # the starting iterate runs; the first trial, at the corner of a wide box,
    # trips the guard and still ends with exit 3
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, {"box": {"u_min": -1e4, "u_max": 1e4,
                                        "v_min": -1e4, "v_max": 1e4},
                                "optimizer": {"tau0": 1e6},
                                "output": {"directory": "wide", "snapshot_stride": 0}})
    assert main(["optimize", "--config", str(path), "--quiet"]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver error: PGD iteration 1, line-search trial 1: the sweep of "
                          "the trial at step lambda*alpha = 1e+06 within the box")
    assert "reduce dt" not in err


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


@pytest.mark.parametrize("argv", [["simulate"], ["gradcheck"], ["optimize"],
                                  ["simulate", "--seed", "7"]], ids=" ".join)
def test_command_builds_its_kernel_once(tmp_path, monkeypatch, argv):
    # validation builds the kernel to check the ellipticity margin; the
    # command runs with that kernel instead of building another
    from nlch_control import kernels

    monkeypatch.chdir(tmp_path)
    original = kernels.build_kernel
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "nlch_control" or name.startswith("nlch_control."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    path = write_cfg(tmp_path, {"time": {"T": 0.02, "steps": 2},
                                "optimizer": {"tol": 1e-6, "max_iter": 2, "tau0": 1.0}})
    assert main(argv + ["--config", str(path), "--quiet"]) == EXIT_OK
    assert len(calls) == 1


def test_config_to_dict_is_stable(tmp_path):
    path = write_cfg(tmp_path)
    cfg = load_config(path)
    cfg2 = config_from_dict(json.loads(json.dumps(cfg.data)), base_dir=cfg.base_dir)
    assert cfg2 == cfg
