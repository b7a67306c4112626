"""Configuration branches that pull fields from snapshot files."""

import json

import numpy as np
import pytest

from nlch_control import ControlPair, GridSpec, ScalarField, load_config, project_box
from nlch_control.errors import ConfigError
from nlch_control.snapshots import write_snapshot


@pytest.fixture
def grid():
    return GridSpec((24,), (1.0,))


def write_field(path, grid, values, name="field"):
    write_snapshot(path, ScalarField(grid, values), name, 0.0)


def base_raw():
    return {
        "grid": {"cells": [24], "extent": [1.0]},
        "kernel": {"family": "gaussian", "amplitude": 4.0, "width": 0.2},
        "model": {"A": 0.5, "B": 1.0, "chi": 0.0, "lambda_s": 2.0},
        "time": {"T": 0.1, "steps": 8},
    }


def test_initial_from_file(tmp_path, grid, rng):
    vals = 0.3 * rng.standard_normal(24)
    write_field(tmp_path / "phi0.snap", grid, vals, "phi")
    raw = base_raw()
    raw["initial"] = {"phi": {"kind": "file", "path": "phi0.snap"},
                      "sigma": {"kind": "constant", "value": 0.2}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    cfg = load_config(cfg_path)
    phi0, sigma0 = cfg.build_initial_state(cfg.build_grid())
    assert np.array_equal(phi0.values, vals)
    assert np.all(sigma0.values == 0.2)


def test_initial_file_grid_mismatch(tmp_path, rng):
    other = GridSpec((16,), (1.0,))
    write_field(tmp_path / "phi0.snap", other, rng.standard_normal(16), "phi")
    raw = base_raw()
    raw["initial"] = {"phi": {"kind": "file", "path": "phi0.snap"},
                      "sigma": {"kind": "constant", "value": 0.0}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    cfg = load_config(cfg_path)  # existence validated at load time
    with pytest.raises(ConfigError):
        cfg.build_initial_state(cfg.build_grid())


def test_box_bounds_from_file(tmp_path, grid, rng):
    upper = 0.5 + 0.1 * rng.random(24)
    write_field(tmp_path / "umax.snap", grid, upper, "u_max")
    raw = base_raw()
    raw["box"] = {"u_min": -1.0, "u_max": {"file": "umax.snap"},
                  "v_min": -1.0, "v_max": 1.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    cfg = load_config(cfg_path)
    g = cfg.build_grid()
    box = cfg.build_box(g)
    assert box.u_max.shape == (24,)
    assert np.array_equal(box.u_max, upper)
    # the per-cell bound holds at every step: the same clamp as against the
    # bound tiled to (steps, cells)
    controls = ControlPair(g, rng.uniform(-2.0, 2.0, (8, 24)), rng.uniform(-2.0, 2.0, (8, 24)))
    projected = project_box(controls, box)
    tiled = np.tile(upper, (8, 1))
    assert np.array_equal(projected.u, np.minimum(np.maximum(controls.u, -1.0), tiled))
    assert np.array_equal(projected.v, np.minimum(np.maximum(controls.v, -1.0), 1.0))


def test_targets_from_files(tmp_path, grid, rng):
    phi_om = rng.standard_normal(24)
    sigma_om = rng.standard_normal(24)
    write_field(tmp_path / "phi_om.snap", grid, phi_om, "phi")
    write_field(tmp_path / "sigma_om.snap", grid, sigma_om, "sigma")
    raw = base_raw()
    raw["cost"] = {"alpha_omega": 1.0, "beta_omega": 1.0, "alpha_u": 0.01,
                   "beta_v": 0.01,
                   "targets": {"kind": "files", "phi_omega": "phi_om.snap",
                               "sigma_omega": "sigma_om.snap"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    cfg = load_config(cfg_path)
    g = cfg.build_grid()
    spec = cfg.build_cost(g, cfg.build_kernel(g), cfg.build_params(), cfg.build_tgrid())
    assert np.array_equal(spec.phi_omega, phi_om)
    assert np.array_equal(spec.sigma_omega, sigma_om)
    # running targets default to zero for file-based final targets
    assert np.all(spec.phi_q == 0.0)


def test_missing_box_file_reported(tmp_path):
    raw = base_raw()
    raw["box"] = {"u_min": -1.0, "u_max": {"file": "nope.snap"},
                  "v_min": -1.0, "v_max": 1.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as exc_info:
        load_config(cfg_path)
    assert any("nope.snap" in f for f in exc_info.value.failures)
