"""The canonical bytes of a configuration.

`config_json` is what every manifest's `config_sha256` hashes, so the same
configuration must serialise to the same bytes from one version to the next.
Each case below pins the sha256 of `config_json(load_config(path))`: integral
floats become ints where a count is due, every other number a float, field
specs and cost targets keep only the keys their kind uses, and a box bound is
a number or {"file": path}.
"""

import hashlib
import json

import numpy as np
import pytest

from nlch_control import GridSpec, ScalarField, load_config
from nlch_control.config import config_json
from nlch_control.snapshots import write_snapshot

GRID = {"cells": [24], "extent": [1]}
MODEL = {"A": 0.5, "B": 1, "chi": 0, "lambda_s": 2}
BUMPS = {"kind": "bumps", "background": -0.4, "centers": [[0.5]],
         "amplitudes": [0.9], "widths": [0.12]}

CASES = {
    "defaults": ({}, "9a593d09a1c0c6bd07b9929332a8e3efd9651ae8b628b0c799ad312bfb7e98a3"),
    "zero_integral_floats": ({
        "grid": {"cells": [24.0], "extent": [1.0]},
        "model": MODEL,
        "time": {"T": 0.2, "steps": 16.0},
        "initial": {"phi": BUMPS, "sigma": {"kind": "constant", "value": 0}},
        "cost": {"alpha_omega": 1, "alpha_u": 0.01, "beta_v": 0.01,
                 "targets": {"kind": "zero", "phi_q": 3.0}},
        "optimizer": {"tol": 1e-6, "max_iter": 10.0, "tau0": 2},
        "output": {"directory": "runs/zero", "snapshot_stride": 4.0},
        "seed": 7.0,
    }, "412459b629a9cf8d4e2f2614bf3f757f8d774e24cd3c3a1dc052458669ebe011"),
    "constant": ({
        "grid": GRID,
        "kernel": {"family": "mollifier", "amplitude": 100, "width": 0.25},
        "model": MODEL,
        "time": {"T": 0.1, "steps": 8},
        "controls": {"u": {"kind": "constant", "value": 0.05, "path": "ignored.snap"},
                     "v": {"kind": "constant", "value": -1}},
        "cost": {"alpha_omega": 1, "alpha_q": 1, "beta_omega": 1, "beta_q": 1,
                 "alpha_u": 0.01, "beta_v": 0.01,
                 "targets": {"kind": "constant", "phi_omega": 0.2, "sigma_omega": 0,
                             "phi_q": 1, "sigma_q": 0.3}},
        "box": {"u_min": -2, "u_max": 2.5, "v_min": 0, "v_max": 1e-3},
    }, "1df1c1fa9fe02dcb1b2fe28b4182bbc2dca9e07ef4317fd16c68975b9816fafb"),
    "files": ({
        "grid": GRID,
        "model": MODEL,
        "time": {"T": 0.1, "steps": 8},
        "initial": {"phi": {"kind": "file", "path": "phi0.snap", "value": 1.0},
                    "sigma": {"kind": "constant", "value": 0.2}},
        "controls": {"u": {"kind": "file", "path": "u0.snap"},
                     "v": {"kind": "constant", "value": 0.0}},
        "cost": {"targets": {"kind": "files", "phi_omega": "phi_T.snap",
                             "sigma_omega": "sigma_T.snap"}},
        "box": {"u_min": {"file": "umin.snap"}, "u_max": 1,
                "v_min": -1, "v_max": {"file": "vmax.snap"}},
    }, "6dab912953dc57ffe054692926bd3d4b16bee00cc7d23ab1b07a54b5153f66d7"),
    "manufactured": ({
        "grid": GRID,
        "model": dict(MODEL, chi=0.1),
        "kernel": {"amplitude": 8},
        "time": {"T": 0.2, "steps": 12},
        "cost": {"alpha_omega": 1, "alpha_q": 1, "beta_omega": 1, "beta_q": 1,
                 "alpha_u": 1e-4, "beta_v": 1e-4,
                 "targets": {"kind": "manufactured",
                             "u": {"kind": "bumps", "background": 0, "centers": [[0.3]],
                                   "amplitudes": [0.3], "widths": [0.1]}}},
        "optimizer": {"tol": 1e-8, "max_iter": 8, "tau0": 1.0},
        "solver": {"blowup_guard": 20},
    }, "7618d6bc33c4e53a9269f752ed1033173a5f9045a6f376c202d97bc357f10dc8"),
}

SNAPSHOTS = ("phi0.snap", "u0.snap", "phi_T.snap", "sigma_T.snap", "umin.snap", "vmax.snap")


@pytest.mark.parametrize("raw,digest", CASES.values(), ids=CASES.keys())
def test_config_json_bytes_are_pinned(tmp_path, raw, digest):
    grid = GridSpec((24,), (1.0,))
    for i, name in enumerate(SNAPSHOTS):
        write_snapshot(tmp_path / name, ScalarField(grid, np.full(24, 0.1 * i)), "field", 0.0)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    text = config_json(load_config(path))
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text
