"""Field snapshot files and CSV/manifest persistence.

Snapshot layout: an ASCII header terminated by a line reading "data",
followed by the raw cell values as little-endian float64 in row-major order.

    NLCH-SNAPSHOT 1
    dim 2
    cells 32 32
    spacing 0.03125 0.03125
    field phi
    time 0.5
    data
    <binary payload>

Numbers in headers and CSVs are written with repr, which round-trips float64
exactly, so read(write(x)) is the identity bitwise.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .errors import FieldShapeError, GridError
from .geometry import GridSpec, ScalarField

MAGIC = "NLCH-SNAPSHOT"
VERSION = 1

MONITOR_COLUMNS = ("step", "time", "energy", "mass_phi", "mass_sigma",
                   "sup_phi", "sup_sigma")
ITERATION_COLUMNS = ("iter", "cost", "residual", "step_size", "linesearch_count")


def write_snapshot(path, field: ScalarField, name: str, time: float):
    grid = field.grid
    header_lines = [
        f"{MAGIC} {VERSION}",
        f"dim {grid.dim}",
        "cells " + " ".join(str(n) for n in grid.cells_per_axis),
        "spacing " + " ".join(repr(h) for h in grid.spacing),
        f"field {name}",
        f"time {time!r}",
        "data",
    ]
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    Path(path).write_bytes(("\n".join(header_lines) + "\n").encode("ascii") + payload)


def read_snapshot(path) -> tuple[ScalarField, str, float]:
    """The field, name and time of a snapshot file; FieldShapeError (or
    GridError) naming path when the file cannot be read, its header is
    malformed or it describes no valid field."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise FieldShapeError(f"{path}: cannot read snapshot ({exc.strerror})") from None
    marker = b"\ndata\n"
    split = blob.find(marker)
    if split < 0:
        raise FieldShapeError(f"{path}: not a snapshot file (missing data marker)")
    try:
        header = blob[:split].decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise FieldShapeError(f"{path}: snapshot header is not ASCII") from None
    payload = blob[split + len(marker):]

    fields = {}
    for line in header:
        key, _, rest = line.partition(" ")
        fields[key] = rest
    if MAGIC not in fields or header[0].split() != [MAGIC, str(VERSION)]:
        raise FieldShapeError(f"{path}: bad snapshot magic/version")
    try:
        dim = int(fields["dim"])
        cells = tuple(int(n) for n in fields["cells"].split())
        spacing = tuple(float(s) for s in fields["spacing"].split())
        time = float(fields.get("time", "0.0"))
    except KeyError as exc:
        raise FieldShapeError(f"{path}: snapshot header has no {exc.args[0]!r} line") from None
    except ValueError as exc:
        raise FieldShapeError(f"{path}: snapshot header holds a non-number ({exc})") from None
    if len(cells) != dim or len(spacing) != dim:
        raise FieldShapeError(f"{path}: header dim/cells/spacing mismatch")
    name = fields.get("field", "")

    # exact: np.prod wraps around in int64 (cells 2**32 2**32 would count 0)
    count = math.prod(cells)
    if len(payload) != 8 * count:
        raise FieldShapeError(
            f"{path}: payload holds {len(payload) // 8} values, header says {count}"
        )
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    extent = tuple(h * n for h, n in zip(spacing, cells))
    try:
        field = ScalarField(GridSpec(cells, extent), values)
    except (GridError, FieldShapeError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return field, name, time


def write_monitors_csv(path, monitors):
    lines = [",".join(MONITOR_COLUMNS)]
    for row in monitors:
        step, time, energy, m_phi, m_sigma, s_phi, s_sigma = row
        lines.append(",".join([
            str(int(step)), repr(float(time)), repr(float(energy)),
            repr(float(m_phi)), repr(float(m_sigma)),
            repr(float(s_phi)), repr(float(s_sigma)),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_iterations_csv(path, report):
    lines = [",".join(ITERATION_COLUMNS)]
    for k in range(len(report.costs)):
        lines.append(",".join([
            str(k), repr(float(report.costs[k])), repr(float(report.residuals[k])),
            repr(float(report.step_sizes[k])), str(int(report.linesearch_counts[k])),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    return sha256_bytes(Path(path).read_bytes())


MANIFEST_NAME = "run_manifest.json"


def write_manifest(out_dir, command: str, config_hash: str, seed: int,
                   output_names: list[str]):
    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "config_sha256": config_hash,
        "seed": seed,
        "outputs": {name: sha256_file(out_dir / name) for name in sorted(output_names)},
    }
    (out_dir / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def manifest_present(out_dir) -> bool:
    return (Path(out_dir) / MANIFEST_NAME).exists()
