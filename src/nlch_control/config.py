"""Run configuration: a documented JSON format, validated in one pass that
collects every failure instead of stopping at the first.

Each rule on a value is checked once, by the object it concerns: the pass
builds it and lists each of its failures under the section's name. These
are GridSpec, ModelParams with physics.require_ellipticity (applied to the
raw A, B and chi), build_kernel, TimeGrid, forward.require_guard (solver),
CostSpec (the weights) and BoxConstraints (number bounds), these two on a
two-cell grid, and PgdOptions, which takes any tol: with tol <= 0 a run
never converges and stops at max_iter. The pass itself checks the seed, the
snapshot stride, bump centres, that named files exist and that the grid fits.

That pass merges the defaults and brings every value into its canonical
JSON form, and that normalised dict (RunConfig.data) is the configuration:
the builders read it, and config_json serialises it for the config_sha256 of
every run manifest. In the canonical form grid.cells, time.steps,
optimizer.max_iter, output.snapshot_stride and seed are ints, every other
number is a finite float, a field spec or cost target keeps only the keys
its kind uses, and a box bound is a number or {"file": path}.

Top-level keys (all optional, defaults below):

  grid       {"cells": [64], "extent": [1.0]}
  kernel     {"family": "gaussian", "amplitude": 4.0, "width": 0.2}
  model      {"A": 0.5, "B": 1.0, "chi": 0.0, "lambda_s": 2.0,
              "proliferation": "smoothed_ramp", "distribution": "same_as_p"}
  time       {"T": 0.25, "steps": 25}
  initial    {"phi": FIELD, "sigma": FIELD}
  controls   {"u": FIELD, "v": FIELD}              initial guess / manufactured
             (constant in time, built as one row of cells broadcast over
             the steps, a read-only view)
  solver     {"blowup_guard": 10.0}
  cost       {"alpha_omega": 1.0, "alpha_q": 0.0, "beta_omega": 0.0,
              "beta_q": 0.0, "alpha_u": 0.01, "beta_v": 0.01,
              "targets": {"kind": "zero"}}
  box        {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0}
             (each bound a number, or {"file": "bound.snap"}); bounds are
             per cell and time-invariant, built as one row of cells
  optimizer  {"tol": 1e-4, "max_iter": 200, "tau0": 1.0}
             monotone spectral projected gradient; tau0 is its first
             spectral step (see control.pgd_optimize)
  output     {"directory": "out", "snapshot_stride": 0}
  seed       0

FIELD specs:
  {"kind": "constant", "value": 0.1}
  {"kind": "bumps", "background": -0.4, "centers": [[0.5]],
   "amplitudes": [0.8], "widths": [0.1]}       (Gaussian bumps)
  {"kind": "file", "path": "phi0.snap"}        (snapshot file)

cost.targets kinds (the running targets phi_q / sigma_q are built as one
row when constant in time, as one row per step for manufactured):
  {"kind": "zero"}                              all targets identically zero
  {"kind": "constant", "phi_omega": v, "sigma_omega": v,
   "phi_q": v, "sigma_q": v}
  {"kind": "files", "phi_omega": path, "sigma_omega": path}
                                                (running targets zero)
  {"kind": "manufactured", "u": FIELD, "v": FIELD}
      simulate with these constant-in-time controls and track that
      trajectory: phi_q/sigma_q are its left-endpoint slices, the Omega
      targets its final state.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .control import COST_WEIGHTS, BoxConstraints, CostSpec, PgdOptions
from .errors import ConfigError, NLCHError
from .forward import DEFAULT_BLOWUP_GUARD, ControlPair, TimeGrid, require_guard, simulate
from .geometry import GridSpec, ScalarField
from .kernels import KernelData, KernelSpec, build_kernel
from .physics import DistributionSpec, ModelParams, ProliferationSpec, require_ellipticity

_BOUNDS = ("u_min", "u_max", "v_min", "v_max")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description; builders realise the heavy objects.

    data is the canonical form (see the module docstring), base_dir the
    directory that relative file paths are read from."""

    data: dict
    base_dir: str = field(default=".", compare=False)
    # [(spec, grid), kernel] of the kernel built last, which build_kernel
    # hands out again for the same key: validation builds it, the command
    # reuses it
    kernel_slot: list = field(default_factory=list, compare=False, repr=False)

    @property
    def blowup_guard(self) -> float:
        return self.data["solver"]["blowup_guard"]

    @property
    def snapshot_stride(self) -> int:
        return self.data["output"]["snapshot_stride"]

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def output_directory(self) -> str:
        return self.data["output"]["directory"]

    # ---- builders -------------------------------------------------------

    def build_grid(self) -> GridSpec:
        return GridSpec(self.data["grid"]["cells"], self.data["grid"]["extent"])

    def build_kernel(self, grid: GridSpec) -> KernelData:
        k = self.data["kernel"]
        key = (KernelSpec(k["family"], k["amplitude"], k["width"]), grid)
        slot = self.kernel_slot
        if not slot or slot[0] != key:
            slot[:] = [key, build_kernel(*key)]
        return slot[1]

    def build_params(self) -> ModelParams:
        m = self.data["model"]
        return ModelParams(
            A=m["A"], B=m["B"], chi=m["chi"],
            proliferation=ProliferationSpec(m["proliferation"]),
            distribution=DistributionSpec(m["distribution"]),
            lambda_s=m["lambda_s"],
        )

    def build_tgrid(self) -> TimeGrid:
        return TimeGrid(self.data["time"]["T"], self.data["time"]["steps"])

    def solver_options(self) -> None:
        # kept, returning None, until perfbench/workloads.py stops calling it
        return None

    def pgd_options(self) -> PgdOptions:
        return PgdOptions(**self.data["optimizer"])

    def realize_field(self, spec: dict, grid: GridSpec) -> ScalarField:
        if spec["kind"] == "constant":
            return ScalarField.constant(grid, spec["value"])
        if spec["kind"] == "bumps":
            coords = grid.mesh()
            vals = np.full(grid.cells_per_axis, spec["background"])
            for center, amp, width in zip(spec["centers"], spec["amplitudes"], spec["widths"]):
                r2 = sum((x - c) ** 2 for x, c in zip(coords, center))
                vals = vals + amp * np.exp(-r2 / (2.0 * width * width))
            return ScalarField(grid, vals.reshape(-1))
        return self._read_on_grid(spec["path"], grid, "field file")

    def _read_on_grid(self, path: str, grid: GridSpec, what: str) -> ScalarField:
        """The snapshot at path; ConfigError naming it unless it lies on grid."""
        from .snapshots import read_snapshot

        fld, _, _ = read_snapshot(self.resolve_path(path))
        if fld.grid != grid:
            raise ConfigError([f"{what} {path} was written on a different grid"])
        return fld

    def resolve_path(self, path: str) -> Path:
        p = Path(path)
        return p if p.is_absolute() else Path(self.base_dir) / p

    def build_initial_state(self, grid: GridSpec) -> tuple[ScalarField, ScalarField]:
        initial = self.data["initial"]
        return (self.realize_field(initial["phi"], grid),
                self.realize_field(initial["sigma"], grid))

    def build_initial_controls(self, grid: GridSpec) -> ControlPair:
        return self._constant_controls(self.data["controls"], grid)

    def _constant_controls(self, specs: dict, grid: GridSpec) -> ControlPair:
        """Controls that hold the fields specs["u"] and specs["v"] at every
        step, each one row broadcast over the steps (a read-only view)."""
        shape = (self.data["time"]["steps"], grid.num_cells)
        return ControlPair(grid, *(
            np.broadcast_to(self.realize_field(specs[c], grid).values, shape) for c in "uv"))

    def _bound_array(self, bound, grid: GridSpec) -> np.ndarray:
        if isinstance(bound, dict):
            return self._read_on_grid(bound["file"], grid, "box bound file").values
        return np.full(grid.num_cells, bound)

    def build_box(self, grid: GridSpec) -> BoxConstraints:
        box = self.data["box"]
        return BoxConstraints(grid, *(self._bound_array(box[name], grid) for name in _BOUNDS))

    def build_cost(self, grid: GridSpec, kernel: KernelData, params: ModelParams,
                   tgrid: TimeGrid) -> CostSpec:
        weights = {name: self.data["cost"][name] for name in COST_WEIGHTS}
        t = self.data["cost"]["targets"]
        if t["kind"] == "zero":
            return CostSpec(grid, **weights)
        if t["kind"] == "constant":
            return CostSpec(
                grid, **weights,
                phi_omega=np.full(grid.num_cells, t["phi_omega"]),
                sigma_omega=np.full(grid.num_cells, t["sigma_omega"]),
                phi_q=np.full((1, grid.num_cells), t["phi_q"]),
                sigma_q=np.full((1, grid.num_cells), t["sigma_q"]),
            )
        if t["kind"] == "files":
            return CostSpec(
                grid, **weights,
                phi_omega=self._read_on_grid(t["phi_omega"], grid, "cost target file").values,
                sigma_omega=self._read_on_grid(t["sigma_omega"], grid, "cost target file").values,
            )
        phi0, sigma0 = self.build_initial_state(grid)
        traj = simulate(phi0, sigma0, self._constant_controls(t, grid), params,
                        kernel, tgrid, blowup_guard=self.blowup_guard, record_monitors=False)
        return CostSpec(
            grid, **weights,
            phi_omega=traj.phi[-1],
            sigma_omega=traj.sigma[-1],
            phi_q=traj.phi[:-1],
            sigma_q=traj.sigma[:-1],
        )


# ---- parsing ------------------------------------------------------------


_ZERO_FIELD = {"kind": "constant", "value": 0.0}

_DEFAULTS = {
    "grid": {"cells": [64], "extent": [1.0]},
    "kernel": {"family": "gaussian", "amplitude": 4.0, "width": 0.2},
    "model": {"A": 0.5, "B": 1.0, "chi": 0.0, "lambda_s": 2.0,
              "proliferation": "smoothed_ramp",
              "distribution": "same_as_p"},
    "time": {"T": 0.25, "steps": 25},
    "initial": {"phi": _ZERO_FIELD, "sigma": _ZERO_FIELD},
    "controls": {"u": _ZERO_FIELD, "v": _ZERO_FIELD},
    "solver": {"blowup_guard": DEFAULT_BLOWUP_GUARD},
    "cost": {"alpha_omega": 1.0, "alpha_q": 0.0, "beta_omega": 0.0,
             "beta_q": 0.0, "alpha_u": 0.01, "beta_v": 0.01,
             "targets": {"kind": "zero"}},
    "box": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0},
    "optimizer": asdict(PgdOptions()),
    "output": {"directory": "out", "snapshot_stride": 0},
    "seed": 0,
}


def _field_spec(raw, label: str, failures: list[str]) -> dict:
    if not isinstance(raw, dict) or "kind" not in raw:
        failures.append(f"{label}: field spec must be an object with a 'kind'")
        return dict(_ZERO_FIELD)
    kind = raw["kind"]
    if kind == "constant":
        return {"kind": "constant",
                "value": _number(raw.get("value", 0.0), f"{label}.value", 0.0, failures)}
    if kind == "bumps":
        centers = [_numbers(c, f"{label}.centers[{i}]", failures)
                   for i, c in enumerate(_list(raw.get("centers", []),
                                               f"{label}.centers", failures))]
        amplitudes = _numbers(raw.get("amplitudes", []), f"{label}.amplitudes", failures)
        widths = _numbers(raw.get("widths", []), f"{label}.widths", failures)
        if not (len(centers) == len(amplitudes) == len(widths)):
            failures.append(f"{label}: bumps need matching centers/amplitudes/widths")
        if any(w <= 0 for w in widths):
            failures.append(f"{label}: bump widths must be positive")
        return {"kind": "bumps",
                "background": _number(raw.get("background", 0.0), f"{label}.background", 0.0,
                                      failures),
                "centers": centers, "amplitudes": amplitudes, "widths": widths}
    if kind == "file":
        path = raw.get("path", "")
        if not path:
            failures.append(f"{label}: file field spec needs a 'path'")
        return {"kind": "file", "path": str(path)}
    failures.append(f"{label}: unknown field kind {kind!r}")
    return dict(_ZERO_FIELD)


def _targets(raw, label: str, failures: list[str]) -> dict:
    if not isinstance(raw, dict) or "kind" not in raw:
        failures.append(f"{label}: must be an object with a 'kind'")
        return {"kind": "zero"}
    kind = raw["kind"]
    if kind == "zero":
        return {"kind": "zero"}
    if kind == "constant":
        return {"kind": "constant", **{
            name: _number(raw.get(name, 0.0), f"{label}.{name}", 0.0, failures)
            for name in ("phi_omega", "sigma_omega", "phi_q", "sigma_q")}}
    if kind == "files":
        phi_path = raw.get("phi_omega", "")
        sigma_path = raw.get("sigma_omega", "")
        if not phi_path or not sigma_path:
            failures.append(f"{label}: files kind needs phi_omega and sigma_omega paths")
        return {"kind": "files", "phi_omega": str(phi_path), "sigma_omega": str(sigma_path)}
    if kind == "manufactured":
        return {"kind": "manufactured",
                **{name: _field_spec(raw.get(name, _ZERO_FIELD), f"{label}.{name}", failures)
                   for name in ("u", "v")}}
    failures.append(f"{label}: unknown kind {kind!r}")
    return {"kind": "zero"}


def _bound(raw, label: str, failures: list[str]):
    """A number, or {"file": path}; an object without a path reads as 0.0."""
    if isinstance(raw, dict):
        path = raw.get("file", "")
        if not path:
            failures.append(f"{label}: object bound needs a 'file' key")
        return {"file": str(path)} if str(path) else 0.0
    return _number(raw, label, 0.0, failures)


def _integer(raw, key: str, default: int, failures: list[str]) -> int:
    """raw as an int if it is an integral number; otherwise a failure naming
    key and the documented default, so later checks do not report it again."""
    if type(raw) is int or (isinstance(raw, float) and raw.is_integer()):
        return int(raw)
    failures.append(f"{key} must be an integer, got {raw!r}")
    return default


def _number(raw, key: str, default: float, failures: list[str]) -> float:
    """raw as a float if it is a finite real number (not a bool); otherwise a
    failure naming key, and default in its place, so later checks do not
    report it again. JSON admits NaN, Infinity and overflowing literals such
    as 1e400 (an integer beyond the float range reads as an infinity), and
    NaN passes every comparison _validate makes."""
    if not isinstance(raw, numbers.Real) or isinstance(raw, bool):
        failures.append(f"{key} must be a number, got {raw!r}")
        return default
    try:
        value = float(raw)
    except OverflowError:
        value = np.inf if raw > 0 else -np.inf
    if np.isfinite(value):
        return value
    failures.append(f"{key} must be a finite number, got {value}")
    return default


def _list(raw, key: str, failures: list[str]) -> list:
    """raw if it is a list (or tuple); otherwise a failure naming key, and []."""
    if isinstance(raw, (list, tuple)):
        return list(raw)
    failures.append(f"{key} must be a list, got {raw!r}")
    return []


def _numbers(raw, key: str, failures: list[str]) -> list[float]:
    """A list of numbers, each read by _number (default 0.0)."""
    return [_number(x, f"{key}[{i}]", 0.0, failures)
            for i, x in enumerate(_list(raw, key, failures))]


def _cells(raw, key: str, failures: list[str]) -> list[int]:
    return [_integer(n, f"{key}[{i}]", _DEFAULTS["grid"]["cells"][0], failures)
            for i, n in enumerate(_list(raw, key, failures))]


# readers of the values that are not a single number or string, by key
_READERS = {
    "grid.cells": _cells, "grid.extent": _numbers, "cost.targets": _targets,
    **dict.fromkeys(("initial.phi", "initial.sigma", "controls.u", "controls.v"), _field_spec),
    **dict.fromkeys((f"box.{name}" for name in _BOUNDS), _bound),
}


def _canonical(raw, key: str, default, failures: list[str]):
    """raw in its canonical form; a scalar takes the type of its default."""
    if key in _READERS:
        return _READERS[key](raw, key, failures)
    if isinstance(default, str):
        return str(raw)
    if isinstance(default, int):
        return _integer(raw, key, default, failures)
    return _number(raw, key, default, failures)


def config_from_dict(raw: dict, base_dir: str = ".") -> RunConfig:
    """Build and validate a RunConfig; raises ConfigError with every failure.
    Failures of the layout (a section that is no object, unknown keys) come
    before those of the values."""
    failures: list[str] = []
    value_failures: list[str] = []
    data = {}
    for section, default in _DEFAULTS.items():
        value = raw.get(section, default)
        if not isinstance(default, dict):
            data[section] = _canonical(value, section, default, value_failures)
            continue
        if not isinstance(value, dict):
            failures.append(f"{section}: expected an object")
            value = default
        unknown = set(value) - set(default)
        if unknown:
            failures.append(f"{section}: unknown keys {sorted(unknown)}")
        data[section] = {key: _canonical(value.get(key, d), f"{section}.{key}", d,
                                         value_failures)
                         for key, d in default.items()}
    unknown_top = set(raw) - set(_DEFAULTS)
    if unknown_top:
        failures.append(f"unknown top-level keys {sorted(unknown_top)}")
    failures += value_failures

    cfg = RunConfig(data, base_dir=base_dir)
    _validate(cfg, failures)
    if failures:
        raise ConfigError(failures)
    return cfg


def _built(failures: list[str], section: str, build, *args, **kwargs):
    """build(*args, **kwargs), or None after listing each failure under section."""
    try:
        return build(*args, **kwargs)
    except NLCHError as exc:
        failures.extend(f"{section}: {message}" for message in str(exc).split("; "))
        return None


def _validate(cfg: RunConfig, failures: list[str]):
    d = cfg.data
    grid = _built(failures, "grid", cfg.build_grid)
    _built(failures, "model", cfg.build_params)
    kernel = None
    fits = grid is not None
    if grid is not None:
        try:
            # one field of the grid, never written: a grid too large to hold
            # one is refused here at once, before the kernel build writes
            # tables that grow with the cells per axis. A size past numpy's
            # index range raises ValueError ("Maximum allowed dimension
            # exceeded", "array is too big"), not MemoryError
            np.empty(grid.num_cells)
            kernel = _built(failures, "kernel", cfg.build_kernel, grid)
        except (MemoryError, ValueError) as exc:
            fits = False
            failures.append(f"grid.cells {d['grid']['cells']}: the grid does not fit in "
                            f"memory ({exc})")
    if kernel is not None:
        # the raw A, B and chi, so the margin is reported also when they fail
        # ModelParams (e.g. B = 0)
        _built(failures, "model", require_ellipticity, SimpleNamespace(**d["model"]), kernel)
    tgrid = _built(failures, "time", cfg.build_tgrid)
    if tgrid is not None and fits:
        try:
            # the two (steps + 1, cells) states every run stores, asked for
            # like the one field above and never written
            np.empty((2, tgrid.steps + 1, grid.num_cells))
        except (MemoryError, ValueError) as exc:
            failures.append(f"time.steps {tgrid.steps}: the trajectory does not fit in "
                            f"memory ({exc})")
    if d["seed"] < 0:
        failures.append(f"seed must be nonnegative, got {d['seed']}")
    _built(failures, "solver", require_guard, cfg.blowup_guard)
    # weights and number bounds hold on any grid, so two cells report them also
    # when the grid fails or does not fit; all-zero weights are optimize's gate
    two_cells = GridSpec([2], [1.0])
    _built(failures, "cost", CostSpec, two_cells,
           **{name: d["cost"][name] for name in COST_WEIGHTS})
    box = d["box"]
    bounds = []
    for c in "uv":
        pair = [box[f"{c}_min"], box[f"{c}_max"]]
        # a pair with a file bound is checked pointwise where build_box reads it
        bounds += [0.0, 0.0] if any(isinstance(b, dict) for b in pair) else pair
    _built(failures, "box", BoxConstraints.constant, two_cells, *bounds)
    _built(failures, "optimizer", cfg.pgd_options)
    if d["output"]["snapshot_stride"] < 0:
        failures.append("output.snapshot_stride must be nonnegative")
    targets = d["cost"]["targets"]
    specs = {f"{section}.{name}": spec for section in ("initial", "controls")
             for name, spec in d[section].items()}
    if targets["kind"] == "manufactured":
        specs.update({f"cost.targets.{name}": targets[name] for name in ("u", "v")})
    for label, spec in specs.items():
        if spec["kind"] == "bumps" and grid is not None:
            # realize_field reads one coordinate per grid axis from each centre
            failures.extend(f"{label}.centers[{i}] must have {grid.dim} coordinates, "
                            f"got {len(center)}"
                            for i, center in enumerate(spec["centers"])
                            if len(center) != grid.dim)
    # every file the configuration names: file field specs, files targets and
    # file bounds (a missing path is reported where it is parsed)
    files = [(label, spec["path"]) for label, spec in specs.items() if spec["kind"] == "file"]
    if targets["kind"] == "files":
        files += [(f"cost.targets.{name}", targets[name]) for name in ("phi_omega", "sigma_omega")]
    files += [(f"box.{name}", box[name]["file"]) for name in _BOUNDS if isinstance(box[name], dict)]
    failures.extend(f"{label}: file {path!r} does not exist" for label, path in files
                    if path and not cfg.resolve_path(path).exists())


def read_config_json(path) -> dict:
    """Read a configuration file's JSON object, not yet validated."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["configuration root must be a JSON object"])
    return raw


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file."""
    return config_from_dict(read_config_json(path), base_dir=str(Path(path).parent))


def config_json(cfg: RunConfig) -> str:
    """Canonical serialisation, which the config_sha256 of a manifest hashes."""
    return json.dumps(cfg.data, indent=2, sort_keys=True) + "\n"
