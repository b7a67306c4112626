"""Run configuration: a documented JSON format, validated in one pass that
collects every failure instead of stopping at the first.

Top-level keys (all optional, defaults below):

  grid       {"cells": [64], "extent": [1.0]}
  kernel     {"family": "gaussian", "amplitude": 4.0, "width": 0.2}
  model      {"A": 0.5, "B": 1.0, "chi": 0.0, "lambda_s": 2.0,
              "proliferation": "smoothed_ramp", "distribution": "same_as_p"}
  time       {"T": 0.25, "steps": 25}
  initial    {"phi": FIELD, "sigma": FIELD}
  controls   {"u": FIELD, "v": FIELD}              initial guess / manufactured
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

import numpy as np

from .control import BoxConstraints, CostSpec, PgdOptions
from .errors import ConfigError, NLCHError
from .forward import DEFAULT_BLOWUP_GUARD, ControlPair, TimeGrid, simulate
from .geometry import GridSpec, ScalarField
from .kernels import KernelData, KernelSpec, build_kernel
from .physics import (DistributionSpec, ModelParams, PotentialSpec,
                      ProliferationSpec)


@dataclass(frozen=True)
class FieldSpec:
    kind: str
    value: float = 0.0
    background: float = 0.0
    centers: tuple = ()
    amplitudes: tuple = ()
    widths: tuple = ()
    path: str = ""


@dataclass(frozen=True)
class TargetsConfig:
    kind: str
    phi_omega: float = 0.0
    sigma_omega: float = 0.0
    phi_q: float = 0.0
    sigma_q: float = 0.0
    phi_omega_path: str = ""
    sigma_omega_path: str = ""
    u: FieldSpec | None = None
    v: FieldSpec | None = None


@dataclass(frozen=True)
class CostConfig:
    alpha_omega: float
    alpha_q: float
    beta_omega: float
    beta_q: float
    alpha_u: float
    beta_v: float
    targets: TargetsConfig


@dataclass(frozen=True)
class BoxBound:
    value: float = 0.0
    path: str = ""

    @property
    def from_file(self) -> bool:
        return bool(self.path)


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description; builders realise the heavy objects."""

    grid_cells: tuple[int, ...]
    grid_extent: tuple[float, ...]
    kernel_family: str
    kernel_amplitude: float
    kernel_width: float
    A: float
    B: float
    chi: float
    lambda_s: float
    proliferation_family: str
    distribution_family: str
    T: float
    steps: int
    initial_phi: FieldSpec
    initial_sigma: FieldSpec
    control_u: FieldSpec
    control_v: FieldSpec
    blowup_guard: float
    cost: CostConfig
    u_min: BoxBound
    u_max: BoxBound
    v_min: BoxBound
    v_max: BoxBound
    opt_tol: float
    opt_max_iter: int
    opt_tau0: float
    output_directory: str
    snapshot_stride: int
    seed: int
    base_dir: str = field(default=".", compare=False)
    # [(spec, grid), kernel] of the kernel built last, which build_kernel
    # hands out again for the same key: validation builds it, the command
    # reuses it
    kernel_slot: list = field(default_factory=list, compare=False, repr=False)

    # ---- builders -------------------------------------------------------

    def build_grid(self) -> GridSpec:
        return GridSpec(self.grid_cells, self.grid_extent)

    def build_kernel(self, grid: GridSpec | None = None) -> KernelData:
        grid = grid or self.build_grid()
        key = (KernelSpec(self.kernel_family, self.kernel_amplitude, self.kernel_width), grid)
        slot = self.kernel_slot
        if not slot or slot[0] != key:
            slot[:] = [key, build_kernel(*key)]
        return slot[1]

    def build_params(self) -> ModelParams:
        return ModelParams(
            A=self.A, B=self.B, chi=self.chi,
            proliferation=ProliferationSpec(self.proliferation_family),
            distribution=DistributionSpec(self.distribution_family),
            lambda_s=self.lambda_s,
        )

    def build_tgrid(self) -> TimeGrid:
        return TimeGrid(self.T, self.steps)

    def solver_options(self) -> None:
        # kept, returning None, until perfbench/workloads.py stops calling it
        return None

    def pgd_options(self) -> PgdOptions:
        return PgdOptions(tol=self.opt_tol, max_iter=self.opt_max_iter, tau0=self.opt_tau0)

    def realize_field(self, spec: FieldSpec, grid: GridSpec) -> ScalarField:
        if spec.kind == "constant":
            return ScalarField.constant(grid, spec.value)
        if spec.kind == "bumps":
            coords = grid.mesh()
            vals = np.full(grid.cells_per_axis, float(spec.background))
            for center, amp, width in zip(spec.centers, spec.amplitudes, spec.widths):
                r2 = np.zeros(grid.cells_per_axis)
                for axis, x in enumerate(coords):
                    r2 = r2 + (x - center[axis]) ** 2
                vals = vals + amp * np.exp(-r2 / (2.0 * width * width))
            return ScalarField(grid, vals.reshape(-1))
        if spec.kind == "file":
            return self._read_on_grid(spec.path, grid, "field file")
        raise ConfigError([f"unknown field kind {spec.kind!r}"])

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
        return (self.realize_field(self.initial_phi, grid),
                self.realize_field(self.initial_sigma, grid))

    def build_initial_controls(self, grid: GridSpec) -> ControlPair:
        return self._constant_controls(self.control_u, self.control_v, grid)

    def _constant_controls(self, u: FieldSpec, v: FieldSpec, grid: GridSpec) -> ControlPair:
        """Controls that hold the fields u and v at every step."""
        return ControlPair(grid, *(np.tile(self.realize_field(spec, grid).values, (self.steps, 1))
                                   for spec in (u, v)))

    def _bound_array(self, bound: BoxBound, grid: GridSpec) -> np.ndarray:
        if bound.from_file:
            return self._read_on_grid(bound.path, grid, "box bound file").values
        return np.full(grid.num_cells, bound.value)

    def build_box(self, grid: GridSpec) -> BoxConstraints:
        return BoxConstraints(
            grid,
            self._bound_array(self.u_min, grid),
            self._bound_array(self.u_max, grid),
            self._bound_array(self.v_min, grid),
            self._bound_array(self.v_max, grid),
        )

    def build_cost(self, grid: GridSpec, kernel: KernelData, params: ModelParams,
                   tgrid: TimeGrid) -> CostSpec:
        t = self.cost.targets
        weights = dict(
            alpha_omega=self.cost.alpha_omega, alpha_q=self.cost.alpha_q,
            beta_omega=self.cost.beta_omega, beta_q=self.cost.beta_q,
            alpha_u=self.cost.alpha_u, beta_v=self.cost.beta_v,
        )
        if t.kind == "zero":
            return CostSpec.tracking(grid, **weights)
        if t.kind == "constant":
            return CostSpec.tracking(
                grid, **weights,
                phi_omega=ScalarField.constant(grid, t.phi_omega),
                sigma_omega=ScalarField.constant(grid, t.sigma_omega),
                phi_q=np.full((1, grid.num_cells), t.phi_q),
                sigma_q=np.full((1, grid.num_cells), t.sigma_q),
            )
        if t.kind == "files":
            return CostSpec.tracking(
                grid, **weights,
                phi_omega=self._read_on_grid(t.phi_omega_path, grid, "cost target file"),
                sigma_omega=self._read_on_grid(t.sigma_omega_path, grid, "cost target file"),
            )
        if t.kind == "manufactured":
            phi0, sigma0 = self.build_initial_state(grid)
            traj = simulate(phi0, sigma0, self._constant_controls(t.u, t.v, grid), params,
                            kernel, tgrid, blowup_guard=self.blowup_guard, record_monitors=False)
            return CostSpec.tracking(
                grid, **weights,
                phi_omega=ScalarField(grid, traj.phi[tgrid.steps]),
                sigma_omega=ScalarField(grid, traj.sigma[tgrid.steps]),
                phi_q=traj.phi[:tgrid.steps],
                sigma_q=traj.sigma[:tgrid.steps],
            )
        raise ConfigError([f"unknown targets kind {t.kind!r}"])


# ---- parsing ------------------------------------------------------------


_DEFAULTS = {
    "grid": {"cells": [64], "extent": [1.0]},
    "kernel": {"family": "gaussian", "amplitude": 4.0, "width": 0.2},
    "model": {"A": 0.5, "B": 1.0, "chi": 0.0, "lambda_s": 2.0,
              "proliferation": "smoothed_ramp",
              "distribution": "same_as_p"},
    "time": {"T": 0.25, "steps": 25},
    "initial": {"phi": {"kind": "constant", "value": 0.0},
                "sigma": {"kind": "constant", "value": 0.0}},
    "controls": {"u": {"kind": "constant", "value": 0.0},
                 "v": {"kind": "constant", "value": 0.0}},
    "solver": {"blowup_guard": DEFAULT_BLOWUP_GUARD},
    "cost": {"alpha_omega": 1.0, "alpha_q": 0.0, "beta_omega": 0.0,
             "beta_q": 0.0, "alpha_u": 0.01, "beta_v": 0.01,
             "targets": {"kind": "zero"}},
    "box": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0},
    "optimizer": asdict(PgdOptions()),
    "output": {"directory": "out", "snapshot_stride": 0},
    "seed": 0,
}


def _merge_defaults(raw: dict, failures: list[str]) -> dict:
    merged = {}
    for key, default in _DEFAULTS.items():
        value = raw.get(key, default)
        if isinstance(default, dict):
            if not isinstance(value, dict):
                failures.append(f"{key}: expected an object")
                value = default
            else:
                unknown = set(value) - set(default)
                if unknown:
                    failures.append(f"{key}: unknown keys {sorted(unknown)}")
                value = {**default, **{k: v for k, v in value.items() if k in default}}
        merged[key] = value
    unknown_top = set(raw) - set(_DEFAULTS)
    if unknown_top:
        failures.append(f"unknown top-level keys {sorted(unknown_top)}")
    return merged


def _field_spec(raw, label: str, failures: list[str]) -> FieldSpec:
    if not isinstance(raw, dict) or "kind" not in raw:
        failures.append(f"{label}: field spec must be an object with a 'kind'")
        return FieldSpec(kind="constant", value=0.0)
    kind = raw["kind"]
    if kind == "constant":
        return FieldSpec(kind="constant",
                         value=_number(raw.get("value", 0.0), f"{label}.value", 0.0, failures))
    if kind == "bumps":
        centers = tuple(_numbers(c, f"{label}.centers[{i}]", failures)
                        for i, c in enumerate(_list(raw.get("centers", []),
                                                    f"{label}.centers", failures)))
        amplitudes = _numbers(raw.get("amplitudes", []), f"{label}.amplitudes", failures)
        widths = _numbers(raw.get("widths", []), f"{label}.widths", failures)
        if not (len(centers) == len(amplitudes) == len(widths)):
            failures.append(f"{label}: bumps need matching centers/amplitudes/widths")
        if any(w <= 0 for w in widths):
            failures.append(f"{label}: bump widths must be positive")
        return FieldSpec(
            kind="bumps",
            background=_number(raw.get("background", 0.0), f"{label}.background", 0.0,
                               failures),
            centers=centers, amplitudes=amplitudes, widths=widths,
        )
    if kind == "file":
        path = raw.get("path", "")
        if not path:
            failures.append(f"{label}: file field spec needs a 'path'")
        return FieldSpec(kind="file", path=str(path))
    failures.append(f"{label}: unknown field kind {kind!r}")
    return FieldSpec(kind="constant", value=0.0)


def _targets(raw, failures: list[str]) -> TargetsConfig:
    if not isinstance(raw, dict) or "kind" not in raw:
        failures.append("cost.targets: must be an object with a 'kind'")
        return TargetsConfig(kind="zero")
    kind = raw["kind"]
    if kind == "zero":
        return TargetsConfig(kind="zero")
    if kind == "constant":
        return TargetsConfig(kind="constant", **{
            name: _number(raw.get(name, 0.0), f"cost.targets.{name}", 0.0, failures)
            for name in ("phi_omega", "sigma_omega", "phi_q", "sigma_q")})
    if kind == "files":
        phi_path = raw.get("phi_omega", "")
        sigma_path = raw.get("sigma_omega", "")
        if not phi_path or not sigma_path:
            failures.append("cost.targets: files kind needs phi_omega and sigma_omega paths")
        return TargetsConfig(kind="files", phi_omega_path=str(phi_path),
                             sigma_omega_path=str(sigma_path))
    if kind == "manufactured":
        u = _field_spec(raw.get("u", {"kind": "constant", "value": 0.0}),
                        "cost.targets.u", failures)
        v = _field_spec(raw.get("v", {"kind": "constant", "value": 0.0}),
                        "cost.targets.v", failures)
        return TargetsConfig(kind="manufactured", u=u, v=v)
    failures.append(f"cost.targets: unknown kind {kind!r}")
    return TargetsConfig(kind="zero")


def _bound(raw, label: str, failures: list[str]) -> BoxBound:
    if isinstance(raw, dict):
        path = raw.get("file", "")
        if not path:
            failures.append(f"box.{label}: object bound needs a 'file' key")
        return BoxBound(path=str(path))
    return BoxBound(value=_number(raw, f"box.{label}", 0.0, failures))


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


def _numbers(raw, key: str, failures: list[str]) -> tuple[float, ...]:
    """A list of numbers, each read by _number (default 0.0)."""
    return tuple(_number(x, f"{key}[{i}]", 0.0, failures)
                 for i, x in enumerate(_list(raw, key, failures)))


def config_from_dict(raw: dict, base_dir: str = ".") -> RunConfig:
    """Build and validate a RunConfig; raises ConfigError with every failure."""
    failures: list[str] = []
    merged = _merge_defaults(raw, failures)

    g = merged["grid"]
    k = merged["kernel"]
    m = merged["model"]
    c = merged["cost"]
    box = merged["box"]
    out = merged["output"]

    def number(section: str, name: str) -> float:
        return _number(merged[section][name], f"{section}.{name}",
                       _DEFAULTS[section][name], failures)

    def integer(section: str, name: str) -> int:
        return _integer(merged[section][name], f"{section}.{name}",
                        _DEFAULTS[section][name], failures)

    cfg = RunConfig(
        grid_cells=tuple(_integer(n, f"grid.cells[{i}]", _DEFAULTS["grid"]["cells"][0],
                                  failures)
                         for i, n in enumerate(_list(g["cells"], "grid.cells", failures))),
        grid_extent=_numbers(g["extent"], "grid.extent", failures),
        kernel_family=str(k["family"]),
        kernel_amplitude=number("kernel", "amplitude"),
        kernel_width=number("kernel", "width"),
        A=number("model", "A"), B=number("model", "B"), chi=number("model", "chi"),
        lambda_s=number("model", "lambda_s"),
        proliferation_family=str(m["proliferation"]),
        distribution_family=str(m["distribution"]),
        T=number("time", "T"), steps=integer("time", "steps"),
        initial_phi=_field_spec(merged["initial"]["phi"], "initial.phi", failures),
        initial_sigma=_field_spec(merged["initial"]["sigma"], "initial.sigma", failures),
        control_u=_field_spec(merged["controls"]["u"], "controls.u", failures),
        control_v=_field_spec(merged["controls"]["v"], "controls.v", failures),
        blowup_guard=number("solver", "blowup_guard"),
        cost=CostConfig(
            **{name: number("cost", name) for name in ("alpha_omega", "alpha_q", "beta_omega",
                                                        "beta_q", "alpha_u", "beta_v")},
            targets=_targets(c["targets"], failures),
        ),
        u_min=_bound(box["u_min"], "u_min", failures),
        u_max=_bound(box["u_max"], "u_max", failures),
        v_min=_bound(box["v_min"], "v_min", failures),
        v_max=_bound(box["v_max"], "v_max", failures),
        opt_tol=number("optimizer", "tol"),
        opt_max_iter=integer("optimizer", "max_iter"),
        opt_tau0=number("optimizer", "tau0"),
        output_directory=str(out["directory"]),
        snapshot_stride=integer("output", "snapshot_stride"),
        seed=_integer(merged["seed"], "seed", _DEFAULTS["seed"], failures),
        base_dir=base_dir,
    )

    _validate(cfg, failures)
    if failures:
        raise ConfigError(failures)
    return cfg


def _validate(cfg: RunConfig, failures: list[str]):
    grid = None
    try:
        grid = cfg.build_grid()
    except NLCHError as exc:
        failures.append(f"grid: {exc}")
    try:
        params = cfg.build_params()
    except NLCHError as exc:
        failures.append(f"model: {exc}")
        params = None
    kernel = None
    if grid is not None:
        try:
            kernel = cfg.build_kernel(grid)
        except NLCHError as exc:
            failures.append(f"kernel: {exc}")
    if grid is not None and kernel is not None:
        # computed from raw values so the message appears even when the
        # A, B > 0 invariant already failed (e.g. B = 0)
        margin = (cfg.A * PotentialSpec().second_derivative_min
                  + cfg.B * float(np.min(kernel.a_field.values)))
        if not (margin > cfg.chi ** 2):
            failures.append(
                f"hypothesis violation: c0 = {margin:.6g} <= chi^2 = {cfg.chi ** 2:.6g} "
                "(need A*min F'' + B*min a > chi^2)"
            )
    if cfg.T <= 0.0:
        failures.append(f"time.T must be positive, got {cfg.T}")
    if cfg.steps <= 0:
        failures.append(f"time.steps must be positive, got {cfg.steps}")
    if cfg.seed < 0:
        failures.append(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.blowup_guard <= 0.0:
        failures.append("solver.blowup_guard must be positive")
    weights = (cfg.cost.alpha_omega, cfg.cost.alpha_q, cfg.cost.beta_omega,
               cfg.cost.beta_q, cfg.cost.alpha_u, cfg.cost.beta_v)
    if any(w < 0 for w in weights):
        failures.append("cost weights must be nonnegative")
    # the all-weights-zero gate applies only when optimizing; gradcheck may
    # legitimately run a zero-cost configuration (all gradients zero)
    if not (cfg.u_min.from_file or cfg.u_max.from_file) and cfg.u_min.value > cfg.u_max.value:
        failures.append("box: u_min > u_max")
    if not (cfg.v_min.from_file or cfg.v_max.from_file) and cfg.v_min.value > cfg.v_max.value:
        failures.append("box: v_min > v_max")
    if cfg.opt_tol <= 0.0:
        failures.append("optimizer.tol must be positive")
    if cfg.opt_max_iter < 0:
        failures.append("optimizer.max_iter must be nonnegative")
    if cfg.opt_tau0 <= 0.0:
        failures.append("optimizer.tau0 must be positive")
    if cfg.snapshot_stride < 0:
        failures.append("output.snapshot_stride must be nonnegative")
    targets = cfg.cost.targets
    for spec, label in ((cfg.initial_phi, "initial.phi"), (cfg.initial_sigma, "initial.sigma"),
                        (cfg.control_u, "controls.u"), (cfg.control_v, "controls.v"),
                        (targets.u, "cost.targets.u"), (targets.v, "cost.targets.v")):
        if spec is None:
            continue
        if spec.kind == "file" and not cfg.resolve_path(spec.path).exists():
            failures.append(f"{label}: referenced file {spec.path!r} does not exist")
        if spec.kind == "bumps" and grid is not None:
            # realize_field reads one coordinate per grid axis from each centre
            failures.extend(f"{label}.centers[{i}] must have {grid.dim} coordinates, "
                            f"got {len(center)}"
                            for i, center in enumerate(spec.centers) if len(center) != grid.dim)
    if targets.kind == "files":
        for path, label in ((targets.phi_omega_path, "phi_omega"),
                            (targets.sigma_omega_path, "sigma_omega")):
            if path and not cfg.resolve_path(path).exists():
                failures.append(f"cost.targets.{label}: file {path!r} does not exist")
    for bound, label in ((cfg.u_min, "u_min"), (cfg.u_max, "u_max"),
                         (cfg.v_min, "v_min"), (cfg.v_max, "v_max")):
        if bound.from_file and not cfg.resolve_path(bound.path).exists():
            failures.append(f"box.{label}: file {bound.path!r} does not exist")


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


def config_to_dict(cfg: RunConfig) -> dict:
    """Normalised dictionary form; loading it back yields an equal RunConfig."""

    def field_dict(spec: FieldSpec) -> dict:
        if spec.kind == "constant":
            return {"kind": "constant", "value": spec.value}
        if spec.kind == "bumps":
            return {"kind": "bumps", "background": spec.background,
                    "centers": [list(c) for c in spec.centers],
                    "amplitudes": list(spec.amplitudes),
                    "widths": list(spec.widths)}
        return {"kind": "file", "path": spec.path}

    def bound_value(bound: BoxBound):
        return {"file": bound.path} if bound.from_file else bound.value

    targets = cfg.cost.targets
    if targets.kind == "zero":
        targets_dict = {"kind": "zero"}
    elif targets.kind == "constant":
        targets_dict = {"kind": "constant", "phi_omega": targets.phi_omega,
                        "sigma_omega": targets.sigma_omega,
                        "phi_q": targets.phi_q, "sigma_q": targets.sigma_q}
    elif targets.kind == "files":
        targets_dict = {"kind": "files", "phi_omega": targets.phi_omega_path,
                        "sigma_omega": targets.sigma_omega_path}
    else:
        targets_dict = {"kind": "manufactured", "u": field_dict(targets.u),
                        "v": field_dict(targets.v)}

    return {
        "grid": {"cells": list(cfg.grid_cells), "extent": list(cfg.grid_extent)},
        "kernel": {"family": cfg.kernel_family, "amplitude": cfg.kernel_amplitude,
                   "width": cfg.kernel_width},
        "model": {"A": cfg.A, "B": cfg.B, "chi": cfg.chi, "lambda_s": cfg.lambda_s,
                  "proliferation": cfg.proliferation_family,
                  "distribution": cfg.distribution_family},
        "time": {"T": cfg.T, "steps": cfg.steps},
        "initial": {"phi": field_dict(cfg.initial_phi),
                    "sigma": field_dict(cfg.initial_sigma)},
        "controls": {"u": field_dict(cfg.control_u), "v": field_dict(cfg.control_v)},
        "solver": {"blowup_guard": cfg.blowup_guard},
        "cost": {"alpha_omega": cfg.cost.alpha_omega, "alpha_q": cfg.cost.alpha_q,
                 "beta_omega": cfg.cost.beta_omega, "beta_q": cfg.cost.beta_q,
                 "alpha_u": cfg.cost.alpha_u, "beta_v": cfg.cost.beta_v,
                 "targets": targets_dict},
        "box": {"u_min": bound_value(cfg.u_min), "u_max": bound_value(cfg.u_max),
                "v_min": bound_value(cfg.v_min), "v_max": bound_value(cfg.v_max)},
        "optimizer": {"tol": cfg.opt_tol, "max_iter": cfg.opt_max_iter,
                      "tau0": cfg.opt_tau0},
        "output": {"directory": cfg.output_directory,
                   "snapshot_stride": cfg.snapshot_stride},
        "seed": cfg.seed,
    }


def config_json(cfg: RunConfig) -> str:
    """Canonical serialisation (used for hashing and write_config)."""
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def write_config(cfg: RunConfig, path):
    Path(path).write_text(config_json(cfg))
