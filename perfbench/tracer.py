"""Wrap the public functions of each `nlch_control` module from outside.

Modules import each other's functions by name (`forward` holds its own
reference to `kernels.convolve_array`), so a function is replaced at every
lookup site: every `nlch_control` module attribute that is the same object.
Methods are replaced on their class. A hook whose target is missing raises,
so a renamed function fails the benchmark instead of going uncounted.

Two hook kinds:
  SweepCounter  counts calls of the sweep entry points; this is all the
                untraced run installs.
  Tracer        records a span per call (layer, start, end, parent) and
                derives per-layer calls and self time (span duration minus
                the time covered by its child spans).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# layer name -> (module, attribute path) of each wrapped function
LAYERS = {
    "kernels.build": [("kernels", "build_kernel")],
    "kernels.conv": [("kernels", "convolve_array")],
    "solvers.factor": [("solvers", "ShiftedLaplacianSolver.__init__")],
    "solvers.solve": [("solvers", "ShiftedLaplacianSolver.solve")],
    "geometry.lap": [("geometry", "laplacian_array")],
    "physics.pointwise": [("physics", "PotentialSpec.evaluate"),
                          ("physics", "ProliferationSpec.evaluate"),
                          ("physics", "DistributionSpec.evaluate")],
    "forward": [("forward", "simulate")],
    "forward.energy": [("forward", "free_energy")],
    "sensitivity.tangent": [("sensitivity", "tangent_sweep")],
    "sensitivity.vjp": [("sensitivity", "vjp_sweep")],
    "sensitivity.adjoint": [("sensitivity", "adjoint_sweep")],
    "sensitivity.duality": [("sensitivity", "duality_gap")],
    "control": [("control", "pgd_optimize"), ("control", "cost"),
                ("control", "reduced_gradient"), ("control", "projection_formula_defect")],
    "gradcheck": [("gradcheck", "run_gradcheck"), ("gradcheck", "fd_gradient_errors"),
                  ("gradcheck", "taylor_remainder_order")],
    "snapshots.write": [("snapshots", "write_snapshot"), ("snapshots", "write_monitors_csv"),
                        ("snapshots", "write_manifest")],
    "config.build": [("config", "load_config")]
                    + [("config", f"RunConfig.{m}") for m in (
                        "build_grid", "build_kernel", "build_params", "build_tgrid",
                        "build_initial_state", "build_initial_controls", "build_box",
                        "build_cost")],
}

SWEEP_LAYERS = ("forward", "sensitivity.tangent", "sensitivity.vjp", "sensitivity.adjoint")

PACKAGE = "nlch_control"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _patch(module: str, path: str, make_wrapper) -> int:
    """Replace the target at every lookup site; returns the number of sites."""
    owner = sys.modules[f"{PACKAGE}.{module}"]
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    target = getattr(owner, attr, None)
    if target is None:
        raise LookupError(f"{PACKAGE}.{module}.{path} not found; update perfbench/tracer.py")
    wrapper = make_wrapper(target)
    if cls_path:
        setattr(owner, attr, wrapper)
        return 1
    sites = 0
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, key, wrapper)
                sites += 1
    return sites


class SweepCounter:
    """Counts forward, tangent, VJP and adjoint sweeps."""

    def __init__(self):
        self.counts = {layer: 0 for layer in SWEEP_LAYERS}
        for layer in SWEEP_LAYERS:
            for module, path in LAYERS[layer]:
                _patch(module, path, functools.partial(self._wrap, layer))

    def _wrap(self, layer, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def phase(self, name: str):
        """Count only the sweeps of the "body" phase."""
        if name == "body":
            for layer in self.counts:
                self.counts[layer] = 0
        yield

    @property
    def sweeps(self) -> int:
        return sum(self.counts.values())


class Tracer:
    """Spans at every layer boundary, kept in memory.

    A span is (layer, start, end, parent index); the phase spans "setup" and
    "body" are roots, so every layer span belongs to exactly one phase.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.sites: dict[str, int] = {}
        self.traj_bytes_per_step = 0.0
        for layer, targets in LAYERS.items():
            self.sites[layer] = sum(
                _patch(module, path, functools.partial(self._wrap, layer))
                for module, path in targets)

    def _open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if layer == "forward":
                self.traj_bytes_per_step = max(self.traj_bytes_per_step,
                                               trajectory_bytes_per_step(result))
            return result
        return traced

    @contextlib.contextmanager
    def phase(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def summary(self) -> dict:
        """Per phase and layer: calls and self seconds."""
        child_time = [0.0] * len(self.spans)
        phase_of = [""] * len(self.spans)
        for i, (layer, start, end, parent) in enumerate(self.spans):
            phase_of[i] = layer if parent < 0 else phase_of[parent]
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, dict[str, float]]] = {}
        for i, (layer, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(phase_of[i], {}).setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
        return out


def trajectory_bytes_per_step(traj) -> float:
    """Bytes a trajectory holds per step, computed from its array sizes:
    the state rows plus every per-step array that owns its memory (views
    into the state or the controls are not counted again)."""
    import numpy as np

    total = traj.phi.nbytes + traj.sigma.nbytes
    for cache in getattr(traj, "caches", ()):
        total += sum(v.nbytes for v in vars(cache).values()
                     if isinstance(v, np.ndarray) and v.base is None)
    return total / max(traj.steps, 1)
