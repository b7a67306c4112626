"""Benchmark for nlch_control: forward simulation, PGD optimal control and
the gradient checks, each run in fresh interpreters.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (see BENCHMARK.json for why each
was chosen): simulate-2d, optimize-1d, gradcheck-2d.

--trace 0  starts one fresh interpreter after another (perfbench/child.py)
           for about S seconds and reports the median over them of
           setup_s, wall_s, peak_rss_mb and sweeps. Only the sweep entry
           points are counted; no layer is timed.
--trace 1  alternates traced and untraced interpreters for about S seconds
           and reports the per-layer calls and self times of the traced ones
           (medians), plus the tracing overhead: traced minus untraced wall_s.
           Import time per module comes from `python -X importtime`.

Every interpreter checks its result against the workload's gates; a gate
failure or an exception counts as a failed operation. A run is correct when
no operation failed and every operation reported the same sweep count and the
same output digest. The last line of stdout is the JSON result; the line
before it is the run record (machine, versions, CPU time, steal ticks), which
is also written to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

MIN_OPERATIONS = 3
CHILD_TIMEOUT_S = 150
# a run must end within 180 s; a hung child is killed before that
RUN_LIMIT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "sweeps": "count"}

# per-layer metric -> (phase, layer, field) read from the traced summary
LAYER_METRICS = {
    "solvers.factor.calls": ("body", "solvers.factor", "calls"),
    "solvers.factor.self_s": ("body", "solvers.factor", "self_s"),
    "solvers.solve.calls": ("body", "solvers.solve", "calls"),
    "solvers.solve.self_s": ("body", "solvers.solve", "self_s"),
    "kernels.conv.calls": ("body", "kernels.conv", "calls"),
    "kernels.conv.self_s": ("body", "kernels.conv", "self_s"),
    "kernels.build.self_s": ("setup", "kernels.build", "self_s"),
    "config.build.self_s": ("setup", "config.build", "self_s"),
    "physics.pointwise.calls": ("body", "physics.pointwise", "calls"),
    "physics.pointwise.self_s": ("body", "physics.pointwise", "self_s"),
    "geometry.lap.calls": ("body", "geometry.lap", "calls"),
    "geometry.lap.self_s": ("body", "geometry.lap", "self_s"),
    "forward.sweeps": ("body", "forward", "calls"),
    "forward.self_s": ("body", "forward", "self_s"),
    "forward.energy.calls": ("body", "forward.energy", "calls"),
    "forward.energy.self_s": ("body", "forward.energy", "self_s"),
    "sensitivity.tangent.sweeps": ("body", "sensitivity.tangent", "calls"),
    "sensitivity.vjp.sweeps": ("body", "sensitivity.vjp", "calls"),
    "sensitivity.adjoint.sweeps": ("body", "sensitivity.adjoint", "calls"),
    "control.self_s": ("body", "control", "self_s"),
    "gradcheck.self_s": ("body", "gradcheck", "self_s"),
    "snapshots.write.calls": ("body", "snapshots.write", "calls"),
    "snapshots.write.self_s": ("body", "snapshots.write", "self_s"),
}
SENSITIVITY_LAYERS = ("sensitivity.tangent", "sensitivity.vjp", "sensitivity.adjoint",
                      "sensitivity.duality")
IMPORT_MODULES = {"kernels.import_s": "nlch_control.kernels",
                  "solvers.import_s": "nlch_control.solvers"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "forward.traj_bytes_per_step":
        return "computed_B"
    if name == "snapshots.write.bytes":
        return "B"
    if name in ("control.pgd.accept_ratio", "trace.attributed_share", "solvers.factor_per_sweep"):
        return "ratio"
    return "count"


def _steal_and_busy_ticks() -> tuple[int, int]:
    """Steal and non-idle ticks summed over CPUs, read from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8]) - idle


def _blas_info() -> dict:
    import ctypes

    import numpy as np

    info = {"blas_threads": None, "blas_config": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas_build"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas_build"] = None
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info["blas_threads"] = getter()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["blas_config"] = config().decode(errors="replace")
                if getter is not None:
                    return info
    return info


def _import_times(stderr: str) -> dict:
    """Cumulative `-X importtime` seconds of each module in IMPORT_MODULES."""
    wanted = {mod: metric for metric, mod in IMPORT_MODULES.items()}
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        module = parts[2].strip()
        if module in wanted:
            found[wanted[module]] = int(parts[1]) * 1e-6
    return found


def run_child(workload: str, workdir: Path, seed: int, trace: bool,
              corrupt_adjoint: bool = False, timeout: float = CHILD_TIMEOUT_S) -> dict:
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "child.py"), "--workload", workload, "--workdir", str(workdir),
            "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if corrupt_adjoint:
        cmd.append("--corrupt-adjoint")
    t0 = time.monotonic()
    try:
        # on timeout, subprocess.run kills the child and waits for it
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"failures": [f"child did not finish within {timeout:.0f} s"],
                "elapsed_s": time.monotonic() - t0}
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"failures": [f"child exited {proc.returncode} without a record: "
                               f"{proc.stderr.strip()[-400:]}"]}
    record["elapsed_s"] = elapsed
    if trace:
        record["imports"] = _import_times(proc.stderr)
    return record


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(records: list[dict]) -> dict:
    return {name: {"value": _median([r[name] for r in records]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    def layer_value(r, phase, layer, field):
        return r["layers"].get(phase, {}).get(layer, {}).get(field, 0)

    values: dict[str, list[float]] = {}

    def add(name, value):
        values.setdefault(name, []).append(value)

    for r in traced:
        for name, (phase, layer, field) in LAYER_METRICS.items():
            add(name, layer_value(r, phase, layer, field))
        sweeps = r["sweeps"]
        add("solvers.factor_per_sweep",
            layer_value(r, "body", "solvers.factor", "calls") / sweeps if sweeps else 0.0)
        add("sensitivity.self_s",
            sum(layer_value(r, "body", layer, "self_s") for layer in SENSITIVITY_LAYERS))
        add("forward.traj_bytes_per_step", r["traj_bytes_per_step"])
        add("snapshots.write.bytes", r["write_bytes"])
        add("control.pgd.iterations", r["pgd"]["iterations"])
        add("control.pgd.trials", r["pgd"]["trials"])
        add("control.pgd.accept_ratio",
            r["pgd"]["iterations"] / r["pgd"]["trials"] if r["pgd"]["trials"] else 0.0)
        for metric in IMPORT_MODULES:
            add(metric, r["imports"].get(metric, 0.0))
        body = r["layers"].get("body", {})
        attributed = sum(v["self_s"] for k, v in body.items() if k != "body")
        add("trace.wall_s", r["wall_s"])
        add("trace.attributed_share", attributed / r["wall_s"])
    metrics = {name: {"value": _median(v), "unit": _unit(name)} for name, v in values.items()}
    untraced_wall = _median([r["wall_s"] for r in untraced])
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": metrics["trace.wall_s"]["value"] - untraced_wall,
                                   "unit": "s"}
    return metrics


def run_record(args, records: list[dict], steal: int, busy: int, started: float) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": time.monotonic() - started,
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__, **_blas_info(),
        "cpu_s": sum(r.get("cpu_s", 0.0) for r in records),
        "steal_ticks": steal, "busy_ticks": busy,
        # per traced layer: how many module attributes and methods were wrapped
        "lookup_sites": next((r["sites"] for r in records if r.get("sites")), None),
        "operations": [{k: r.get(k) for k in ("trace", "setup_s", "wall_s", "cpu_s",
                                              "peak_rss_mb", "sweeps", "digest", "failures")}
                       for r in records],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    limit = time.monotonic() + RUN_LIMIT_S

    try:
        # the package under test; this also compiles its bytecode before timing
        import nlch_control.cli  # noqa: F401
    except ImportError as exc:
        print(f"cannot import nlch_control from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    started = time.monotonic()
    steal0, busy0 = _steal_and_busy_ticks()
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    records: list[dict] = []
    try:
        workloads.prepare(args.workload, workdir, args.seed)
        deadline = started + args.seconds
        while True:
            trace = bool(args.trace) and len(records) % 2 == 1
            records.append(run_child(args.workload, workdir, args.seed, trace,
                                     timeout=max(1.0, limit - time.monotonic())))
            durations = [r["elapsed_s"] for r in records]
            if (len(records) >= (2 if args.trace else MIN_OPERATIONS)
                    and time.monotonic() + _median(durations) > deadline):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal1, busy1 = _steal_and_busy_ticks()

    failed = [r for r in records if r.get("failures")]
    ok = [r for r in records if not r.get("failures")]
    measured = [r for r in records if "wall_s" in r]
    for r in failed:
        print(f"failed operation: {r['failures']}", file=sys.stderr)
    consistent = (len({r["sweeps"] for r in ok}) <= 1 and len({r["digest"] for r in ok}) <= 1)
    if not consistent:
        print("operations disagree on sweeps or output digest", file=sys.stderr)

    traced = [r for r in measured if r.get("trace")]
    untraced = [r for r in measured if not r.get("trace")]
    if not untraced or (args.trace and not traced):
        print("no operation could be measured", file=sys.stderr)
        return 1
    metrics = per_layer_metrics(traced, untraced) if args.trace else end_to_end_metrics(untraced)

    record = run_record(args, records, steal1 - steal0, busy1 - busy0, started)
    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("run-record " + json.dumps(record))
    print(json.dumps({"correct": not failed and consistent,
                      "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
