"""One measured run in a fresh interpreter.

    python3 perfbench/child.py --workload W --workdir D --seed N --t0 T [--trace]

T is the parent's CLOCK_MONOTONIC reading taken just before it started this
process, so set-up time covers interpreter start, `import nlch_control`,
configuration loading and every input the command needs, up to the start of
the first sweep. Prints one JSON line with the measurements, the gate
failures and a digest of the outputs. Exits 0 whenever it could report.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (standard library only)
import tracer as tracing  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--t0", required=True, type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--corrupt-adjoint", action="store_true")
    args = ap.parse_args()
    name = args.workload
    out = args.workdir / "out"
    shutil.rmtree(out, ignore_errors=True)

    record = {"workload": name, "seed": args.seed, "trace": args.trace}
    try:
        import nlch_control as nc
        import nlch_control.cli  # noqa: F401  (the command line loads every module)

        hooks = tracing.Tracer() if args.trace else tracing.SweepCounter()
        with hooks.phase("setup"):
            inputs = workloads.setup(name, nc, args.workdir)
        inputs["corrupt_adjoint"] = args.corrupt_adjoint
        t_body = time.monotonic()
        with hooks.phase("body"):
            result = workloads.body(name, nc, inputs, out)
        t_end = time.monotonic()
        record["setup_s"] = t_body - args.t0
        record["wall_s"] = t_end - t_body
        if args.trace:
            summary = hooks.summary()
            record["layers"] = summary
            record["sites"] = hooks.sites
            record["sweeps"] = sum(summary.get("body", {}).get(layer, {}).get("calls", 0)
                                   for layer in tracing.SWEEP_LAYERS)
            record["traj_bytes_per_step"] = hooks.traj_bytes_per_step
            record["write_bytes"] = sum(f.stat().st_size for f in out.glob("*"))
            record["pgd"] = workloads.pgd_counts(result)
        else:
            record["sweeps"] = hooks.sweeps
        usage = resource.getrusage(resource.RUSAGE_SELF)
        record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        record["cpu_s"] = usage.ru_utime + usage.ru_stime
        failures, digest = workloads.check(name, nc, inputs, result, out, args.seed)
        record["failures"] = failures
        record["digest"] = digest
    except Exception:  # reported to the parent as a failed operation
        record["failures"] = ["exception: " + traceback.format_exc(limit=8)]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
