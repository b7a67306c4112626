"""Regenerate perfbench/reference/simulate-2d.json, the stored final states
that the simulate-2d gate compares against.

    python3 perfbench/make_reference.py

Run it only on a commit whose simulate results are trusted; the reference
exists so that a later change which alters the numbers shows up as a failed
operation in the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    import nlch_control as nc
    import nlch_control.cli  # noqa: F401

    workdir = HERE / ".work" / "reference"
    variants = {}
    try:
        for variant in range(workloads.SIMULATE_VARIANTS):
            workloads.prepare("simulate-2d", workdir, variant)
            inputs = workloads.setup("simulate-2d", nc, workdir)
            out = workdir / "out"
            shutil.rmtree(out, ignore_errors=True)
            traj = workloads.body("simulate-2d", nc, inputs, out)
            n0, n1 = inputs["grid"].cells_per_axis
            variants[str(variant)] = {
                "bump": workloads.simulate_bump(variant),
                "summary": workloads.final_state_summary(traj.phi[-1], traj.sigma[-1], n0, n1),
            }
            print(f"variant {variant}: done", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "about": "simulate-2d final states: per field, 8x8 block means of 16x16 cells, "
                 "then the RMS and the sup norm; phi first, then sigma",
        "variants": variants,
    }
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
