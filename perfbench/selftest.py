"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, for every workload, that two fresh interpreters given the same seed
report the same sweep count and output digest, that the traced interpreter
counts the same sweeps as the untraced one, and that all of them pass their
gates. Then checks the negative control: gradcheck-2d with a corrupted adjoint
gradient must register as a failed operation. Exits 0 when all hold.
"""

from __future__ import annotations

import shutil
import sys

import run
import workloads


def main() -> int:
    problems = []
    workdir = run.HERE / ".work" / "selftest"
    try:
        for name in workloads.WORKLOADS:
            workloads.prepare(name, workdir, 7)
            a, b, traced = (run.run_child(name, workdir, 7, trace=t) for t in (False, False, True))
            for label, r in (("first", a), ("second", b), ("traced", traced)):
                if r.get("failures"):
                    problems.append(f"{name} {label} run failed: {r['failures']}")
            if a.get("sweeps") != b.get("sweeps") or a.get("digest") != b.get("digest"):
                problems.append(f"{name}: same seed, different sweeps or digest")
            if traced.get("sweeps") != a.get("sweeps"):
                problems.append(f"{name}: traced run counted {traced.get('sweeps')} sweeps, "
                                f"untraced {a.get('sweeps')}")
            print(f"{name}: sweeps {a.get('sweeps')}, digest {a.get('digest')}", file=sys.stderr)
            shutil.rmtree(workdir, ignore_errors=True)
        workloads.prepare("gradcheck-2d", workdir, 7)
        bad = run.run_child("gradcheck-2d", workdir, 7, trace=False, corrupt_adjoint=True)
        if not bad.get("failures"):
            problems.append("gradcheck-2d with a corrupted adjoint passed its gates")
        else:
            print(f"corrupted adjoint flagged: {bad['failures']}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("SELFTEST FAIL:", p)
    print("selftest " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
