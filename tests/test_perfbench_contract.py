"""The benchmark's calls into nlch_control still resolve and bind.

perfbench/tracer.py wraps functions by module and name (LAYERS), and
perfbench/workloads.py calls the public entry points with fixed argument
lists. A renamed function or a changed signature would otherwise show only
when the benchmark runs, as a LookupError or a TypeError. Both files are
only read here.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import nlch_control
import nlch_control.cli  # noqa: F401  (loads every module, as the benchmark does)
from nlch_control.config import RunConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# callee of each checked call in workloads.py, by the name it is called through
CALLEES = {
    "simulate": nlch_control.forward.simulate,
    "pgd_optimize": nlch_control.control.pgd_optimize,
    "run_gradcheck": nlch_control.gradcheck.run_gradcheck,
    "adjoint_sweep": nlch_control.sensitivity.adjoint_sweep,
    "mass_balance_residual": nlch_control.forward.mass_balance_residual,
    "projection_formula_defect": nlch_control.control.projection_formula_defect,
    "build_cost": RunConfig.build_cost,
}


def _workloads_tree() -> ast.Module:
    return ast.parse((PERFBENCH / "workloads.py").read_text())


def test_tracer_layer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, targets in tracer.LAYERS.items():
        for module, path in targets:
            owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
            for part in path.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}: {module}.{path}")
    assert not missing


def test_workload_calls_bind():
    tree = _workloads_tree()
    # tuples spliced into calls with *name
    tuples = {node.targets[0].id: len(node.value.elts) for node in ast.walk(tree)
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Tuple)}
    seen = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in CALLEES):
            continue
        name = node.func.attr
        n_positional = sum(tuples[arg.value.id] if isinstance(arg, ast.Starred) else 1
                           for arg in node.args)
        if name == "build_cost":
            n_positional += 1  # self
        assert all(kw.arg is not None for kw in node.keywords)
        inspect.signature(CALLEES[name]).bind(*[None] * n_positional,
                                              **{kw.arg: None for kw in node.keywords})
        seen.add(name)
    assert seen == set(CALLEES)


def test_workload_attributes_exist():
    # every nc.<module>.<name> the workloads read, and every RunConfig member
    config_members = {f.name for f in dataclasses.fields(RunConfig)} | set(dir(RunConfig))
    missing = []
    for node in ast.walk(_workloads_tree()):
        if not isinstance(node, ast.Attribute):
            continue
        chain = [node.attr]
        root = node.value
        while isinstance(root, ast.Attribute):
            chain.insert(0, root.attr)
            root = root.value
        if not isinstance(root, ast.Name):
            continue
        if root.id == "nc":
            owner = nlch_control
            for part in chain:
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append("nc." + ".".join(chain))
        elif root.id == "cfg" and chain[0] not in config_members:
            missing.append("cfg." + chain[0])
    assert not missing
