import ast
from pathlib import Path

import pytest

import nlch_control

MODULES = sorted(p for p in Path(nlch_control.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (the package __init__ re-exports
    its imports, so it is not checked)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # an attribute chain such as np.linalg starts with a Name
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom .errors import A, B\nprint(np.pi, B)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: A"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []


def orphaned_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes (one leading underscore)
    that no code in the package refers to outside their own definition.

    sources maps a module's file name to its text; a reference is a name or
    an attribute anywhere in another top-level statement of any module.
    """
    definitions = []
    statements = []
    for name, source in sources.items():
        for node in ast.parse(source).body:
            statements.append(node)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                definitions.append((name, node))
    orphans = []
    for module, definition in definitions:
        referenced = any(
            (isinstance(ref, ast.Name) and ref.id == definition.name)
            or (isinstance(ref, ast.Attribute) and ref.attr == definition.name)
            for node in statements if node is not definition for ref in ast.walk(node))
        if not referenced:
            orphans.append(f"{module} line {definition.lineno}: {definition.name}")
    return orphans


def test_orphaned_private_definitions_are_found():
    sources = {
        "a.py": "def _helper():\n    return _helper()\n\n\ndef _used():\n    pass\n\n\n"
                "class _Base:\n    pass\n",
        "b.py": "from . import a\nfrom .a import _used\n\n\nclass Public(a._Base):\n"
                "    run = staticmethod(_used)\n",
    }
    assert orphaned_private_definitions(sources) == ["a.py line 1: _helper"]


def test_every_private_definition_is_referenced():
    package = Path(nlch_control.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert orphaned_private_definitions(sources) == []


def _dataclass_decorator(cls: ast.ClassDef):
    """The @dataclass decorator of a class definition (called or bare), or None."""
    return next((d for d in cls.decorator_list
                 if ast.unparse(getattr(d, "func", d)) in ("dataclass", "dataclasses.dataclass")),
                None)


def unread_fields(sources: dict[str, str]) -> list[str]:
    """Dataclass fields that no code in the package reads as an attribute
    (obj.name anywhere, in any module): a field nothing reads is state no
    caller needs. A self.name load inside a class's own __post_init__ does
    not count: a field only its own check reads is still unread. The
    KW_ONLY marker is not a field.

    sources maps a module's file name to its text.
    """
    fields = []
    read = set()
    for name, source in sources.items():
        tree = ast.parse(source)
        own_checks = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                      for method in cls.body
                      if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
                      for node in ast.walk(method)
                      if isinstance(node, ast.Attribute)
                      and ast.unparse(node.value) == "self"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in own_checks):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and _dataclass_decorator(node):
                fields.extend((name, stmt.lineno, node.name, stmt.target.id)
                              for stmt in node.body
                              if isinstance(stmt, ast.AnnAssign)
                              and ast.unparse(stmt.annotation) != "KW_ONLY")
    return [f"{module} line {line}: {cls}.{field}" for module, line, cls, field in fields
            if field not in read]


def test_unread_fields_are_found():
    sources = {
        "a.py": "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int\n    _: KW_ONLY\n"
                "    z: float = 0.0\n\n\nclass B:\n    w: int\n",
        "b.py": "def f(a):\n    a.y = 1\n    return a.x + g(a.z)\n",
        "c.py": "@dataclass(frozen=True)\nclass C:\n    lo: float\n    hi: float\n\n"
                "    def __post_init__(self):\n        if self.hi < self.lo:\n"
                "            raise ValueError(self.hi)\n\n"
                "    def width(self):\n        return 2 * self.lo\n",
    }
    assert unread_fields(sources) == ["a.py line 4: A.y", "c.py line 4: C.hi"]


def test_every_dataclass_field_is_read():
    package = Path(nlch_control.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert unread_fields(sources) == []


def copies_over_steps(source: str) -> list[str]:
    """Calls of tile or repeat (np.tile, arr.repeat, a bare imported name):
    data constant in time is broadcast over the steps (np.broadcast_to),
    not copied into each one."""
    return [f"line {node.lineno}: {ast.unparse(node.func)}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("tile", "repeat")]


def test_copies_over_steps_are_found():
    source = ("import numpy as np\nfrom numpy import repeat\nrow = np.zeros(3)\n"
              "a = np.tile(row, (4, 1))\nb = np.broadcast_to(row, (4, 3))\n"
              "c = row.repeat(2)\nd = repeat(row, 2)\n")
    assert copies_over_steps(source) == ["line 4: np.tile", "line 6: row.repeat",
                                         "line 7: repeat"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_broadcasts_instead_of_tiling(path):
    assert copies_over_steps(path.read_text()) == []


# the modules where a field enters a run (configuration, snapshot files) or
# leaves it for output (the command line's snapshot writes)
FIELD_BOUNDARY_MODULES = ("config.py", "snapshots.py", "cli.py")


def field_constructions(source: str) -> list[str]:
    """Calls of ScalarField(...), ScalarField.constant(...) or State(...)
    outside StateTrajectory.state: inside the solver a field is a flat
    array, and a ScalarField is built only where a field enters or leaves a
    run. StateTrajectory.state, which hands a stored state out, is the one
    place outside FIELD_BOUNDARY_MODULES that builds them."""
    tree = ast.parse(source)
    exempt = {id(node) for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name == "StateTrajectory"
              for method in cls.body
              if isinstance(method, ast.FunctionDef) and method.name == "state"
              for node in ast.walk(method)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and id(node) not in exempt
             and ast.unparse(node.func) in ("ScalarField", "ScalarField.constant", "State")]
    return [f"line {node.lineno}: {ast.unparse(node.func)}"
            for node in sorted(calls, key=lambda node: (node.lineno, node.col_offset))]


def test_field_constructions_are_found():
    source = ("f = ScalarField(grid, values)\ng = ScalarField.constant(grid, 0.0)\n"
              "s = State(f, g)\nv = f.values\n\n\nclass StateTrajectory:\n"
              "    def state(self, n):\n"
              "        return State(ScalarField(self.grid, self.phi[n]), self.sigma[n])\n\n"
              "    def first(self):\n        return ScalarField(self.grid, self.phi[0])\n")
    assert field_constructions(source) == ["line 1: ScalarField", "line 2: ScalarField.constant",
                                           "line 3: State", "line 12: ScalarField"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in FIELD_BOUNDARY_MODULES],
                         ids=lambda p: p.name)
def test_solver_modules_build_no_fields(path):
    assert field_constructions(path.read_text()) == []


def _is_false(call, keyword: str) -> bool:
    """True when call is a Call passing keyword=False."""
    return isinstance(call, ast.Call) and any(
        k.arg == keyword and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in call.keywords)


def compared_array_fields(source: str) -> list[str]:
    """Dataclass fields whose annotation names np.ndarray and that the
    generated __eq__ and __hash__ read: numpy compares arrays elementwise,
    so such an __eq__ raises on arrays of more than one value and the hash
    fails. Each such field is compare=False, or its class is eq=False and
    compares by identity."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorator = _dataclass_decorator(cls)
        if decorator is None or _is_false(decorator, "eq"):
            continue
        found.extend(f"line {stmt.lineno}: {cls.name}.{stmt.target.id}" for stmt in cls.body
                     if isinstance(stmt, ast.AnnAssign)
                     and "np.ndarray" in ast.unparse(stmt.annotation)
                     and not _is_false(stmt.value, "compare"))
    return found


def test_compared_array_fields_are_found():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: np.ndarray\n"
              "    y: np.ndarray = field(repr=False, compare=False)\n"
              "    z: tuple[np.ndarray, ...] | None = field(repr=False)\n    n: int = 0\n\n\n"
              "@dataclass(frozen=True, eq=False)\nclass B:\n    x: np.ndarray\n\n\n"
              "@dataclasses.dataclass\nclass C:\n    x: np.ndarray\n\n\n"
              "class D:\n    x: np.ndarray\n")
    assert compared_array_fields(source) == ["line 3: A.x", "line 5: A.z", "line 16: C.x"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_dataclasses_compare_no_arrays(path):
    assert compared_array_fields(path.read_text()) == []
