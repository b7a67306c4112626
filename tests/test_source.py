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
