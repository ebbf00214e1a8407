"""Source hygiene: every name a package module imports is used in it."""

import ast
from pathlib import Path

import parext

MODULES = sorted(p for p in Path(parext.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_detected():
    src = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(src) == [(1, "os"), (3, "pi")]


def test_package_modules_import_nothing_unused():
    assert MODULES
    found = {p.name: unused_imports(p.read_text()) for p in MODULES}
    assert {name: hits for name, hits in found.items() if hits} == {}
