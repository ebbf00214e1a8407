"""Source hygiene: every name a package module imports is used in it, and
every parameter a package function declares is used in its body."""

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


def unused_parameters(source: str) -> list:
    """(line, "function(parameter)") for each parameter of a function,
    method or lambda that its body never names; a nested function's use
    counts for the function that encloses it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        used = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        found += [(node.lineno, f"{name}({a.arg})") for a in params if a.arg not in used]
    return sorted(found)


def test_unused_imports_are_detected():
    src = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(src) == [(1, "os"), (3, "pi")]


def test_package_modules_import_nothing_unused():
    assert MODULES
    found = {p.name: unused_imports(p.read_text()) for p in MODULES}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_unused_parameters_are_detected():
    src = (
        "def f(a, b, *args, c=1, **kw):\n"
        "    def inner(x):\n"
        "        return b\n"
        "    return inner, kw\n"
        "class K:\n"
        "    def m(self, y):\n"
        "        return y\n"
        "g = lambda u, v: u\n"
    )
    assert unused_parameters(src) == [
        (1, "f(a)"), (1, "f(args)"), (1, "f(c)"), (2, "inner(x)"), (6, "m(self)"), (8, "<lambda>(v)"),
    ]


def test_package_functions_use_every_parameter():
    assert MODULES
    found = {p.name: unused_parameters(p.read_text()) for p in MODULES}
    assert {name: hits for name, hits in found.items() if hits} == {}
