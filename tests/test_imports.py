"""Source hygiene: every name a package or test module imports is used in
it, every parameter a package function declares is used in its body, and
every public function, class and method has a caller outside the tests."""

import ast
from collections import Counter
from pathlib import Path

import parext

MODULES = sorted(p for p in Path(parext.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))
BENCHMARKS = sorted((Path(__file__).parent.parent / "benchmarks").glob("*.py"))

# public names that only tests call, each waiting for the ROADMAP item that
# gives it a report: a K-term sharp_holder_gap for K translated paraboloids
# (item 13) and the composition law for following the extremizing sequence
# past the grid (item 4)
TEST_ONLY = {"sharp_holder_gap", "compose_symmetry"}


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


def imported_packages(source: str) -> set:
    """The top-level packages of the absolute imports in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def private_imports(source: str, module: str) -> list:
    """(line, name) for each private name ``source`` imports from the
    package module ``module``, relatively or as ``parext.<module>``."""
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, module), (0, f"parext.{module}"))
        for alias in node.names
        if alias.name.startswith("_")
    )


def names_in(tree: ast.AST) -> Counter:
    """How often each name or attribute appears in ``tree``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def uncalled_public_names(modules: dict, others: list) -> list:
    """(module, line, name) for each public module-level function or class
    of the ``modules`` sources, and each public method of those classes
    (as "Class.method"), that no module and none of the ``others`` sources
    names outside the definition itself.  A re-export is not a call, so
    ``modules`` leaves out the package's __init__."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    named = sum((names_in(ast.parse(source)) for source in others), Counter())
    for tree in trees.values():
        named += names_in(tree)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defs = [(node, node.name)]
            if isinstance(node, ast.ClassDef):
                defs += [
                    (m, f"{node.name}.{m.name}")
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                ]
            found += [
                (module, d.lineno, label) for d, label in defs if named[d.name] <= names_in(d)[d.name]
            ]
    return found


def test_unused_imports_are_detected():
    src = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(src) == [(1, "os"), (3, "pi")]


def test_package_modules_import_nothing_unused():
    # the tests are scanned too, so an import a test no longer needs goes with it
    assert MODULES and TESTS
    found = {p.name: unused_imports(p.read_text()) for p in MODULES + TESTS}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_only_the_block_runner_starts_threads():
    # extension._run_blocks is the package's one thread pool
    assert imported_packages("import concurrent.futures\nfrom threading import local\n") == {
        "concurrent", "threading",
    }
    found = {p.name for p in MODULES if imported_packages(p.read_text()) & {"concurrent", "threading"}}
    assert found == {"extension.py"}


def test_private_imports_are_detected():
    src = (
        "from .extension import _a, b\n"
        "from parext.extension import _c\n"
        "from .norms import _d\n"
        "from . import extension\n"
    )
    assert private_imports(src, "extension") == [(1, "_a"), (2, "_c")]


def test_only_norms_imports_private_names_of_extension():
    # the held field and the consumer protocol of ExtensionOperator.apply
    # (mirrored, rows, scratch, out) stay behind extension and norms
    found = {p.name: private_imports(p.read_text(), "extension") for p in MODULES}
    assert {name for name, hits in found.items() if hits} == {"norms.py"}


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


def test_uncalled_public_names_are_detected():
    lib = (
        "def used():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def _private():\n    pass\n"
        "class K:\n    def m(self):\n        return self.n()\n    def n(self):\n        pass\n"
        "    def _hidden(self):\n        pass\n"
    )
    caller = "from lib import used, K\nused(K())\n"
    assert uncalled_public_names({"lib.py": lib}, [caller]) == [
        ("lib.py", 5, "recursive"), ("lib.py", 10, "K.m"),
    ]
    # a name the other source reads counts as a caller
    assert uncalled_public_names({"lib.py": lib}, [caller + "recursive(3)\nK().m()\n"]) == []


def test_public_names_have_a_caller():
    assert MODULES and BENCHMARKS
    modules = {p.name: p.read_text() for p in MODULES}
    found = uncalled_public_names(modules, [p.read_text() for p in BENCHMARKS])
    # an exemption whose name gains a caller or goes leaves the set too
    assert sorted(label for _, _, label in found) == sorted(TEST_ONLY)
