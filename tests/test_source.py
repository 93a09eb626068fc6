"""Source hygiene: no import and no module-level name is left unused, and
no fast-path module loads an oracle.

A deletion that strands an import, a private helper or a public function
or class fails here, and so does an import of `oracle`, `verify` or
`linalg` that runs when a fast-path module loads, read from the syntax
trees of the package's modules.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polyhvec"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
MODULES = sorted(name for name in TREES if name != "__init__.py")
# the code that may read a public name: the package, its tests, the benchmark
READERS = [
    ast.parse(path.read_text())
    for folder in (SRC, ROOT / "tests", ROOT / "perfbench")
    for path in sorted(folder.glob("*.py"))
]


def read_names(tree):
    """The names a tree reads: plain names and attributes, not stores."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_import_is_used():
    for name in MODULES:
        tree = TREES[name]
        used = set(read_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    assert bound in used, f"{name} imports {bound} and never uses it"


def test_every_private_module_name_is_read():
    # read anywhere in the package, or imported by name into another module
    read = set()
    for tree in TREES.values():
        read.update(read_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    for name in MODULES:
        for node in TREES[name].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [ast.Name(node.name)]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for n in ast.walk(target):
                    private = isinstance(n, ast.Name) and n.id.startswith("_")
                    if private and not n.id.startswith("__"):
                        assert n.id in read, f"{name} defines {n.id}; nothing reads it"


def test_every_public_function_and_class_is_read():
    # outside its own body: a recursive call or a method reading its own
    # class does not keep a definition alive
    read = Counter(name for tree in READERS for name in read_names(tree))
    for name in MODULES:
        for node in TREES[name].body:
            defined = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if defined and not node.name.startswith("_"):
                own = Counter(read_names(node))
                assert read[node.name] > own[node.name], (
                    f"{name} defines {node.name}; nothing else reads it"
                )


FAST_PATH = ["__init__", "cli", "cdwords", "errors", "flagvec", "hpoly", "hvector", "lattice"]
ORACLES = {"oracle", "verify", "linalg"}


def load_time_imports(tree):
    """The imports a module runs when it loads: none inside a function."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        todo.extend(ast.iter_child_nodes(node))


def imported_modules(node):
    """The last part of every module name an import statement names."""
    names = [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        names.append(node.module)
    return {name.rsplit(".", 1)[-1] for name in names}


def test_the_fast_path_loads_no_oracle():
    # lazy imports inside functions, `__getattr__` among them, stay allowed
    for name in FAST_PATH:
        for node in load_time_imports(TREES[f"{name}.py"]):
            found = imported_modules(node) & ORACLES
            assert not found, f"{name} imports {sorted(found)} on load"
