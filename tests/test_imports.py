"""Every name a package module imports is used in it (``__init__``, which
re-exports, is left out), every import but one sits at module level, and
no module but ``groups`` reaches into a lattice's ``LatticeShape``.
Parsed with the standard ``ast`` module alone."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fusionsys"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
OUTSIDE_GROUPS = sorted(p for p in PACKAGE.glob("*.py") if p.name != "groups.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """The names read anywhere, quoted annotations included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    used |= _used(ast.parse(node.value, mode="eval"))
                except SyntaxError:  # a string literal, not a forward reference
                    pass
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_has_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items() if name not in used)
    assert unused == [], f"{path.name}: unused imports (line, name) {unused}"


@pytest.mark.parametrize("path", OUTSIDE_GROUPS, ids=[p.stem for p in OUTSIDE_GROUPS])
def test_module_reads_no_lattice_shape(path):
    """The group layer owns each ``LatticeShape``; every other module reads
    a lattice through ``SubgroupLattice`` (``groups.lattice_of``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("shape", "_shape")
    )
    assert reads == [], f"{path.name}: shape attributes (line, name) {reads}"


# The one import made inside a function: the verify command loads the
# property suites, which keeps the CLI's cold start short.
FUNCTION_IMPORTS = {("cli", "cmd_verify", "verify")}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    inner = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    inner |= {(path.stem, fn.name, a.asname or a.name) for a in node.names}
    extra = sorted(inner - FUNCTION_IMPORTS)
    assert extra == [], f"{path.name}: imports inside functions (module, function, name) {extra}"
