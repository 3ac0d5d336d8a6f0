"""Import hygiene: every module-level import in `src/vfblock` (the package's
`__init__.py` excepted) binds only names its module uses.  A statement that
is kept on purpose, say as a re-export, carries `# noqa`."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "vfblock"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _bound_names(stmt):
    """The names an import statement binds."""
    if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in stmt.names
            if alias.name != "*"]


def _used_names(tree) -> set[str]:
    """Every name the module reads, in code or in a string annotation."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return used


def _unused_imports(path: pathlib.Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree)
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa" in line for line in lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        unused += [f"{path.name}:{stmt.lineno}: {name}"
                   for name in _bound_names(stmt) if name not in used]
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused_imports(path) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import math\nimport os  # noqa: F401\n"
                      "from fractions import Fraction\n"
                      "from .poly import Poly2, X\n\n"
                      "def f(a: Fraction, b: 'Poly2') -> None:\n    return None\n",
                      encoding="utf-8")
    assert _unused_imports(module) == ["m.py:2: math", "m.py:5: X"]
