"""Import hygiene: every module-level import in `src/vfblock` (the package's
`__init__.py` excepted) binds only names its module uses.  A statement that
is kept on purpose, say as a re-export, carries `# noqa`.  And no function or
method in `src/vfblock` is dead: each is named somewhere in the package,
exported by `__init__.py`, or allowed below with its reason.  And every
parameter of a function or method in `src/vfblock` is read in its body, or
allowed below with its reason.  And no run imports jsonschema, a scenario
parse included, and every shipped scenario runs alike where it cannot be
imported.  And every Python file of
the repository parses under the 3.10 grammar, the oldest the project
supports, and names none of the modules, classes and builtins that 3.11
added."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vfblock"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(p for d in ("src", "tests", "benchmark", "scripts")
                 for p in (ROOT / d).rglob("*.py"))


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


# functions that no code in src/vfblock names, kept on purpose
DEAD_NAME_ALLOWLIST = {
    "contains_zero": "the README names it as the tests' interval oracle",
    "interval_lipschitz": "benchmark/tracer.py times it as the index.lipschitz span",
    "falsification_run": "the entry point of scripts/run_falsification.py",
}


def _dead_functions(package: pathlib.Path) -> list[str]:
    """Functions and methods defined in the package's modules whose name no
    code in the package reads (as a name or an attribute) and `__init__.py`
    does not export.  Names are matched, not bindings, so a name shared with
    a live function passes; dunder methods are called by the language."""
    named, defined = set(), []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias) and path.name == "__init__.py":
                named.add(node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((path.name, node.lineno, node.name))
    return [f"{module}:{line}: {name}" for module, line, name in defined
            if name not in named and not (name.startswith("__") and name.endswith("__"))]


def test_every_function_is_named():
    found = _dead_functions(PACKAGE)
    dead = [d for d in found if d.rsplit(" ", 1)[1] not in DEAD_NAME_ALLOWLIST]
    assert dead == [], f"defined but never named in src/vfblock: {dead}"
    # an allowed name that code starts to read, or that is deleted, leaves the list
    assert {d.rsplit(" ", 1)[1] for d in found} == set(DEAD_NAME_ALLOWLIST)


def test_the_scan_sees_a_dead_function(tmp_path):
    (tmp_path / "__init__.py").write_text("from .m import exported\n", encoding="utf-8")
    (tmp_path / "m.py").write_text(
        "def exported():\n    return _used()\n\n"
        "def _used():\n    return 1\n\n"
        "def dead():\n    return 2\n\n"
        "class C:\n    def __len__(self):\n        return 0\n\n"
        "    def method(self):\n        return self.other()\n\n"
        "    def other(self):\n        return 3\n", encoding="utf-8")
    assert _dead_functions(tmp_path) == ["m.py:7: dead", "m.py:14: method"]


# parameters that their function never reads, kept on purpose
UNREAD_PARAMETER_ALLOWLIST = {
    "poly._int_powers(n)": "cell_test calls it with the arguments of trig.cell_factors",
    "scenario._integer(s)": "it is a _Kind.read, called with the scenario",
    "poly.TermMap._of(d)": "Poly2._of overrides it and reads d",
}


def _unread_parameters(package: pathlib.Path) -> list[str]:
    """Parameters of the functions and methods defined in the package's
    modules that their body never reads, as `module.qualname(parameter)`.  A
    read in a nested function or lambda counts; names are matched, not
    bindings, as in `_dead_functions`.  `self` and `cls` are skipped."""
    found = []
    for path in sorted(package.glob("*.py")):
        scopes = [(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
        while scopes:
            node, qualname = scopes.pop()
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    scopes.append((child, qualname))
                    continue
                name = f"{qualname}.{child.name}"
                scopes.append((child, name))
                if isinstance(child, ast.ClassDef):
                    continue
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                a = child.args
                found += [f"{name}({p.arg})" for p in (*a.posonlyargs, *a.args, a.vararg,
                                                       *a.kwonlyargs, a.kwarg)
                          if p and p.arg not in read and p.arg not in ("self", "cls")]
    return sorted(found)


def test_every_parameter_is_read():
    found = _unread_parameters(PACKAGE)
    unread = [p for p in found if p not in UNREAD_PARAMETER_ALLOWLIST]
    assert unread == [], f"parameters never read in src/vfblock: {unread}"
    # an allowed parameter that its function starts to read, or that is deleted,
    # leaves the list
    assert set(found) == set(UNREAD_PARAMETER_ALLOWLIST)


def test_the_scan_sees_an_unread_parameter(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, b):\n    return a\n\n"
        "def g(x, *args, y, **kw):\n    return lambda: (x, kw)\n\n"
        "def h(z):\n    def inner(u):\n        return z\n    return inner\n\n"
        "class C:\n    def m(self, v):\n        return None\n\n"
        "    @classmethod\n    def k(cls, w):\n        return w\n", encoding="utf-8")
    assert _unread_parameters(tmp_path) == ["m.C.m(v)", "m.f(b)", "m.g(args)", "m.g(y)",
                                            "m.h.inner(u)"]


COLD_RUN = """
import json, pathlib, random, sys
from fractions import Fraction
from vfblock import X, Y, disk, plane_field, verify_liealg, verify_main
from vfblock.corpus import random_tracking_scenario

x_field, y_field, region, zeros = random_tracking_scenario(random.Random(0))
verify_main(x_field, y_field, region, resolution=Fraction(1, 16), known_zeros=zeros)
euler = plane_field(X, Y)
verify_liealg([euler, plane_field(-Y, X)], euler, disk((0, 0), 1),
              resolution=Fraction(1, 16), known_zeros=[(0, 0)])
assert "jsonschema" not in sys.modules, "a run that parses no scenario loaded jsonschema"

from vfblock.errors import ScenarioSchemaError
from vfblock.scenario import parse_scenario
try:
    parse_scenario([1, 2])
except ScenarioSchemaError as e:
    print(e)
parse_scenario(json.loads(pathlib.Path(sys.argv[1]).read_text(encoding="utf-8")))
assert "jsonschema" not in sys.modules, "a scenario parse loaded jsonschema"
"""


def _fresh_interpreter(code: str, *args: str) -> subprocess.CompletedProcess:
    # a fresh interpreter: the test process itself has imported jsonschema
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)


def test_cold_run_without_a_scenario_never_loads_jsonschema():
    proc = _fresh_interpreter(COLD_RUN, str(ROOT / "scenarios" / "annulus_mainbis.json"))
    assert proc.returncode == 0, proc.stderr
    # a refusal is worded as jsonschema words it, and neither it nor a
    # parse that passes loads jsonschema
    assert proc.stdout == "schema violation at $: [1, 2] is not of type 'object'\n"


BLOCKED_RUN = """
import contextlib, io, json, sys
sys.modules["jsonschema"] = None     # any import of it raises ImportError
from vfblock.cli import main
runs = {}
for path in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", path])
    runs[path] = [code, out.getvalue()]
print(json.dumps(runs))
"""


def test_every_scenario_runs_alike_without_jsonschema(capsys):
    from vfblock.cli import main
    paths = sorted(str(p) for p in (ROOT / "scenarios").glob("*.json"))
    proc = _fresh_interpreter(BLOCKED_RUN, *paths)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    normal = {}
    for path in paths:
        code = main(["verify", path])
        normal[path] = [code, capsys.readouterr().out]
    assert json.loads(proc.stdout) == normal
    assert len(normal) == 6 and all(code == 0 for code, _ in normal.values())


def _newer_syntax(path: pathlib.Path) -> list[str]:
    """Where the file does not parse as Python 3.10, or []."""
    try:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    except SyntaxError as e:
        return [f"{path.name}:{e.lineno}: {e.msg}"]
    return []


def test_every_source_parses_as_python_3_10(tmp_path):
    # requires-python is >= 3.10; the grammar is checked on any interpreter
    assert len(SOURCES) > len(MODULES)
    assert [line for path in SOURCES for line in _newer_syntax(path)] == []
    newer = tmp_path / "m.py"
    newer.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n", encoding="utf-8")
    assert [line.split(":")[0] for line in _newer_syntax(newer)] == ["m.py"]


# What 3.11 added that the 3.10 grammar accepts: (module, name) pairs, a
# module alone, or a builtin alone.  The 3.10 leg of CI would fail on them
# only when the line runs.
_NEWER_NAMES = {("tomllib", None), ("enum", "StrEnum"), ("typing", "Self"),
                ("asyncio", "TaskGroup"), (None, "ExceptionGroup"),
                (None, "BaseExceptionGroup")}


def _newer_names(path: pathlib.Path) -> list[str]:
    """Where the file imports or names a 3.11 addition, one line each."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [(alias.name.split(".")[0], None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module, None)] + [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [(node.value.id, node.attr)]
        elif isinstance(node, ast.Name):
            names = [(None, node.id)]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {'.'.join(filter(None, pair))}"
                  for pair in names if pair in _NEWER_NAMES]
    return found


def test_no_source_names_a_python_3_11_addition(tmp_path):
    assert [line for path in SOURCES for line in _newer_names(path)] == []
    newer = tmp_path / "m.py"
    newer.write_text("import tomllib\nfrom enum import StrEnum\nimport typing\n"
                     "x: typing.Self\nimport asyncio\nasyncio.TaskGroup()\n"
                     "raise ExceptionGroup('e', [])\n", encoding="utf-8")
    assert _newer_names(newer) == ["m.py:1: tomllib", "m.py:2: enum.StrEnum",
                                   "m.py:4: typing.Self", "m.py:6: asyncio.TaskGroup",
                                   "m.py:7: ExceptionGroup"]
