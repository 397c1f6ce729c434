"""Import and export hygiene of the package modules.

A stdlib-only stand-in for a linter: every name a module imports is used
in it, every name in its `__all__` is defined in it (so a deletion cannot
leave a stale export behind), the exact layer (`__init__`, `errors`,
`exponents`, `extrapolation`, `applications`, `reports`) imports only from
itself and never numpy, in its source and in a fresh interpreter, and
every exception class in `errors.py` is raised somewhere in the package or
extended by one that is (so the class list cannot regrow entries nothing
raises), and every function the benchmark's tracer wraps (`WRAPPED` in
`perfbench/tracer.py`, read without importing it) still exists, so a rename
cannot leave a layer untraced, and no function but `cli.main` writes to
stdout, so every report goes out through its one writer, and no module but
`reports.py` imports `exp_str`, so exponents stay exact values until
`to_jsonable` writes them, and `Exponent` defines no arithmetic operator,
so exponent algebra stays on Fractions through `rec` and `from_rec`, and
every name in an `__all__` is used somewhere in the package or the
benchmark (`EXPORT_ALLOWLIST` names the exceptions and why), so no public
name outlives its last user.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "extrapkit"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
MODULES = sorted(SRC.glob("*.py"))
EXACT_LAYER = ["__init__", "errors", "exponents", "extrapolation", "applications", "reports"]


def _annotation_names(node):
    # quoted annotations ("GridFunction") are strings in the tree
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def annotation_uses(tree) -> set[str]:
    """The names in the annotations of a tree, quoted ones included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | annotation_uses(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_unused_and_annotation_uses():
    src = (
        "from __future__ import annotations\n"
        "import os\nfrom x import A, B, C\n"
        "def f(a: 'A') -> B:\n    return 1\n"
    )
    assert unused_imports(src) == ["C (line 3)", "os (line 2)"]


def top_level_names(tree) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def exports(tree) -> list[str]:
    """The names listed in a module's `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def stale_exports(source: str) -> list[str]:
    """Names listed in `__all__` that the module itself does not define."""
    tree = ast.parse(source)
    return sorted(set(exports(tree)) - top_level_names(tree))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_defined(path):
    assert stale_exports(path.read_text()) == []


def test_stale_export_detector():
    src = '__all__ = ["f", "C", "K", "gone"]\ndef f(): pass\nclass C: pass\nK: int = 1\n'
    assert stale_exports(src) == ["gone"]


def package_imports(source: str) -> set[str]:
    """The package modules a module imports from, relatively or by name."""
    mods = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("extrapkit")):
            sub = (node.module or "").removeprefix("extrapkit").lstrip(".")
            mods |= {sub.split(".")[0]} if sub else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            mods |= {a.name.split(".")[1] for a in node.names if a.name.startswith("extrapkit.")}
    return mods


def test_package_import_detector():
    src = (
        "import numpy\nfrom . import weights\nfrom .errors import E\n"
        "import extrapkit.gridfn\nfrom extrapkit.rdf import x\nfrom extrapkit import grid\n"
    )
    assert package_imports(src) == {"weights", "errors", "gridfn", "rdf", "grid"}


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source imports absolutely."""
    mods = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            mods |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            mods.add(node.module.split(".")[0])
    return mods


def test_imported_module_detector():
    src = (
        "from __future__ import annotations\nimport numpy as np\nimport os.path\n"
        "from numpy.linalg import norm\nfrom . import grid\nfrom .gridfn import bht\n"
    )
    assert imported_modules(src) == {"__future__", "numpy", "os"}


def test_exact_planner_layer_imports_no_numeric_module():
    # floats never enter the exponent calculus: the planners and their reports need no numpy
    for name in EXACT_LAYER:
        source = (SRC / f"{name}.py").read_text()
        assert package_imports(source) <= {"errors", "exponents", "extrapolation"}, name
        assert "numpy" not in imported_modules(source), name


def test_exact_layer_loads_without_numpy():
    # a fresh interpreter also sees transitive imports, the package root's included
    code = "import sys, extrapkit.applications, extrapkit.reports; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def raised_names(source: str) -> set[str]:
    """Names of the exceptions a module raises: `raise X` and `raise X(...)`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def dead_error_classes(errors_source: str, sources) -> list[str]:
    """Classes of `errors_source` that no source raises and no class there extends."""
    classes = [n for n in ast.parse(errors_source).body if isinstance(n, ast.ClassDef)]
    bases = {b.id for c in classes for b in c.bases if isinstance(b, ast.Name)}
    raised = set().union(*(raised_names(s) for s in sources))
    return sorted(c.name for c in classes if c.name not in raised | bases)


def test_every_error_class_is_raised():
    sources = [p.read_text() for p in SRC.glob("*.py")]
    assert dead_error_classes((SRC / "errors.py").read_text(), sources) == []


def test_dead_error_class_detector():
    errors = "class E(Exception): pass\nclass A(E): pass\nclass B(E): pass\nclass C(E): pass\n"
    sources = ["raise A('x')\n", "try:\n    pass\nexcept C:\n    raise B\n"]
    assert dead_error_classes(errors, sources) == ["C"]


def wrapped_functions(tracer_source: str) -> list[tuple[str, str]]:
    """(module, attribute) of each entry of the tracer's `WRAPPED` list."""
    for node in ast.parse(tracer_source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return [(e.elts[1].value, e.elts[2].value) for e in node.value.elts]
    return []


def unresolved(pairs) -> list[str]:
    """The `module.attribute` names of `pairs` that do not resolve."""
    missing = []
    for modname, attr in pairs:
        try:
            found = hasattr(importlib.import_module(modname), attr)
        except ImportError:
            found = False
        if not found:
            missing.append(f"{modname}.{attr}")
    return missing


def test_traced_functions_exist():
    pairs = wrapped_functions(TRACER.read_text())
    assert pairs and unresolved(pairs) == []


def test_untraced_function_detector():
    src = (
        "WRAPPED = [\n"
        '    ("a", "extrapkit.gridfn", "maximal", None),\n'
        '    ("b", "extrapkit.gridfn", "gone", _cells),\n'
        '    ("c", "extrapkit.nosuch", "f", None),\n'
        "]\n"
    )
    assert unresolved(wrapped_functions(src)) == ["extrapkit.gridfn.gone", "extrapkit.nosuch.f"]


def stray_output(source: str, allowed: str | None = None) -> list[str]:
    """`function:line` of each stdout write outside the function `allowed`:
    a `sys.stdout` reference, or a `print` call without `file=sys.stderr`."""
    found = set()

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        stdout = (
            isinstance(node, ast.Attribute) and node.attr == "stdout"
            and isinstance(node.value, ast.Name) and node.value.id == "sys"
        )
        printed = (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
            and not any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in node.keywords)
        )
        if (stdout or printed) and fn != allowed:
            found.add(f"{fn}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_only_cli_main_writes_stdout():
    found = {p.name: stray_output(p.read_text(), "main" if p.name == "cli.py" else None)
             for p in SRC.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_stray_output_detector():
    src = (
        "import sys\n"
        "def main():\n    print('report')\n    sys.stdout.write('x')\n"
        "def handler():\n    print('warn', file=sys.stderr)\n    print('row')\n"
        "    w = csv.writer(sys.stdout)\n"
        "    def inner():\n        print('x', file=sys.stdout)\n"
        "print('top')\n"
    )
    assert stray_output(src, "main") == ["<module>:11", "handler:7", "handler:8", "inner:10"]


def imports_name(source: str, name: str) -> bool:
    """Whether a module imports `name` from anywhere."""
    return any(
        isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names)
        for node in ast.walk(ast.parse(source))
    )


def test_only_reports_writes_exponents_as_strings():
    # exponents stay exact values until `reports.to_jsonable` serializes them
    users = sorted(p.name for p in SRC.glob("*.py") if imports_name(p.read_text(), "exp_str"))
    assert users == ["reports.py"]


def test_import_name_detector():
    assert imports_name("from .exponents import Exponent, exp_str\n", "exp_str")
    assert not imports_name("from .exponents import Exponent\nexp_str = str\n", "exp_str")


ARITHMETIC = [f"__{r}{op}__" for op in ("add", "sub", "mul", "truediv", "pow") for r in ("", "r")]


def arithmetic_dunders(cls) -> list[str]:
    """The arithmetic operators a class defines or inherits."""
    return [name for name in ARITHMETIC if hasattr(cls, name)]


def test_exponent_defines_no_arithmetic():
    # exponent algebra runs on Fractions through `rec` / `from_rec`
    from extrapkit.exponents import Exponent

    assert arithmetic_dunders(Exponent) == []


def test_arithmetic_dunder_detector():
    class Base:
        def __rpow__(self, other):
            return other

    class Value(Base):
        def __truediv__(self, other):
            return other

        def __lt__(self, other):
            return False

    assert arithmetic_dunders(Value) == ["__truediv__", "__rpow__"]
    assert arithmetic_dunders(object) == []


# Exports that nothing in the package or the benchmark uses, kept on purpose.
EXPORT_ALLOWLIST = {
    "applications.bht_base_class": "criterion 5's oracle: Section 5 must recover the base BHT classes",
}


def referenced_names(source: str) -> set[str]:
    """The names a source uses: loaded names, read attributes and annotations.
    A definition or an assignment target is not a use, nor an `__all__` string."""
    tree = ast.parse(source)
    used = annotation_uses(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def unreferenced_exports(modules: dict[str, str], sources, extra=()) -> list[str]:
    """`module.name` of each `__all__` entry of `modules` that no source and
    no name in `extra` references."""
    used = set(extra).union(*(referenced_names(s) for s in sources))
    return sorted(f"{m}.{n}" for m, src in modules.items() for n in exports(ast.parse(src)) if n not in used)


def test_every_export_has_a_user():
    # the tracer wraps its functions by name, so its WRAPPED strings are uses too
    sources = [p.read_text() for p in MODULES + sorted(PERFBENCH.rglob("*.py"))]
    traced = {attr for _, attr in wrapped_functions(TRACER.read_text())}
    modules = {p.stem: p.read_text() for p in MODULES}
    assert unreferenced_exports(modules, sources, traced) == sorted(EXPORT_ALLOWLIST)


def test_unreferenced_export_detector():
    module = (
        '__all__ = ["f", "C", "K", "S", "T", "dead", "traced"]\n'
        "K = 1\nS = 2\n"
        "def f(x: 'C') -> None:\n    return K\n"
        "class C: pass\nclass T: pass\ndef dead(): pass\ndef traced(): pass\n"
    )
    user = "import m\nm.T()\nf(1)\n"
    assert unreferenced_exports({"m": module}, [module, user], {"traced"}) == ["m.S", "m.dead"]
