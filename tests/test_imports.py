"""Every name a memheat module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import memheat

_MODULES = sorted(p for p in Path(memheat.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_scan_sees_plain_dotted_and_aliased_imports():
    source = ("import os\nimport numpy as np\nimport scipy.integrate\n"
              "from math import exp, log as ln\nnp.zeros(ln(2))\n")
    assert _unused_imports(source) == ["line 1: os", "line 3: scipy",
                                       "line 4: exp"]


def _dead_names(sources: dict) -> list[str]:
    """Module-level functions, classes and constants of the modules in
    sources (name -> text) that no other top-level statement of any of them
    names as an ast.Name or ast.Attribute; an import in __init__ counts as a
    use.  Reported as "module.name"."""
    defined, statements, exported = [], [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = {node.id for node in ast.walk(stmt)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            names |= {node.attr for node in ast.walk(stmt)
                      if isinstance(node, ast.Attribute)}
            statements.append((stmt, names))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, stmt.name, stmt))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined += [(module, t.id, stmt) for t in targets
                            if isinstance(t, ast.Name) and not t.id.startswith("__")]
            elif module == "__init__" and isinstance(stmt, ast.ImportFrom):
                exported |= {alias.asname or alias.name for alias in stmt.names}
    return sorted(f"{module}.{name}" for module, name, own in defined
                  if name not in exported
                  and not any(name in names for stmt, names in statements
                              if stmt is not own))


def test_package_has_no_dead_names():
    sources = {path.stem: path.read_text()
               for path in Path(memheat.__file__).parent.glob("*.py")}
    assert _dead_names(sources) == []


def test_dead_name_scan_sees_functions_classes_and_constants():
    sources = {
        "__init__": "from .a import exported\n__version__ = '1'\n",
        "a": ("LIMIT = 3\nUNUSED = 4\nREAD_AS_ATTRIBUTE = 5\n"
              "def exported():\n    return helper() + LIMIT\n"
              "def helper():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Shadow:\n    pass\n"),
        "b": ("from . import a\nfrom .a import helper\nShadow = None\n"
              "x = helper\nprint(a.READ_AS_ATTRIBUTE)\n"),
    }
    # an import is no use, nor a call from a function's own body, nor an
    # assignment to the same name; an attribute of that name is a use
    assert _dead_names(sources) == ["a.Shadow", "a.UNUSED", "a.recursive",
                                    "b.Shadow", "b.x"]


def _imported_modules(source: str) -> set[str]:
    """Dotted names of the modules and module members a source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
    return names


def test_only_the_ode_oracle_imports_scipy_integrate():
    importers = sorted(
        path.stem for path in Path(memheat.__file__).parent.glob("*.py")
        if any(name.startswith("scipy.integrate")
               for name in _imported_modules(path.read_text())))
    assert importers == ["ode_oracle"]
