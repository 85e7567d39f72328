"""Every name a memheat module imports is used in that module, and none is
another module's private name."""

import ast
import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import memheat
from memheat import pde_core

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
                # a, b = ... defines each name of the tuple
                targets = [e for t in targets
                           for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
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
              "PAIR_USED, PAIR_UNUSED = 6, 7\n"
              "def exported():\n    return helper() + LIMIT + PAIR_USED\n"
              "def helper():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Shadow:\n    pass\n"),
        "b": ("from . import a\nfrom .a import helper\nShadow = None\n"
              "x = helper\nprint(a.READ_AS_ATTRIBUTE)\n"),
    }
    # an import is no use, nor a call from a function's own body, nor an
    # assignment to the same name; an attribute of that name is a use; each
    # name of a tuple assignment is defined on its own
    assert _dead_names(sources) == ["a.PAIR_UNUSED", "a.Shadow", "a.UNUSED",
                                    "a.recursive", "b.Shadow", "b.x"]


def _unset_defaults(sources: dict) -> list[str]:
    """Parameter defaults of the functions and methods in sources (module
    name -> text) that no call in any of them overrides, by keyword or by
    position.  A call matches every function of its name, and a class name
    its __init__; a *args or **kwargs at the call overrides every default.
    Reported as "module.[Class.]function(parameter)"."""
    functions, calls = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        owner = {id(item): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(name, []).append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((module, owner.get(id(node)), node))
    unset = []
    for module, cls, fn in functions:
        args = fn.args
        positional = args.posonlyargs + args.args
        static = any(getattr(d, "id", None) == "staticmethod"
                     for d in fn.decorator_list)
        if cls is not None and not static:
            positional = positional[1:]     # self or cls, bound at the call
        defaulted = [(i, arg) for i, arg in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, arg) for arg, d in zip(args.kwonlyargs,
                                                    args.kw_defaults) if d]
        name = cls if fn.name == "__init__" else fn.name
        for i, arg in defaulted:
            if not any(any(isinstance(a, ast.Starred) for a in call.args)
                       or i is not None and len(call.args) > i
                       or any(kw.arg in (arg.arg, None) for kw in call.keywords)
                       for call in calls.get(name, [])):
                where = f"{cls}.{fn.name}" if cls else fn.name
                unset.append(f"{module}.{where}({arg.arg})")
    return sorted(unset)


# parameter defaults that no package call overrides, kept on purpose
_DEFAULTS_KEPT = {
    # the console script calls main() on sys.argv; tests pass argv
    "cli.main(argv)",
    # these two constructors mirror the JSON keys' defaults
    "coeffs.CoefficientSpec.power_log(log_power)",
    "coeffs.CoefficientSpec.tabulated(amplitude)",
}


def test_every_parameter_default_is_overridden_by_a_package_call():
    # a default that no caller overrides is a setting only tests reach
    sources = {path.stem: path.read_text()
               for path in Path(memheat.__file__).parent.glob("*.py")}
    assert sorted(set(_unset_defaults(sources)) - _DEFAULTS_KEPT) == []


def test_unset_default_scan_sees_keywords_positions_and_methods():
    sources = {
        "a": ("def f(x, y=1, z=2, *, w=3):\n    return x\n"
              "class K:\n"
              "    def __init__(self, n=0):\n        self.n = n\n"
              "    def m(self, u=1, v=2):\n        return u\n"
              "    @staticmethod\n    def s(r=1):\n        return r\n"
              "    @classmethod\n    def c(cls, e=1):\n        return cls()\n"),
        "b": ("from .a import K, f\n"
              "f(0, 5)\nf(0, w=4)\nK().m(7)\nK.s(2)\nK.c()\n"
              "def g(*args, q=0):\n    return K(*args)\n"),
    }
    # y by position and w by keyword; a method's position skips self, a
    # static method's does not; a class name calls __init__, and a *args
    # call overrides every default
    assert _unset_defaults(sources) == ["a.K.c(e)", "a.K.m(v)", "a.f(z)", "b.g(q)"]


def _private_imports(source: str) -> list[str]:
    """Underscore-prefixed names that a memheat module's source imports from
    another memheat module (a relative or a memheat.* import)."""
    return sorted(
        f"line {node.lineno}: {node.module or ''}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "memheat")
        for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_name_of_another(path):
    assert _private_imports(path.read_text()) == []


def test_private_import_scan_sees_relative_and_absolute_imports():
    source = ("from .coeffs import _EXP_TOL, exponent_sum\n"
              "from memheat.criteria import _Weight\nfrom . import _hidden\n"
              "from os import _exit\nfrom __future__ import annotations\n")
    assert _private_imports(source) == ["line 1: coeffs._EXP_TOL",
                                        "line 2: memheat.criteria._Weight",
                                        "line 3: ._hidden"]


def _imported_modules(source: str) -> set[str]:
    """Dotted names of the modules and module members a source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
    return names


def test_no_module_imports_scipy_integrate_optimize_or_linalg():
    # pde_core loads scipy.linalg's LAPACK extension from its file instead
    importers = sorted(
        path.stem for path in Path(memheat.__file__).parent.glob("*.py")
        if any(name.startswith(("scipy.integrate", "scipy.optimize",
                                "scipy.linalg"))
               for name in _imported_modules(path.read_text())))
    assert importers == []


def _run_python(code: str) -> str:
    src = str(Path(memheat.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# each of them takes a CLI process's set-up longer than the rest of it;
# scipy.linalg's package __init__ is what imports the numpy ones, scipy's
# own __init__ loads scipy._lib and subprocess, and numpy.polynomial is nine
# modules
_HEAVY = ("scipy", "scipy.linalg", "numpy.f2py", "numpy.testing", "numpy.ma",
          "numpy.polynomial")


def test_cli_import_leaves_heavy_modules_out():
    code = ("import json, sys, memheat.cli; print(json.dumps(sorted("
            "m for m in sys.modules if m.startswith(('scipy.integrate', "
            f"'scipy.optimize')) or m in {_HEAVY!r})))")
    assert json.loads(_run_python(code)) == []


def _modules_added(imports: str) -> list[str]:
    """The modules that `import <imports>` adds after numpy, in a fresh
    process; printed by repr so that json is not imported beforehand."""
    code = ("import sys, numpy\nbefore = set(sys.modules)\n"
            f"import {imports}\nprint(sorted(set(sys.modules) - before))")
    return ast.literal_eval(_run_python(code))


def test_cli_import_adds_only_memheat_flapack_and_its_stdlib_modules():
    # a CLI process loads numpy, one LAPACK extension and the standard
    # library modules of json, argparse and dataclasses; __future__ is what
    # every module's `from __future__ import annotations` loads
    stdlib = set(_modules_added("json, argparse, dataclasses"))
    allowed = stdlib | {"scipy.linalg._flapack", "__future__"}
    added = _modules_added("memheat.cli")
    assert "scipy.linalg._flapack" in added
    assert [m for m in added
            if m not in allowed and m.split(".")[0] != "memheat"] == []


def test_flapack_is_shared_with_scipy_linalg_in_either_import_order():
    # memheat loads the extension from its file; scipy.linalg, imported
    # before or after, must find the same module object and give the same
    # factor bytes
    check = ("import numpy as np\nfrom scipy.linalg import _flapack\n"
             "ab = np.array([[0.0, -1.0, -1.0, -1.0], [4.0, 4.0, 4.0, 4.0]])\n"
             "print(_flapack is pde_core._flapack, "
             "scipy.linalg.lapack._flapack is pde_core._flapack, "
             "scipy.linalg.cholesky_banded(ab).tobytes() "
             "== pde_core.cholesky_banded(ab).tobytes())\n")
    memheat_first = "import memheat.pde_core as pde_core\nimport scipy.linalg\n"
    scipy_first = "import scipy.linalg\nimport memheat.pde_core as pde_core\n"
    for order in (memheat_first, scipy_first):
        assert _run_python(order + check).split() == ["True"] * 3, order


@pytest.mark.parametrize("installed", [False, True],
                         ids=["no_scipy", "no_extension"])
def test_missing_extension_is_an_import_error_naming_it(monkeypatch, tmp_path,
                                                        installed):
    # find_spec gives None for a top-level package that is not installed; an
    # installed scipy whose linalg folder lacks _flapack gives no spec for it
    scipy = None
    if installed:
        scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        scipy.submodule_search_locations = [str(tmp_path)]
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack") as info:
        pde_core._load_flapack()
    assert info.type is ImportError
    assert info.value.name == "scipy.linalg._flapack"


_COMMANDS_PASS = """
import contextlib, io, json, sys, tempfile
from pathlib import Path

import memheat.cli as cli


def config(p, q, c, k, u0, t_max):
    return {"domain": {"length": 1.0, "nodes": 51},
            "exponents": {"p": p, "q": q}, "c": c, "k": k,
            "initial": {"family": "constant", "value": u0},
            "solver": {"t_max": t_max}, "output": {"dir": "out"}}


const = {"family": "constant", "amplitude": 1.0}
zero = {"family": "constant", "amplitude": 0.0}
power2 = {"family": "power", "amplitude": 1.0, "gamma": 2.0}
power3 = {"family": "power", "amplitude": 1.0, "gamma": 3.0}
power_log = {"family": "power_log", "amplitude": 1.0, "gamma": 1.0,
             "log_depth": 1}
table = {"family": "tabulated", "amplitude": 1.0,
         "table": [[0.0, 1.0], [5.0, 0.0]]}
ops = [("run", config(2.0, 2.0, const, zero, 1.0, 2.0)),
       ("classify", config(1.0, 2.0, power_log, power3, 1.0, 10.0)),
       ("classify", config(2.0, 2.0, table, power3, 1.0, 10.0)),
       ("verify", config(2.0, 2.0, power2, power3, 0.05, 2.0)),
       ("verify", config(1.0, 2.0, power2, power3, 0.05, 0.5), "--transform"),
       ("verify", config(0.5, 0.5, const, const, 1.0, 1.0)),
       ("oracle", config(2.0, 2.0, const, const, 1.0, 5.0)),
       ("sweep", config([1.0, 2.0], 2.0, [power2, const], const, 0.05, 1.0))]
before = set(sys.modules)
reports = []
with tempfile.TemporaryDirectory() as tmp:
    for i, (command, doc, *extra) in enumerate(ops):
        path = Path(tmp) / f"{i}.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main([command, "--config", str(path),
                             "--out", str(Path(tmp) / str(i))] + extra)
        reports.append([command, code, out.getvalue()])
added = sorted(m for m in set(sys.modules) - before
               if m.startswith(("numpy.", "scipy.")))
print(json.dumps({"reports": reports, "added": added}))
"""


def test_commands_import_no_numpy_or_scipy_module_in_their_pass():
    # the benchmark times set-up (importing memheat.cli) apart from the
    # pass; a module that a command imports on first use, such as numpy.ma
    # from np.unique or numpy.polynomial from its package attribute, moves
    # import time into the pass
    out = json.loads(_run_python(_COMMANDS_PASS))
    assert [code for _, code, _ in out["reports"]] == [0] * 8
    run_report = out["reports"][0][2]
    assert "status BlowUp" in run_report and "T_fit" in run_report
    assert out["added"] == []
