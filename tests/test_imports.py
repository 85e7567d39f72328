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
