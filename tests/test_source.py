import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
SOURCES = sorted((SRC / "atrellis").glob("*.py"))


def unused_imports(source: str) -> list:
    """The names that a module's top-level imports bind and that no
    expression of the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    assert unused_imports(
        "from __future__ import annotations\n"
        "import logging\nimport os.path\nimport json as j\n"
        "from math import inf, nan as n\n"
        "def f(x: inf) -> None:\n    return os.path.join(x)\n") == \
        ["logging", "j", "n"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_no_module_loads_scipy():
    """The pipeline runs on numpy alone; scipy is only the tests' oracle.
    A fresh interpreter imports the CLI and every module of the package."""
    code = ("import importlib, pkgutil, sys\n"
            "import atrellis.cli\n"
            "for module in pkgutil.iter_modules(atrellis.__path__):\n"
            "    importlib.import_module('atrellis.' + module.name)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
