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


def relative_imports(tree) -> list:
    """(module, name) of each ``from .module import name`` of a module."""
    return [(node.module, a.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names]


def unread_names(modules: dict, private: bool = True) -> list:
    """``module.name`` of each private (``_``-prefixed, not dunder) name,
    or with ``private`` false each public name, that a top-level
    definition or assignment of a package module binds, and that neither
    its own module reads nor another imports from it (``from .module
    import name``); an attribute read of the name anywhere counts as a
    read.  ``modules`` maps each module's name to its source."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    read, attributes = set(), set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
        read.update(relative_imports(tree))
    unread = []
    for module, tree in trees.items():
        bound = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.append(node.name)
            elif isinstance(node, ast.Assign):
                bound += [t.id for t in node.targets
                          if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                bound.append(node.target.id)
        unread += [f"{module}.{name}" for name in bound
                   if name.startswith("_") == private
                   and not name.startswith("__")
                   and (module, name) not in read
                   and name not in attributes]
    return unread


def test_unread_private_names_are_found():
    modules = {
        "a": "_A = 1\n_B: int = 2\n_E = 3\n__all__ = []\n"
             "def _f():\n    return _A\nclass _C:\n    pass\n"
             "P = 1\ndef q():\n    return P\ndef g():\n    pass\n",
        "b": "from .a import _E\nimport m\n_A = m._C + _E\n"
             "from .a import q\nV = m.g\n"}
    assert unread_names(modules) == ["a._B", "a._f", "b._A"]
    assert unread_names(modules, private=False) == ["b.V"]


def test_every_private_name_is_read():
    """A private helper that nothing in the package reads is dead code."""
    assert unread_names({p.stem: p.read_text() for p in SOURCES}) == []


# The public names that no module of the package reads, each kept for a
# reader outside it.  A name that leaves its last reader must leave the
# package too, or join this list with its reason.
UNREAD_PUBLIC_NAMES = {
    # bench/stage.py wraps these by name to time their layers
    "anomaly_ensemble.detect", "feature_pipeline.featurize",
    "neural_autoencoder.fit", "traffic_model.flows_of_trace",
    # the tests check the autoencoder's gradients with it
    "neural_autoencoder.grad_check",
    # the acceptance criteria score clusterings and label flows with these
    "cluster_metrics.dunn_index", "cluster_metrics.kmeans",
    "cluster_metrics.purity", "synth_traffic.flow_activity_labels",
}


def test_every_unread_public_name_is_kept_for_a_reason():
    """A public function that no pipeline stage calls is dead code, unless
    the bench or the tests read it."""
    unread = unread_names({p.stem: p.read_text() for p in SOURCES},
                          private=False)
    assert sorted(unread) == sorted(UNREAD_PUBLIC_NAMES)


# Each private name that one module of the package imports from another
# (``from .module import _name``), by importer and module, with its
# reason: a rule that two modules must agree on.  A new one fails here
# until it is listed, so that a private decision does not leak unseen.
CROSS_MODULE_PRIVATE_NAMES = {
    # training feeds a key's flows in the order of its member flows
    ("anomaly_ensemble", "clustering_tree"): {"_flow_sort_key"},
    # a verdict line's ports, strings and counts are read and written in
    # the forms of a trace line
    ("anomaly_ensemble", "traffic_model"): {"_PORT", "_STRING", "_UINT",
                                            "_json_str"},
    # an attack target's port and a key's ports are trace ports
    ("cli", "traffic_model"): {"_PORT"},
    ("clustering_tree", "traffic_model"): {"_PORT"},
}


def cross_module_private_names(modules: dict) -> dict:
    """(importer, module) -> the private names that ``importer`` imports
    from ``module`` of the package.  ``modules`` maps each module's name
    to its source."""
    found: dict = {}
    for importer, source in modules.items():
        for module, name in relative_imports(ast.parse(source)):
            if name.startswith("_"):
                found.setdefault((importer, module), set()).add(name)
    return found


def test_cross_module_private_names_are_found():
    modules = {"a": "from .b import _x, y\nfrom . import c\n"
                    "def f():\n    from .c import _z\n",
               "b": "from .a import f\n"}
    assert cross_module_private_names(modules) == {
        ("a", "b"): {"_x"}, ("a", "c"): {"_z"}}


def test_every_cross_module_private_name_is_pinned():
    assert cross_module_private_names(
        {p.stem: p.read_text() for p in SOURCES}) == \
        CROSS_MODULE_PRIVATE_NAMES


# Each top-level function of the package that reads a name that finds a
# line of a file by reading the file again, with its reason.  A reader
# names the lines of the errors it finds as it reads; these are the
# checks made after a read that must still name a line.  A new one fails
# here until it is listed, so that an error found after the read does not
# lose its line unseen on a pipe, which cannot be read again.
REREADERS = {
    "line_of_object": {("cli", "_where")},
    "_where": {
        # profile keys its listed packets only once it has inferred the
        # device IP; it goes once profile keys as it reads
        ("cli", "cmd_profile"),
    },
}


def readers(modules: dict, name: str) -> set:
    """(module, function) of each top-level function of the package that
    reads ``name``: calls it, or takes it as a value.  ``modules`` maps
    each module's name to its source."""
    found = set()
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and any(
                    isinstance(n, ast.Name) and n.id == name
                    and isinstance(n.ctx, ast.Load) for n in ast.walk(node)):
                found.add((module, node.name))
    return found


def test_readers_are_found():
    modules = {"a": "def f():\n    return g(1)\n"
                    "def g(x):\n    return x\n"
                    "def h():\n    return list(map(g, []))\n"
                    "class C:\n    def m(self):\n        g = 1\n",
               "b": "from .a import g\ndef k():\n    return g\n"}
    assert readers(modules, "g") == {("a", "f"), ("a", "h"), ("b", "k")}


@pytest.mark.parametrize("name", sorted(REREADERS))
def test_every_reread_is_listed(name):
    assert readers({p.stem: p.read_text() for p in SOURCES}, name) == \
        REREADERS[name]


WEIGHT_NAMES = {"w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4"}


def weight_name_literals(source: str) -> list:
    """The string constants of a module that name a weight of the
    autoencoder."""
    return [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and node.value in WEIGHT_NAMES]


def test_weight_name_literals_are_found():
    assert weight_name_literals(
        'W = {"w1": 1}\ndef f(p):\n    return p["b4"], "w5", w2\n') == \
        ["w1", "b4"]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "neural_autoencoder.py"],
    ids=lambda p: p.name)
def test_only_the_autoencoder_names_its_weights(path):
    """A model is one weight row; its layout is neural_autoencoder's
    decision alone, so no other module names a weight."""
    assert weight_name_literals(path.read_text()) == []


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
