"""Package layering: a module reads another package module only through
its public names, and the package imports nothing beyond numpy and the
standard library."""

import ast
import sys
from pathlib import Path

import miltransfer

PACKAGE = Path(miltransfer.__file__).parent


def private_reads(source: str) -> list[str]:
    """``module._name`` reads and ``from .module import _name`` imports of
    package modules in ``source``."""
    tree = ast.parse(source)
    modules, hits = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "miltransfer"):
            for alias in node.names:
                if node.module is None or node.module == "miltransfer":
                    modules.add(alias.asname or alias.name)
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    hits.append(f"{node.lineno}: import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            hits.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return hits


def test_guard_sees_private_reads():
    source = ("from . import models\nfrom .training import _epoch_seed\n"
              "out = models._forward_cached(p, c, x, None)\nstack._finite\n")
    assert private_reads(source) == ["2: import _epoch_seed", "3: models._forward_cached"]


def test_no_module_reads_another_modules_private_names():
    hits = {path.name: private_reads(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: h for name, h in hits.items() if h} == {}


ALLOWED_TOP_LEVEL = {"numpy", "__future__"} | set(sys.stdlib_module_names)


def foreign_imports(source: str) -> list[str]:
    """Absolute imports in ``source`` of anything but numpy and the standard
    library; relative imports stay inside the package."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        hits += [f"{node.lineno}: {name}" for name in names
                 if name.split(".")[0] not in ALLOWED_TOP_LEVEL]
    return hits


def test_guard_sees_foreign_imports():
    source = ("import numpy as np\nimport json, scipy.linalg\nfrom . import models\n"
              "from scipy.linalg import eigh\nfrom numpy.linalg import svd\n"
              "def f():\n    import pandas\n")
    assert foreign_imports(source) == ["2: scipy.linalg", "4: scipy.linalg", "7: pandas"]


def test_package_imports_only_numpy_and_the_standard_library():
    hits = {path.name: foreign_imports(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: h for name, h in hits.items() if h} == {}
