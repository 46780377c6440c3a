"""Package layering: a module reads another package module only through
its public names."""

import ast
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
