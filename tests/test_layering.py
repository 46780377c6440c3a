"""Package layering: a module reads another package module only through
its public names, only ``fileio`` reads or writes files, only ``models``
spells a parameter key, and the package imports nothing beyond numpy and
the standard library."""

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


def open_mode(call: ast.Call) -> ast.expr | None:
    """The mode of an ``open(...)`` or ``.open(...)`` call, a literal ``r``
    when it is left out; None for any other call."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        args = call.args[1:2]  # open(file, mode)
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        args = call.args[:1]   # path.open(mode)
    else:
        return None
    return next((kw.value for kw in call.keywords if kw.arg == "mode"),
                args[0] if args else ast.Constant("r"))


def literal(mode: ast.expr) -> str | None:
    """The string of a literal ``mode``, else None."""
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


# (module, function) calls that read a file's bytes, or map them into memory
READ_CALLS = {("mmap", "mmap"), ("np", "memmap"), ("np", "fromfile"), ("np", "load")}


def file_reads(source: str) -> list[str]:
    """Calls in ``source`` that read a file: ``.read_bytes()``, ``.read_text()``,
    ``mmap.mmap(...)``, ``np.memmap(...)``, ``np.fromfile(...)``,
    ``np.load(...)``, and ``open(...)`` or ``.open(...)`` in a read mode: the
    default mode, a literal mode holding ``r`` or ``+``, or a mode that is not
    a literal."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func, mode = node.func, open_mode(node)
        if isinstance(func, ast.Attribute) and func.attr in ("read_bytes", "read_text"):
            hits.append(f"{node.lineno}: .{func.attr}()")
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and (func.value.id, func.attr) in READ_CALLS):
            hits.append(f"{node.lineno}: {func.value.id}.{func.attr}()")
        elif mode is not None and (literal(mode) is None or set(literal(mode)) & set("r+")):
            hits.append(f"{node.lineno}: open")
    return hits


def test_guard_sees_file_reads():
    source = ("data = path.read_bytes()\ntext = Path(p).read_text()\nopen(p)\n"
              "open(p, 'rb')\nopen(p, mode='r+')\npath.open()\nopen(p, mode)\n"
              "mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)\nnp.memmap(p, '<f4')\n"
              "np.fromfile(p, '<f4')\nnp.load(p)\n"
              "open(p, 'w')\nopen(p, 'a', encoding='utf-8')\npath.open('wb')\n"
              "fh.read()\njson.loads(text)\nnp.frombuffer(mapped, '<f4')\njson.load(fh)\n")
    assert file_reads(source) == ["1: .read_bytes()", "2: .read_text()", "3: open",
                                  "4: open", "5: open", "6: open", "7: open",
                                  "8: mmap.mmap()", "9: np.memmap()", "10: np.fromfile()",
                                  "11: np.load()"]


def test_only_fileio_reads_files():
    hits = {path.name: file_reads(path.read_text())
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "fileio.py"}
    assert {name: h for name, h in hits.items() if h} == {}


def file_writes(source: str) -> list[str]:
    """Calls in ``source`` that write a file or directory: ``open(...)`` or
    ``.open(...)`` in a literal mode holding ``w``, ``a``, ``x`` or ``+``,
    ``.mkdir()``, ``os.makedirs()``, ``os.replace()``, ``.write_text()``,
    ``.write_bytes()`` and ``.unlink()``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func, mode = node.func, open_mode(node)
        if isinstance(func, ast.Attribute) and (
                func.attr in ("mkdir", "write_text", "write_bytes", "unlink")
                or (func.attr in ("makedirs", "replace") and isinstance(func.value, ast.Name)
                    and func.value.id == "os")):
            hits.append(f"{node.lineno}: .{func.attr}()")
        elif mode is not None and set(literal(mode) or "") & set("wax+"):
            hits.append(f"{node.lineno}: open")
    return hits


def test_guard_sees_file_writes():
    source = ("open(p, 'w')\npath.open('ab')\nopen(p, mode='x')\nopen(p, 'r+b')\n"
              "d.mkdir(parents=True)\nos.makedirs(d)\nos.replace(a, b)\np.write_text(s)\n"
              "p.write_bytes(b)\ntmp.unlink(missing_ok=True)\nopen(p)\nopen(p, 'rb')\n"
              "open(p, mode)\ns.replace('a', 'b')\nreplace(cfg, seed=1)\nfh.write(s)\n")
    assert file_writes(source) == ["1: open", "2: open", "3: open", "4: open",
                                   "5: .mkdir()", "6: .makedirs()", "7: .replace()",
                                   "8: .write_text()", "9: .write_bytes()", "10: .unlink()"]


def test_only_fileio_writes_files():
    hits = {path.name: file_writes(path.read_text())
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "fileio.py"}
    assert {name: h for name, h in hits.items() if h} == {}


def parameter_keys(source: str) -> list[str]:
    """String literals in ``source``, f-string parts included, that end in
    ``.weight`` or ``.bias``: parameter keys spelled out."""
    return [f"{node.lineno}: {node.value}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.endswith((".weight", ".bias"))]


def test_guard_sees_parameter_keys():
    source = ("grads['attn.w.bias']\nname = f'fc.{i}.weight'\ncfg.weight_decay\n"
              "layer.weight\nhead = 'classifier.'\nparams[name + '.weight']\n")
    assert parameter_keys(source) == ["1: attn.w.bias", "2: .weight", "6: .weight"]


def test_only_models_spells_parameter_keys():
    hits = {path.name: parameter_keys(path.read_text())
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "models.py"}
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
