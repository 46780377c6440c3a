"""Every input file is read or mapped, and every output file written, here.

The readers turn any ``OSError`` or decode error into the caller's
``MilError`` class, naming the file: ``ConfigError`` for the config, a
``DataError`` class for data.  One typed parser (``typed``, ``section``)
checks every JSON object read; a data reader re-raises its ``ConfigError``
as its own class through ``reraise_as``.  A writer turns any ``OSError``
into a ``ConfigError`` naming the file or directory it could not write.
"""

from __future__ import annotations

import fcntl
import json
import math
import mmap
import os
from contextlib import contextmanager
from dataclasses import MISSING, fields
from functools import cache
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError, MilError


@contextmanager
def _writing(path: Path):
    """An ``OSError`` in the block becomes a ``ConfigError`` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write ({exc.strerror or exc})") from exc


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", newline: str | None = None):
    """Write through a temp file beside ``path``, then ``os.replace`` it in.

    Readers see the old file or the complete new one, never a partial
    write.  If the block raises, the temp file is removed and ``path`` is
    left as it was; an ``OSError`` from the block, the ``open`` or the
    replace becomes a ``ConfigError`` naming ``path``.  ``newline`` is
    passed to ``open`` in text mode (``""`` for the csv module).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    binary = "b" in mode
    with _writing(path):
        try:
            with open(tmp, mode, encoding=None if binary else "utf-8",
                      newline=None if binary else newline) as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def append_text(path: Path, text: str) -> None:
    """Append ``text`` to the file at ``path``, else a ``ConfigError`` naming it."""
    with _writing(path), open(path, "a", encoding="utf-8") as fh:
        fh.write(text)


@contextmanager
def exclusive_lock(path: Path):
    """Hold an exclusive advisory lock on the file at ``path`` for the block."""
    with _writing(path):
        lk = open(path, "w")
    with lk:  # closing the file releases the lock
        fcntl.flock(lk, fcntl.LOCK_EX)
        yield


def make_dirs(where: str, *dirs: Path) -> None:
    """Create ``dirs``, else a ``ConfigError`` naming ``where`` they come from."""
    for d in dirs:
        try:
            d.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{where}: cannot create directory {d} "
                              f"({exc.strerror or exc})") from exc


@contextmanager
def _reading(path: str | Path, what: str, error: type[MilError]):
    """An ``OSError`` in the block, or a NUL byte in ``path``, becomes an
    ``error`` naming the ``what`` file."""
    try:
        yield
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", None) or exc
        raise error(f"{what} {path}: cannot read ({reason})") from exc


@contextmanager
def open_input(path: str | Path, what: str, error: type[MilError]):
    """The ``what`` file at ``path`` open for binary reads, with its length in
    bytes; an ``OSError`` in the block becomes an ``error`` naming the file."""
    with _reading(path, what, error), open(path, "rb") as fh:
        yield fh, os.fstat(fh.fileno()).st_size


def map_input(path: str | Path, what: str, error: type[MilError], size: int) -> mmap.mmap:
    """The ``what`` file at ``path`` mapped read-only, if it is still ``size``
    bytes long, else an ``error`` saying it changed; an ``OSError`` becomes an
    ``error`` naming the file.  The map holds its own descriptor until it is
    closed or collected."""
    with _reading(path, what, error), open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size != size:
            raise error(f"{path}: {what} changed while it was read")
        return mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)


def read_input(path: str | Path, what: str, error: type[MilError],
               encoding: str | None = None) -> bytes | str:
    """The bytes of the ``what`` file at ``path``, decoded if an ``encoding``
    is given, else an ``error``."""
    with _reading(path, what, error):
        data = Path(path).read_bytes()
    try:
        return data if encoding is None else data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path}: not {encoding} ({exc})") from exc


def parse_json(data: bytes, where: str, error: type[MilError]):
    """The JSON value in the UTF-8 ``data`` from ``where``, else an ``error``."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise error(f"{where}: not valid JSON ({exc})") from exc


def read_json(path: str | Path, what: str, error: type[MilError]):
    """The JSON value in the ``what`` file at ``path``, else an ``error``."""
    return parse_json(read_input(path, what, error), f"{what} {path}", error)


# JSON type and its description per annotated field type
_JSON = {int: (int, "an integer"), float: ((int, float), "a finite number"),
         str: (str, "a string"), Path: (str, "a path string with no NUL byte"),
         dict: (dict, "an object")}
_hints = cache(get_type_hints)  # evaluating string annotations is most of a parse


def _key(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def typed(value, hint, where: str):
    """The JSON ``value`` at key path ``where`` as the annotated type ``hint``
    (lists become tuples, path strings ``Path``s), else a ``ConfigError``."""
    if get_origin(hint) is UnionType:  # T | None
        return None if value is None else typed(value, get_args(hint)[0], where)
    if get_origin(hint) is tuple:
        args = get_args(hint)
        many = args[-1] is Ellipsis
        if isinstance(value, list) and (many or len(value) == len(args)):
            return tuple(typed(v, args[0 if many else i], f"{where}[{i}]")
                         for i, v in enumerate(value))
        kind = "a list" if many else f"a list of {len(args)}"
    elif (isinstance(value, _JSON[hint][0]) and not isinstance(value, bool)
          and (hint is not float or isinstance(value, int) or math.isfinite(value))
          and (hint is not Path or "\0" not in value)):
        return Path(value) if hint is Path else value
    else:
        kind = _JSON[hint][1]
    raise ConfigError(f"{where} must be {kind}, got {value!r}")


def typed_fields(cls, raw, where: str, keys) -> dict:
    """``raw`` at ``where``, typed field by field as ``cls``; only ``keys`` may occur."""
    unknown = sorted(set(typed(raw, dict, where)) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key {_key(where, unknown[0])}")
    hints = _hints(cls)
    return {key: typed(value, hints[key], _key(where, key)) for key, value in raw.items()}


def section(cls, raw, where: str, keys=None, **fixed):
    """``cls`` from the JSON object ``raw`` at ``where`` (holding ``keys``, by
    default the fields not in the typed ``fixed``); ``cls`` checks its ranges."""
    keys = [f.name for f in fields(cls) if f.name not in fixed] if keys is None else keys
    kwargs = {**typed_fields(cls, raw, where, keys), **fixed}
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{_key(where, f.name)} is required")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{where + ': ' if where else ''}{exc}") from exc


@contextmanager
def reraise_as(error: type[MilError], where: str, caught: type[MilError] = ConfigError):
    """A ``caught`` error raised in the block becomes an ``error`` at ``where``."""
    try:
        yield
    except caught as exc:
        raise error(f"{where}: {exc}") from exc
