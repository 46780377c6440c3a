"""Atomic file replacement for every file the package writes."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", newline: str | None = None):
    """Write through a temp file beside ``path``, then ``os.replace`` it in.

    Readers see the old file or the complete new one, never a partial
    write.  If the block raises, the temp file is removed and ``path`` is
    left as it was.  ``newline`` is passed to ``open`` in text mode
    (``""`` for the csv module).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    binary = "b" in mode
    try:
        with open(tmp, mode, encoding=None if binary else "utf-8",
                  newline=None if binary else newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
