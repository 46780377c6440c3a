"""Atomic file replacement for results, reports, the zoo and checkpoints."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Write through a temp file beside ``path``, then ``os.replace`` it in.

    Readers see the old file or the complete new one, never a partial
    write.  If the block raises, the temp file is removed and ``path`` is
    left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
