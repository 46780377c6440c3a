"""One thread pool for numpy work that releases the GIL.

The pool runs one thread per CPU this process may run on
(``os.sched_getaffinity``).  Two callers use it, each only where a measured
property of its input says threads help, and otherwise run the same code
inline on the calling thread:

- ``bagdata.synth_generate`` draws a task's bags through ``ordered_map``
  when its mean bag holds at least 2^14 values;
- ``training.adamw_step`` splits a stack of at least two 65,536-value blocks
  into one contiguous share per worker through ``run``.

Each task runs in a copy of its submitter's ``contextvars`` context, so
numpy's error state (``np.errstate``) holds inside it as on the submitting
thread.  A pool is created per process: a child forked after the pool ran
creates its own, since the parent's threads do not exist in it.  Neither
caller's bytes depend on the worker count.
"""

from __future__ import annotations

import contextvars
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from itertools import islice

_pool: tuple[int, ThreadPoolExecutor] | None = None  # (owner pid, pool)


def workers() -> int:
    """The pool's thread count: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _submit(fn, *args):
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        _pool = (os.getpid(), ThreadPoolExecutor(workers(), thread_name_prefix="miltransfer"))
    return _pool[1].submit(contextvars.copy_context().run, fn, *args)


def run(fn, items, *args) -> None:
    """Call ``fn(item, *args)`` for each of ``items``: the first on this
    thread, the rest on the pool.  Returns once every call has finished;
    the first call, in order, that raised has its error re-raised."""
    first, *rest = items
    if not rest:
        return fn(first, *args)
    futures = [_submit(fn, item, *args) for item in rest]
    try:
        fn(first, *args)
    finally:
        wait(futures)
    for f in futures:
        f.result()


def ordered_map(fn, items, pooled: bool):
    """Yield ``fn(item)`` for each of ``items``, in order.

    With ``pooled`` and more than one worker, the calls run on the pool, at
    most 2 x workers of them submitted and not yet yielded; otherwise each
    runs inline when its result is asked for.  Closing the generator
    cancels the calls not yet started and waits for the running ones.
    """
    n = workers()
    if not pooled or n < 2:
        yield from map(fn, items)
        return
    items, pending = iter(items), deque()
    try:
        while True:
            pending.extend(_submit(fn, item) for item in islice(items, 2 * n - len(pending)))
            if not pending:
                return
            yield pending.popleft().result()
    finally:
        for f in pending:
            f.cancel()
        wait(pending)

