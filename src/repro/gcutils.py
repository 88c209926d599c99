"""Refcounted pausing of the cyclic garbage collector.

The simulation allocates large, effectively immortal object graphs (a
:class:`~repro.simnet.world.World` is hundreds of thousands of small
objects that live until process exit). CPython's generational collector
promotes them and then keeps re-walking the full heap whenever
allocation churn trips the generation-2 threshold, which dominates
world construction and snapshot loading. Pausing collection around
those phases removes the full-heap passes;
reference counting still reclaims everything acyclic immediately.

``gc.disable()``/``gc.enable()`` is process-global and pause windows may
overlap across threads (the pipeline's thread executor), so the pause is
refcounted: collection resumes only when the *outermost* pause window
exits, and only if it was enabled when the first window opened.
"""

from __future__ import annotations

import contextlib
import gc
import threading

_LOCK = threading.Lock()
_DEPTH = 0
_WAS_ENABLED = False


@contextlib.contextmanager
def paused_gc():
    """Pause cyclic collection for the ``with`` block:
    ``with paused_gc(): build_the_world()``. Collection resumes when the
    outermost window exits, if it was enabled when that window opened."""
    global _DEPTH, _WAS_ENABLED
    with _LOCK:
        if _DEPTH == 0:
            _WAS_ENABLED = gc.isenabled()
            if _WAS_ENABLED:
                gc.disable()
        _DEPTH += 1
    try:
        yield
    finally:
        with _LOCK:
            _DEPTH -= 1
            if _DEPTH == 0 and _WAS_ENABLED:
                gc.enable()
