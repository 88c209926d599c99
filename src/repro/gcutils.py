"""Pausing the cyclic garbage collector.

The simulation allocates large, effectively immortal object graphs (a
:class:`~repro.simnet.world.World` is hundreds of thousands of small
objects that live until process exit). CPython's generational collector
promotes them and then keeps re-walking the full heap whenever
allocation churn trips the generation-2 threshold, which dominates
world construction and campaign timings. Pausing collection removes the
full-heap passes; reference counting still reclaims everything acyclic
immediately.

:class:`~repro.study.Study` runs every campaign inside one pause window,
and world construction and dataset (de)serialisation open their own.
Windows nest: each one restores the state it found, so an inner exit
leaves collection off while an outer window is still open. Pool worker
processes forked inside a window inherit the paused collector.
"""

from __future__ import annotations

import contextlib
import gc


@contextlib.contextmanager
def paused_gc():
    """Pause cyclic collection for the ``with`` block:
    ``with paused_gc(): build_the_world()``. On exit the collector is
    enabled again only if it was enabled when the block was entered."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
