"""World identity and in-process world reuse.

A :class:`~repro.simnet.world.World` is a deterministic function of its
:class:`~repro.simnet.config.SimConfig` (population profiles, provider
catalogue, zone tree, DNSSEC keysets and signatures, ECH key schedule,
Tranco membership) and of the code that builds it. This module names
both halves of that identity and reuses built worlds within a process:

* :func:`code_fingerprint` hashes the ``repro`` package source, and
  :func:`world_tag` hashes every ``SimConfig`` field. The continuous
  collector's checkpoint header records both, so a checkpoint written
  by other code or for another world is never resumed.

* :func:`checkout_world` hands out an exclusively owned world: the idle
  one parked for its config tag, else a fresh build. :func:`checkin_world`
  resets the world (:meth:`~repro.simnet.world.World.reset`: clock
  rewound, time-stamped caches flushed, fault schedule cleared) and
  parks it for the next checkout, so consecutive stages and ``Study``
  sessions in one process share one build and its warm memos: the
  signature and DS memos, and the answer fast path — zone bodies reused
  by fingerprint, rendered answers scoped to the fault schedule they
  were rendered under, and decoded query templates. A stage that
  re-installs the previous stage's schedule starts with its answers
  warm. A reset world answers bit-for-bit like a fresh build
  (``tests/test_snapshot.py`` and ``tests/test_answer_cache.py`` check
  this).

The idle pool is a plain per-process dict: execution is either inline
or in pool worker processes, and each process has its own pool. Parked
worlds live until process exit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from typing import Dict, Optional

from .config import SimConfig
from .world import World

_CODE_FINGERPRINT: Optional[str] = None

# config tag → the idle (reset) world parked for it.
_IDLE: Dict[str, World] = {}


def code_fingerprint() -> str:
    """Fingerprint of the ``repro`` package source (cached per process).

    The config tag cannot see code changes that alter world generation
    without touching ``SimConfig``; this can. Returns ``""`` (matching
    everything) when the source is unreadable, e.g. a zipped install."""
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        try:
            for dirpath, dirnames, filenames in os.walk(package_root):
                dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
                for filename in sorted(filenames):
                    if not filename.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, filename)
                    digest.update(os.path.relpath(path, package_root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
            _CODE_FINGERPRINT = digest.hexdigest()[:16]
        except OSError:  # pragma: no cover - unreadable source tree
            _CODE_FINGERPRINT = ""
    return _CODE_FINGERPRINT


def world_tag(config: SimConfig) -> str:
    """Canonical tag for *config* — the config component of the campaign
    dataset cache key (every field participates, so any knob change
    keys a different world)."""
    blob = repr(dataclasses.astuple(config)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def checkout_world(config: SimConfig) -> World:
    """An exclusively owned world for *config*: the parked idle one if
    there is one (already reset), else a fresh build."""
    world = _IDLE.pop(world_tag(config), None)
    if world is None:
        world = World(config)  # construction pauses the GC itself
    return world


def checkin_world(world: World) -> None:
    """Reset *world* and park it as its config's idle world."""
    world.reset()
    _IDLE[world_tag(world.config)] = world
