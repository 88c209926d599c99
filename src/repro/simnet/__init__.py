"""The simulated Internet: population, providers, timeline, world.

A :class:`World` is a deterministic function of :class:`SimConfig` —
profiles, zones, DNSSEC signatures, ECH keys, and Tranco membership all
derive from the config's seed. :mod:`~repro.simnet.snapshot` names that
identity (:func:`~repro.simnet.snapshot.world_tag` plus a fingerprint of
the code) and reuses built worlds within a process through exclusive
checkout/checkin: :meth:`World.reset` rewinds the clock and flushes the
time-stamped caches, so a reused world answers bit-for-bit like a fresh
build.
"""

from . import timeline
from .cohorts import DomainProfile, ECH_TEST_DOMAINS, SPECIAL_DOMAINS, make_profile
from .config import SimConfig
from .faults import FaultInjector, FaultSchedule, FaultSpec
from .providers import PROVIDERS, ProviderSpec
from .snapshot import checkin_world, checkout_world, world_tag
from .world import ECH_PUBLIC_NAME, World

__all__ = [
    "timeline",
    "DomainProfile",
    "ECH_TEST_DOMAINS",
    "SPECIAL_DOMAINS",
    "make_profile",
    "SimConfig",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "PROVIDERS",
    "ProviderSpec",
    "ECH_PUBLIC_NAME",
    "World",
    "checkin_world",
    "checkout_world",
    "world_tag",
]
