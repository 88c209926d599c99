"""Deterministic IP address allocation for the simulated Internet.

Each provider owns recognizable address blocks (used by the WHOIS
registry for attribution, §4.2.2) and Cloudflare-proxied zones resolve to
anycast addresses, mirroring the real deployment the paper measures.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict

from .determinism import integer

# Anycast blocks for proxied zones.
CLOUDFLARE_V4_PREFIXES = ("104.16", "104.17", "104.18")
CLOUDFLARE_V6_PREFIX = "2606:4700"
CFNS_V4_PREFIX = "162.159"  # Cloudflare China network (cf-ns.*)

# Root / TLD infrastructure.
ROOT_SERVER_IP = "198.41.0.4"
TLD_SERVER_IP = "192.5.6.30"
GOOGLE_RESOLVER_IP = "8.8.8.8"
CLOUDFLARE_RESOLVER_IP = "1.1.1.1"


# Allocated addresses, keyed (allocator, seed, domain, index); filled
# lazily from the per-day zone-build hot path, cleared when it overflows.
_ADDRESS_CACHE: Dict[tuple, str] = {}
_ADDRESS_CACHE_LIMIT = 200_000


def _memoized(allocate: Callable[[str, str, int], str]) -> Callable[[str, str, int], str]:
    """Memoize a pure allocator of (seed, domain, index)."""

    @functools.wraps(allocate)
    def cached(seed: str, domain: str, index: int = 0) -> str:
        key = (allocate, seed, domain, index)
        address = _ADDRESS_CACHE.get(key)
        if address is None:
            address = allocate(seed, domain, index)
            if len(_ADDRESS_CACHE) >= _ADDRESS_CACHE_LIMIT:
                _ADDRESS_CACHE.clear()
            _ADDRESS_CACHE[key] = address
        return address

    return cached


def _octets(seed: str, *parts: object) -> tuple:
    a = integer(seed, "octet-a", *parts, bound=254) + 1
    b = integer(seed, "octet-b", *parts, bound=254) + 1
    return a, b


@_memoized
def cloudflare_anycast_v4(seed: str, domain: str, index: int = 0) -> str:
    prefix = CLOUDFLARE_V4_PREFIXES[index % len(CLOUDFLARE_V4_PREFIXES)]
    a, b = _octets(seed, "cf-anycast", domain, index)
    return f"{prefix}.{a}.{b}"


@_memoized
def cloudflare_anycast_v6(seed: str, domain: str, index: int = 0) -> str:
    a, b = _octets(seed, "cf-anycast6", domain, index)
    return f"{CLOUDFLARE_V6_PREFIX}:3{index:03x}::{a:x}{b:02x}"


@_memoized
def cfns_anycast_v4(seed: str, domain: str, index: int = 0) -> str:
    a, b = _octets(seed, "cfns-anycast", domain, index)
    return f"{CFNS_V4_PREFIX}.{a}.{b}"


@_memoized
def origin_v4(seed: str, domain: str, generation: int = 0) -> str:
    """The 'real' origin server address of a domain (non-proxied).

    Like every allocator here it is memoized, so *generation* is passed
    positionally."""
    a, b = _octets(seed, "origin", domain, generation)
    c = integer(seed, "origin-c", domain, generation, bound=254) + 1
    return f"203.{a % 254 + 1}.{b}.{c}"


@_memoized
def origin_v6(seed: str, domain: str, generation: int = 0) -> str:
    a, b = _octets(seed, "origin6", domain, generation)
    return f"2001:db8:{a:x}::{b:x}"
