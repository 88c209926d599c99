"""Resolution substrate: network fabric, authoritative and recursive
servers, stub resolver, simulated clock.

:class:`~repro.resolver.recursive.RecursiveResolver` performs iterative
resolution (referrals, CNAME chasing, caching, validation) with plain
method calls, sending each upstream query through
:meth:`~repro.resolver.network.Network.send_dns_query` as it needs it.
The ``StubResolver`` and ``DohServer`` frontends ask it one question at
a time, like the paper's scanner.
"""

from .authoritative import AuthoritativeServer
from .clock import SimClock
from .doh import DohClient, DohResponse, DohServer
from .network import (
    DNS_PORT,
    HostUnreachable,
    Network,
    NetworkError,
    PortClosed,
    QueryTimeout,
)
from .recursive import RecursiveResolver, ResolutionError
from .stub import CLOUDFLARE_RESOLVER_IP, GOOGLE_RESOLVER_IP, StubResolver

__all__ = [
    "AuthoritativeServer",
    "SimClock",
    "DohClient",
    "DohResponse",
    "DohServer",
    "DNS_PORT",
    "HostUnreachable",
    "Network",
    "NetworkError",
    "PortClosed",
    "QueryTimeout",
    "RecursiveResolver",
    "ResolutionError",
    "CLOUDFLARE_RESOLVER_IP",
    "GOOGLE_RESOLVER_IP",
    "StubResolver",
]
