"""The simulated network fabric.

Routes DNS queries to authoritative servers by IP and TCP/TLS connections
to web servers by (IP, port). ``wire_mode`` forces every DNS message
through the full RFC 1035 wire codec, which is what the fidelity tests
use; the fast path hands the message object across directly (both paths
exercise identical server logic).

Reachability is modelled per-IP (and optionally per-port), which the
connectivity experiment of §4.3.5 uses to create domains whose IP hints
and A records differ in reachability, and which the chaos scenario
engine (:mod:`repro.simnet.faults`) uses for scheduled outages of a
single service (e.g. port 53 down, port 443 up).

The fabric also exposes a single injection point, :attr:`Network.dns_fault_hook`:
a callable consulted on every routed DNS query that may pass the query
through (``None``), synthesize a response (lame delegation), or raise a
transport error (packet loss / timeout). The hook sees the delivery
``attempt`` number so drop decisions are pure functions of
(seed, query, attempt): a run and its sharded or resumed counterparts
lose exactly the same deliveries.

**Wire-byte fast path (tier 3).** In ``wire_mode``, when the world's
:class:`~repro.resolver.authoritative.AnswerCache` is enabled, the
server→client leg reuses what the tier-1 cache entry has already been
through the codec once: the entry pins the decoded client-side message
for one header signature, so a repeated answer skips
the entire ``to_wire``/``from_wire`` pair (the resolver treats upstream
responses as immutable, which is what makes the shared decoded template
safe). The fast path is strictly behind ``dns_query_count`` accounting
and the fault hook, so counters and faulted deliveries are identical
with the cache on or off. The client→server leg round-trips each
distinct question once and then reuses its decoded query template
(:meth:`~repro.resolver.authoritative.AnswerCache.query_roundtrip`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol, Set, Tuple

from ..dnscore.message import Message

DNS_PORT = 53


class DnsHandler(Protocol):
    def handle_query(self, query: Message) -> Message: ...


class TcpHandler(Protocol):
    def handle_connection(self, client_hello: object) -> object: ...


class NetworkError(Exception):
    """Transport-level failure (unreachable host, refused port)."""


class HostUnreachable(NetworkError):
    pass


class PortClosed(NetworkError):
    pass


class QueryTimeout(NetworkError):
    """A DNS query was sent but no reply arrived in time (dropped
    request or dropped response — the client cannot distinguish)."""


# Signature: hook(ip, query, attempt) -> None | Message | NetworkError.
# None passes the query through to the registered server; a Message is
# returned to the client as the (spoofed/synthesized) reply; a
# NetworkError instance is raised as the delivery outcome.
FaultHook = Callable[[str, Message, int], Optional[object]]


class Network:
    """Registry + router for the simulated Internet."""

    def __init__(self, wire_mode: bool = False):
        self.wire_mode = wire_mode
        self._dns_servers: Dict[str, DnsHandler] = {}
        self._tcp_servers: Dict[Tuple[str, int], TcpHandler] = {}
        self._unreachable_ips: Set[str] = set()
        self._unreachable_ports: Set[Tuple[str, int]] = set()
        self.dns_fault_hook: Optional[FaultHook] = None
        # Shared with the world's AuthoritativeServers; installed by
        # World._build. None for standalone Network instances in tests.
        self.answer_cache = None
        self.dns_query_count = 0
        self.tcp_connect_count = 0

    # -- registration ------------------------------------------------------

    def register_dns(self, ip: str, server: DnsHandler) -> None:
        self._dns_servers[ip] = server

    def register_tcp(self, ip: str, port: int, server: TcpHandler) -> None:
        self._tcp_servers[(ip, port)] = server

    def unregister_tcp(self, ip: str, port: int) -> None:
        self._tcp_servers.pop((ip, port), None)

    def set_unreachable(
        self, ip: str, unreachable: bool = True, *, port: Optional[int] = None
    ) -> None:
        """Mark ``ip`` (or just ``(ip, port)`` when ``port`` is given)
        unreachable. Per-IP and per-port outages are independent sets:
        clearing one never clears the other."""
        if port is None:
            if unreachable:
                self._unreachable_ips.add(ip)
            else:
                self._unreachable_ips.discard(ip)
        else:
            if unreachable:
                self._unreachable_ports.add((ip, port))
            else:
                self._unreachable_ports.discard((ip, port))

    def is_reachable(self, ip: str, port: Optional[int] = None) -> bool:
        if ip in self._unreachable_ips:
            return False
        if port is not None and (ip, port) in self._unreachable_ports:
            return False
        return True

    def dns_server_at(self, ip: str) -> Optional[DnsHandler]:
        return self._dns_servers.get(ip)

    # -- transport ------------------------------------------------------------

    def send_dns_query(self, ip: str, query: Message, attempt: int = 0) -> Message:
        if not self.is_reachable(ip, DNS_PORT):
            raise HostUnreachable(f"no route to {ip}")
        server = self._dns_servers.get(ip)
        if server is None:
            raise HostUnreachable(f"no DNS server listening at {ip}")
        self.dns_query_count += 1
        if self.dns_fault_hook is not None:
            outcome = self.dns_fault_hook(ip, query, attempt)
            if outcome is not None:
                if isinstance(outcome, Message):
                    return outcome
                raise outcome
        if self.wire_mode:
            cache = self.answer_cache
            if cache is not None and cache.enabled:
                query = cache.query_roundtrip(query)
                response = server.handle_query(query)
                entry = getattr(response, "answer_entry", None)
                if entry is not None:
                    return cache.wire_roundtrip(response, entry)
                return Message.from_wire(response.to_wire())
            query = Message.from_wire(query.to_wire())
            response = server.handle_query(query)
            return Message.from_wire(response.to_wire())
        return server.handle_query(query)

    def connect_tcp(self, ip: str, port: int) -> TcpHandler:
        if not self.is_reachable(ip, port):
            raise HostUnreachable(f"no route to {ip}")
        server = self._tcp_servers.get((ip, port))
        if server is None:
            raise PortClosed(f"connection refused at {ip}:{port}")
        self.tcp_connect_count += 1
        return server
