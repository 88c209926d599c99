"""DNS over HTTPS (RFC 8484).

Firefox only performs HTTPS-RR lookups over DoH (paper §5.1, footnote
13), so the testbed routes its queries through this layer: queries are
encoded to DNS wire format, carried in an HTTP GET (base64url ``?dns=``)
or POST (``application/dns-message`` body) exchange, and decoded again —
exercising the full wire codec on every lookup.

Like :class:`~repro.resolver.stub.StubResolver`, the server side is a
thin frontend over :class:`~repro.resolver.recursive.RecursiveResolver`:
each decoded question goes to ``resolver.resolve``, so DoH and
plain-stub lookups answer identically.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass

from ..dnscore import rdtypes
from ..dnscore.message import Message
from ..dnscore.names import Name
from ..dnscore.wire import WireError
from .recursive import RecursiveResolver

CONTENT_TYPE = "application/dns-message"


@dataclass
class DohResponse:
    """A minimal HTTP response envelope."""

    status: int
    content_type: str
    body: bytes


class DohServer:
    """The resolver side of RFC 8484 (e.g. dns.google/dns-query)."""

    def __init__(self, resolver: RecursiveResolver, path: str = "/dns-query"):
        self.resolver = resolver
        self.path = path
        self.request_count = 0

    # -- HTTP handlers ------------------------------------------------------

    def handle_get(self, path: str) -> DohResponse:
        """``GET /dns-query?dns=<base64url(wire query)>``."""
        self.request_count += 1
        prefix = self.path + "?dns="
        if not path.startswith(prefix):
            return DohResponse(400, "text/plain", b"missing dns parameter")
        encoded = path[len(prefix):]
        padding = "=" * (-len(encoded) % 4)
        try:
            wire = base64.urlsafe_b64decode(encoded + padding)
        except Exception:
            return DohResponse(400, "text/plain", b"bad base64url")
        return self._answer(wire)

    def handle_post(self, path: str, content_type: str, body: bytes) -> DohResponse:
        self.request_count += 1
        if path != self.path:
            return DohResponse(404, "text/plain", b"not found")
        if content_type != CONTENT_TYPE:
            return DohResponse(415, "text/plain", b"unsupported media type")
        return self._answer(body)

    def _answer(self, wire: bytes) -> DohResponse:
        try:
            query = Message.from_wire(wire)
        except (WireError, ValueError):
            return DohResponse(400, "text/plain", b"malformed DNS message")
        if not query.questions:
            return DohResponse(400, "text/plain", b"empty question section")
        question = query.questions[0]
        response = self.resolver.resolve(question.name, question.rdtype)
        response.msg_id = query.msg_id
        return DohResponse(200, CONTENT_TYPE, response.to_wire())


class DohClient:
    """The stub side: encodes queries for a :class:`DohServer`.

    In the simulation the 'TLS connection' to the DoH server is direct
    object access; the *messages* still cross the full wire codec both
    ways, which is the property the tests care about.
    """

    def __init__(self, server: DohServer, url: str = "https://dns.google/dns-query",
                 method: str = "GET"):
        if method not in ("GET", "POST"):
            raise ValueError("method must be GET or POST")
        self.server = server
        self.url = url
        self.method = method
        self._msg_id = 0

    def query(self, name, rdtype: int, want_dnssec: bool = True) -> Message:
        if not isinstance(name, Name):
            name = Name.from_text(str(name))
        self._msg_id = (self._msg_id + 1) & 0xFFFF
        query = Message.make_query(name, rdtype, self._msg_id, want_dnssec=want_dnssec)
        wire = query.to_wire()
        if self.method == "GET":
            encoded = base64.urlsafe_b64encode(wire).decode().rstrip("=")
            http = self.server.handle_get(f"{self.server.path}?dns={encoded}")
        else:
            http = self.server.handle_post(self.server.path, CONTENT_TYPE, wire)
        if http.status != 200:
            failure = Message(self._msg_id)
            failure.is_response = True
            failure.rcode = rdtypes.SERVFAIL
            return failure
        return Message.from_wire(http.body)
