"""Stub resolver and public-resolver personas.

The scanner (like the paper's) talks to two public resolvers — Google
(8.8.8.8) as primary, Cloudflare (1.1.1.1) as backup — through a stub
that fails over when the primary SERVFAILs or is unreachable.

:meth:`StubResolver.query` sends one question at a time through
:meth:`~repro.resolver.recursive.RecursiveResolver.resolve`, and
:class:`ResolverFrontend` puts a resolver behind its anycast address on
the simulated network.
"""

from __future__ import annotations

from typing import List, Optional

from ..dnscore import rdtypes
from ..dnscore.message import Message
from ..dnscore.names import Name
from .recursive import RecursiveResolver


class ResolverFrontend:
    """Adapts a RecursiveResolver to the network's DnsHandler protocol so
    clients can literally send queries to its anycast address."""

    def __init__(self, resolver: RecursiveResolver):
        self.resolver = resolver

    def handle_query(self, query: Message) -> Message:
        if not query.questions:
            response = query.make_response()
            response.rcode = rdtypes.FORMERR
            return response
        question = query.questions[0]
        response = self.resolver.resolve(question.name, question.rdtype)
        response.msg_id = query.msg_id
        return response

GOOGLE_RESOLVER_IP = "8.8.8.8"
CLOUDFLARE_RESOLVER_IP = "1.1.1.1"


class StubResolver:
    """Client-side stub with a primary/backup resolver list."""

    def __init__(self, resolvers: List[RecursiveResolver]):
        if not resolvers:
            raise ValueError("need at least one upstream resolver")
        self.resolvers = list(resolvers)

    def query(self, name, rdtype: int) -> Message:
        """Query the primary; fail over to backups on SERVFAIL."""
        if not isinstance(name, Name):
            name = Name.from_text(str(name))
        last: Optional[Message] = None
        for resolver in self.resolvers:
            response = resolver.resolve(name, rdtype)
            if response.rcode != rdtypes.SERVFAIL:
                return response
            last = response
        assert last is not None
        return last

    def query_https(self, name) -> Message:
        return self.query(name, rdtypes.HTTPS)

    def query_a(self, name) -> Message:
        return self.query(name, rdtypes.A)
