"""Recursive (caching, validating) DNS resolver.

Performs genuine iterative resolution: starts at the root hints, follows
referrals (using glue, or resolving out-of-bailiwick NS names), chases
CNAME chains across zones, caches positive and delegation answers by TTL
against a :class:`~repro.resolver.clock.SimClock`, and — when a
:class:`~repro.dnssec.validation.ChainValidator` is attached — validates
answers and sets the AD bit (bogus data yields SERVFAIL, like real
validating resolvers).

Name-server selection is deterministic per (resolver, qname, day), which
reproduces the paper's observation (§4.2.3) that public resolvers' server
selection makes HTTPS records intermittent for domains whose providers
disagree about HTTPS RR support.

Each upstream query goes out through
:meth:`~repro.resolver.network.Network.send_dns_query` the moment the
iteration needs it, with bounded retries when a delivery times out.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from ..dnscore import rdtypes
from ..dnscore.message import Message, Question
from ..dnscore.names import Name
from ..dnscore.rrset import RRset
from ..dnssec.validation import ChainValidator, ValidationState
from .clock import SimClock
from .network import HostUnreachable, Network, QueryTimeout

_MAX_CNAME_CHAIN = 8
_MAX_REFERRALS = 16
_MAX_NS_RESOLUTION_DEPTH = 4

# Bounded client-side retries on timeout, with deterministic exponential
# backoff. The backoff is *recorded* (``backoff_seconds``) rather than
# slept or applied to the shared SimClock: the clock is the world's, so
# advancing it per retry would make every later cache expiry and server
# choice depend on how many deliveries earlier names lost. A sharded or
# resumed run, whose worlds see only some of those losses, would then
# diverge from the one-shot run.
_MAX_RETRIES = 2
_RETRY_BACKOFF_BASE = 0.5

# Negative/SERVFAIL cache TTL (default; per-resolver override via
# ``negative_ttl`` / :attr:`~repro.simnet.config.SimConfig.negative_ttl`).
_NEGATIVE_TTL = 60


class ResolutionError(Exception):
    """The resolver could not produce an answer (maps to SERVFAIL)."""


class _CacheEntry:
    __slots__ = ("expiry", "rcode", "answers", "ad")

    def __init__(self, expiry: float, rcode: int, answers: List[RRset], ad: bool):
        self.expiry = expiry
        self.rcode = rcode
        self.answers = answers
        self.ad = ad


class RecursiveResolver:
    """One caching recursive resolver instance (e.g. 8.8.8.8)."""

    def __init__(
        self,
        name: str,
        network: Network,
        root_hint_ips: List[str],
        clock: Optional[SimClock] = None,
        validator: Optional[ChainValidator] = None,
        cache_enabled: bool = True,
        negative_ttl: int = _NEGATIVE_TTL,
        max_retries: int = _MAX_RETRIES,
    ):
        self.name = name
        self.network = network
        self.root_hint_ips = list(root_hint_ips)
        self.clock = clock if clock is not None else SimClock()
        self.validator = validator
        self.cache_enabled = cache_enabled
        self.negative_ttl = negative_ttl
        self.max_retries = max_retries
        self._cache: Dict[Tuple[Name, int], _CacheEntry] = {}
        self._delegation_cache: Dict[Name, Tuple[float, List[str]]] = {}
        self._msg_id = 0
        # Fault-path counters (rolled into RunStats; excluded from
        # dataset equality like the query counters).
        self.timeouts = 0
        self.retries = 0
        self.unreachables = 0
        self.backoff_seconds = 0.0

    # -- public API ------------------------------------------------------------

    def resolve(self, name, rdtype: int) -> Message:
        """Resolve (name, rdtype) and return a response message as a stub
        client would see it (RA set, AD reflecting validation)."""
        if not isinstance(name, Name):
            name = Name.from_text(str(name))
        response = Message(self._next_id())
        response.is_response = True
        response.recursion_desired = True
        response.recursion_available = True
        response.questions.append(Question(name, rdtype))
        try:
            rcode, answers, ad = self._resolve_with_cname(name, rdtype)
        except ResolutionError:
            response.rcode = rdtypes.SERVFAIL
            return response
        response.rcode = rcode
        response.answers = answers
        response.authenticated_data = ad
        return response

    def flush_cache(self) -> None:
        self._cache.clear()
        self._delegation_cache.clear()

    def drop_expired(self) -> None:
        """Free the record and delegation entries that have expired by
        now. Exact: lookups never serve an expired entry, and the clock
        never moves back outside :meth:`reset`."""
        now = self._now()
        self._cache = {k: e for k, e in self._cache.items() if e.expiry > now}
        self._delegation_cache = {
            k: d for k, d in self._delegation_cache.items() if d[0] > now
        }

    def reset(self) -> None:
        """Forget everything accumulated since construction (caches and
        the message-id counter) so a reused resolver behaves bit-for-bit
        like a freshly built one. Used by world reuse
        (:meth:`~repro.simnet.world.World.reset`), where the clock also
        rewinds — cached entries would otherwise carry future expiries,
        and the validator's verdicts a history the world no longer has."""
        self.flush_cache()
        if self.validator is not None:
            self.validator.flush()
        self._msg_id = 0
        self.timeouts = 0
        self.retries = 0
        self.unreachables = 0
        self.backoff_seconds = 0.0

    # -- internals -----------------------------------------------------------------

    def _next_id(self) -> int:
        self._msg_id = (self._msg_id + 1) & 0xFFFF
        return self._msg_id

    def _now(self) -> float:
        return self.clock.now

    def _resolve_with_cname(self, name: Name, rdtype: int):
        """Resolve, chasing CNAMEs; returns (rcode, answer rrsets, ad)."""
        answers: List[RRset] = []
        all_secure = True
        current = name
        for _ in range(_MAX_CNAME_CHAIN):
            rcode, rrsets, ad = self._resolve_one(current, rdtype)
            answers.extend(rrsets)
            all_secure = all_secure and ad
            target_rrset = next(
                (rr for rr in rrsets if rr.rdtype == rdtype and rr.name == current), None
            )
            cname_rrset = next(
                (rr for rr in rrsets if rr.rdtype == rdtypes.CNAME and rr.name == current),
                None,
            )
            if target_rrset is not None or cname_rrset is None:
                return rcode, answers, all_secure and bool(answers)
            current = cname_rrset[0].target
        raise ResolutionError("CNAME chain too long")

    def _resolve_one(self, name: Name, rdtype: int):
        """Resolve one (name, type) without following cross-zone CNAMEs
        beyond what the authoritative answer already contains."""
        cached = self._cache_get(name, rdtype)
        if cached is not None:
            return cached.rcode, list(cached.answers), cached.ad

        response = self._iterate(name, rdtype)
        ad = False
        if response.rcode == rdtypes.NOERROR and response.answers:
            ad = self._validate_answers(name, rdtype, response)
            if ad is None:  # bogus
                self._cache_put(name, rdtype, rdtypes.SERVFAIL, [], False, self.negative_ttl)
                raise ResolutionError("DNSSEC validation failed (bogus)")
        visible = [rr for rr in response.answers]
        if visible:
            ttl = min(rr.ttl for rr in visible)
        else:
            # Negative caching (RFC 2308): TTL from the SOA in authority,
            # capped by its MINIMUM field.
            ttl = self.negative_ttl
            for rrset in response.authority:
                if rrset.rdtype == rdtypes.SOA and len(rrset):
                    ttl = min(rrset.ttl, rrset[0].minimum)
                    break
        self._cache_put(name, rdtype, response.rcode, visible, bool(ad), ttl)
        return response.rcode, visible, bool(ad)

    def _validate_answers(self, name: Name, rdtype: int, response: Message) -> Optional[bool]:
        """True=secure, False=insecure, None=bogus."""
        if self.validator is None:
            return False
        secure = True
        for rrset in response.answers:
            if rrset.rdtype == rdtypes.RRSIG:
                continue
            result = self.validator.validate(rrset.name, rrset.rdtype, int(self._now()))
            if result.state is ValidationState.BOGUS:
                return None
            if result.state is not ValidationState.SECURE:
                secure = False
        return secure

    # -- cache ---------------------------------------------------------------------

    def _cache_get(self, name: Name, rdtype: int) -> Optional[_CacheEntry]:
        if not self.cache_enabled:
            return None
        entry = self._cache.get((name, rdtype))
        if entry is None or entry.expiry <= self._now():
            self._cache.pop((name, rdtype), None)
            return None
        return entry

    def _cache_put(
        self, name: Name, rdtype: int, rcode: int, answers: List[RRset], ad: bool, ttl: float
    ) -> None:
        if not self.cache_enabled:
            return
        self._cache[(name, rdtype)] = _CacheEntry(self._now() + ttl, rcode, answers, ad)

    # -- iteration --------------------------------------------------------------------

    def _select_server(self, candidates: List[str], qname: Name) -> List[str]:
        """Order candidate server IPs; deterministic per (resolver, name,
        day) so re-queries within a day are stable but selection can move
        across days (mixed-provider intermittency, §4.2.3)."""
        if len(candidates) <= 1:
            return list(candidates)
        day = int(self._now() // 86400)
        digest = hashlib.sha256(
            f"{self.name}|{qname.to_text().lower()}|{day}".encode()
        ).digest()
        start = digest[0] % len(candidates)
        return candidates[start:] + candidates[:start]

    def _iterate(self, name: Name, rdtype: int, depth: int = 0) -> Message:
        if depth > _MAX_NS_RESOLUTION_DEPTH:
            raise ResolutionError("NS resolution recursion too deep")
        servers = self._closest_cached_delegation(name)
        # Resolvers speak EDNS with DO set: they need RRSIGs to validate
        # (and the paper's scanner collects them from the response).
        query = Message.make_query(name, rdtype, self._next_id(), want_dnssec=True)
        last_error: Optional[Exception] = None
        for _ in range(_MAX_REFERRALS):
            tried_any = False
            for ip in self._select_server(servers, name):
                response, error = self._query_server(ip, query)
                if response is None:
                    last_error = error
                    continue
                tried_any = True
                if response.rcode == rdtypes.REFUSED:
                    last_error = ResolutionError(f"refused by {ip}")
                    continue
                if response.authoritative or response.answers or response.rcode == rdtypes.NXDOMAIN:
                    return response
                referral = self._extract_referral(response, name, depth)
                if referral:
                    servers = referral
                    break
                # Lame/empty response from this server; try the next one.
                last_error = ResolutionError(f"lame response from {ip}")
            else:
                if not tried_any:
                    raise ResolutionError(f"all servers unreachable: {last_error}")
                raise ResolutionError(f"no usable response: {last_error}")
        raise ResolutionError("too many referrals")

    def _query_server(self, ip: str, query: Message):
        """Deliver ``query`` to one server with bounded timeout retries.

        Returns ``(response, None)`` on success or ``(None, error)``
        after the transport gave up: immediately on
        :class:`HostUnreachable` (retrying a dead host is pointless —
        the caller moves to the next server), after ``max_retries``
        extra attempts on :class:`QueryTimeout`. Backoff between
        attempts is deterministic (``base * 2**attempt``) and only
        *accounted*, never slept — see module note on clock purity.
        ``attempt`` (0, then 1, 2, ... across retries) reaches the
        network's fault hook, so drop decisions are pure functions of
        (query, attempt)."""
        error: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            try:
                return self.network.send_dns_query(ip, query, attempt), None
            except QueryTimeout as exc:
                self.timeouts += 1
                error = exc
                if attempt < self.max_retries:
                    self.retries += 1
                    self.backoff_seconds += _RETRY_BACKOFF_BASE * (2 ** attempt)
                continue
            except HostUnreachable as exc:
                self.unreachables += 1
                return None, exc
        return None, error

    def _closest_cached_delegation(self, name: Name) -> List[str]:
        if not self.cache_enabled:
            return list(self.root_hint_ips)
        probe = name
        while True:
            cached = self._delegation_cache.get(probe)
            if cached is not None and cached[0] > self._now():
                return list(cached[1])
            if probe == Name.root():
                return list(self.root_hint_ips)
            probe = probe.parent()

    def _extract_referral(self, response: Message, qname: Name, depth: int) -> List[str]:
        ns_rrset = next((rr for rr in response.authority if rr.rdtype == rdtypes.NS), None)
        if ns_rrset is None:
            return []
        glue: Dict[Name, List[str]] = {}
        for rrset in response.additional:
            # Both address families count as glue; an IPv6-only name
            # server is otherwise treated as glueless and re-resolved.
            if rrset.rdtype in (rdtypes.A, rdtypes.AAAA):
                glue.setdefault(rrset.name, []).extend(rd.address for rd in rrset)
        ips: List[str] = []
        for ns_rdata in ns_rrset:
            ns_name = ns_rdata.target
            if ns_name in glue:
                ips.extend(glue[ns_name])
            else:
                ips.extend(self._resolve_ns_address(ns_name, depth))
        if ips and self.cache_enabled:
            ttl = ns_rrset.ttl
            self._delegation_cache[ns_rrset.name] = (self._now() + ttl, ips)
        return ips

    def _resolve_ns_address(self, ns_name: Name, depth: int) -> List[str]:
        """Resolve a glueless NS name to addresses (bounded recursion)."""
        cached = self._cache_get(ns_name, rdtypes.A)
        if cached is not None:
            return [rd.address for rr in cached.answers if rr.rdtype == rdtypes.A for rd in rr]
        try:
            response = self._iterate(ns_name, rdtypes.A, depth + 1)
        except ResolutionError:
            return []
        ips = [
            rd.address
            for rr in response.answers
            if rr.rdtype == rdtypes.A
            for rd in rr
        ]
        if ips:
            ttl = min(rr.ttl for rr in response.answers if rr.rdtype == rdtypes.A)
            self._cache_put(ns_name, rdtypes.A, rdtypes.NOERROR, list(response.answers), False, ttl)
        return ips
