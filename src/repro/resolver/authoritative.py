"""Authoritative DNS server.

Serves one or more zones from a :class:`~repro.zones.tree.ZoneTree`:
answers, referrals, CNAME processing, NXDOMAIN/NODATA, and RRSIG
inclusion for signed zones.

Two behaviour knobs model real-provider quirks the paper measures:

* ``unsupported_rdtypes`` — some DNS providers return an empty NOERROR
  for HTTPS queries even when the zone owner configured the record
  (§4.2.3, mixed-provider intermittency);
* ``drop_rrsigs`` — providers that serve records but no signatures.

**Answer fast path (tier 1 of 3).** A world-shared :class:`AnswerCache`
memoises the assembled response sections per (zone, server quirks,
qname, qtype, DO bit): a repeated question is a dict hit instead of a
tree-walk + RRset/RRSIG assembly pass. The world arms it (and tier 3)
only in ``wire_mode``, where a hit also skips the codec. In object mode
a hit saves only the assembly pass, which measured as no faster, while
the store held 2.4 MB of the 12.2 MB traced heap at the end of
perfbench's ``daily`` run; object mode arms tier-2 zone-body reuse only
(see :meth:`~repro.simnet.world.World.set_answer_cache`).

The cache sits *behind* query logging and the network fault hook, so
``query_log`` and ``dns_query_count`` are identical with the cache on
or off, and faulted deliveries never touch it. Both provider quirks
join the key, so two servers with different quirks can share one cache
(mixed-provider domains serve the *same* :class:`~repro.zones.zone.Zone`
object from both of their providers).

**Answers live and die with their zone.** The store maps each live
:class:`~repro.zones.zone.Zone` object, weakly, to one slot stamped with
its ``cache_stamp()`` (the monotonic mutation ``version``). A zone the
world drops takes its slot with it, and a version bump replaces the
slot on the next store, so no entry outlives the zone body it was
rendered from. Two per-entry guards cover what the slot stamp cannot:
SOA-bearing entries (NXDOMAIN/NODATA/apex-SOA) pin the serial they were
rendered under — the zone-body reuse path rolls serials *without*
bumping ``version`` — and entries from zones that synthesize answers
out of live world state (:class:`~repro.simnet.world.DynamicTldZone`)
carry a :meth:`~repro.zones.zone.Zone.answer_guard` token revalidated
on the first hit of each new day. Entries of a zone that lives on
survive day and ECH-generation changes — the cross-day hits are most of
the win — and the one event neither slots nor guards can see is a
change of fault schedule (fault hooks change answers behind the zones'
backs).
Every entry is scoped to the schedule it was rendered under
(:meth:`~repro.simnet.faults.FaultSchedule.canonical_tag`, ``None`` for
none): :class:`~repro.simnet.world.World` sets the scope on every fault
install and clear (:meth:`AnswerCache.set_scope`), and entries of
another scope are dropped before the first lookup or store under the
new one. So ``World.reset()`` keeps the store: a parked world that is
checked out again and re-installs the same schedule serves the answers
it rendered in the previous stage or session, and no other schedule is
ever served them. codelint's ``INV01`` rule enforces that every
``_zone_cache`` flush either re-scopes or invalidates alongside, or
carries an explicit justified suppression.

Tier 3 rides on the tier-1 entry: in ``wire_mode`` the entry carries the
decoded client-side message for one header signature (flags/rcode/EDNS),
so a repeated wire-mode answer skips the entire encode **and** decode
pass — see :meth:`AnswerCache.wire_roundtrip` and
:mod:`repro.resolver.network`.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional, Set

from ..dnscore import rdtypes
from ..dnscore.message import Message
from ..dnscore.names import Name
from ..dnscore.rdata import SOARdata
from ..dnscore.rrset import RRset
from ..zones.tree import ZoneTree
from ..zones.zone import Zone

class CachedAnswer:
    """One rendered answer: the response sections :meth:`AuthoritativeServer.
    handle_query` computed for a (zone, question, quirks) key, plus the
    tier-3 decoded template once the response has been through the codec."""

    __slots__ = (
        "rcode", "authoritative", "answers", "authority", "additional",
        "soa_serial", "guard", "signature", "decoded",
    )

    def __init__(self, response: Message):
        self.rcode = response.rcode
        self.authoritative = response.authoritative
        self.answers = tuple(response.answers)
        self.authority = tuple(response.authority)
        self.additional = tuple(response.additional)
        # SOA serial the answer was rendered under, if it carries the
        # SOA (set by handle_query); None for SOA-free answers, which
        # stay valid across serial rolls.
        self.soa_serial: Optional[int] = None
        # Zone-specific freshness token (Zone.answer_guard) revalidated
        # per hit; None for answers valid while the zone's slot is.
        self.guard = None
        # The header signature and the decoded client-side Message for
        # it — filled by wire_roundtrip. The encoded bytes are not kept:
        # a hit never needs them.
        self.signature: Optional[tuple] = None
        self.decoded: Optional[Message] = None


class AnswerCache:
    """World-shared rendered-answer + decoded-template cache (tiers 1 and 3).

    Starts ``enabled=False``: a cache that is not explicitly switched on
    changes nothing. The owning world switches it on in wire mode only
    (:meth:`~repro.simnet.world.World.set_answer_cache`).
    :meth:`set_scope` names the fault schedule answers are rendered
    under — set by the world on fault install/clear, the one event the
    zone slots and per-entry guards cannot see coming — and entries
    rendered under another scope are dropped before the next lookup or
    store.
    """

    def __init__(self):
        self.enabled = False
        self.hits = 0
        self.misses = 0
        self.wire_hits = 0
        self.query_hits = 0
        self.serial_refreshes = 0
        # zone → (cache_stamp, {(quirks, qname, qtype, DO): entry})
        self._zones = weakref.WeakKeyDictionary()
        # The fault scope answers are rendered under now, and the scope
        # the held entries were rendered under.
        self._scope: Optional[str] = None
        self._entries_scope: Optional[str] = None
        # Decoded query templates (client→server leg). A query parse is a
        # pure function of its bytes — no zone, clock or fault dependence
        # — so these never go stale: one per distinct question asked.
        self._queries: Dict[tuple, Message] = {}

    # -- lifecycle ---------------------------------------------------------

    def set_enabled(self, enabled: bool) -> None:
        enabled = bool(enabled)
        if enabled == self.enabled:
            return
        self.enabled = enabled
        # Toggling either way starts from a clean slate: a disabled run
        # must do zero cache work, and a re-enabled run must not serve
        # entries from before the gap.
        self._zones.clear()
        self._queries.clear()

    def set_scope(self, scope: Optional[str]) -> None:
        """Render answers under fault scope *scope* from now on (a fault
        schedule's canonical tag, ``None`` for no schedule).

        Entries rendered under another scope are dropped before the
        first lookup or store under this one, not here: a schedule that
        is cleared and then installed again before any query keeps them.
        """
        self._scope = scope

    def _adopt_scope(self) -> None:
        self._zones.clear()
        self._entries_scope = self._scope

    def reset_counters(self) -> None:
        """Zero the counters. Entries, templates, scope and the enabled
        switch are kept: they stay valid across a world reset."""
        self.hits = 0
        self.misses = 0
        self.wire_hits = 0
        self.query_hits = 0
        self.serial_refreshes = 0

    def __len__(self) -> int:
        """Rendered entries held, over every zone still alive."""
        return sum(len(slot[1]) for slot in self._zones.values())

    # -- tier 1: rendered answers ------------------------------------------

    def lookup(self, key: tuple, zone: Zone) -> Optional[CachedAnswer]:
        """Return the live entry for *key* in *zone*'s slot, or None
        (counted as a miss). A slot serves only at the zone's current
        ``cache_stamp()``.

        An entry that carries the SOA only hits while the zone's serial
        still matches (``roll_soa_serial`` advances serials without
        bumping the version that stamps the slot). On an unsigned zone a serial
        mismatch is repaired in place rather than missed: the fresh
        synthesis would differ from the entry in exactly the SOA it
        attaches, so :meth:`_refresh_serial` swaps in the zone's current
        SOA and patches the decoded template's SOA."""
        if self._scope != self._entries_scope:
            self._adopt_scope()
        slot = self._zones.get(zone)
        if slot is not None and slot[0] == zone.cache_stamp():
            entry = slot[1].get(key)
            # key[1]/key[2] are the question name/rdtype (see
            # AuthoritativeServer.handle_query's key layout).
            if entry is not None and (
                entry.guard is None or zone.validate_guard(entry.guard, key[1], key[2])
            ):
                serial = entry.soa_serial
                if serial is None or serial == zone.soa_serial:
                    self.hits += 1
                    return entry
                # Signed zones re-sign after a roll (version bump → new
                # slot), so a refresh would have to reconcile RRSIGs too;
                # restricting it to unsigned zones keeps the patch exact.
                if not zone.signed and self._refresh_serial(entry, zone):
                    self.hits += 1
                    return entry
        self.misses += 1
        return None

    def _refresh_serial(self, entry: CachedAnswer, zone: Zone) -> bool:
        """Advance a SOA-bearing entry to *zone*'s current serial.

        ``roll_soa_serial`` replaces only the SOA RRset of an otherwise
        unchanged unsigned zone, so the answer this entry would be
        re-synthesized into differs in exactly one RRset: swap the
        zone's current SOA into the cached sections (the same object a
        fresh ``_attach_soa`` would append) and into the decoded
        template (:meth:`_patch_decoded`). If the template holds no such
        SOA it is dropped, and the next wire round trip re-encodes from
        the refreshed sections."""
        new_soa = zone.soa
        new_serial = zone.soa_serial
        if new_soa is None or new_serial is None:
            return False
        replaced = False
        for section_name in ("authority", "answers"):
            section = getattr(entry, section_name)
            for i, rrset in enumerate(section):
                if rrset.rdtype == rdtypes.SOA and rrset.name == zone.apex:
                    setattr(
                        entry, section_name,
                        section[:i] + (new_soa,) + section[i + 1:],
                    )
                    replaced = True
                    break
            if replaced:
                break
        if not replaced:
            return False
        entry.soa_serial = new_serial
        if entry.decoded is not None:
            entry.decoded = self._patch_decoded(entry.decoded, zone.apex, new_serial)
            if entry.decoded is None:
                entry.signature = None
        self.serial_refreshes += 1
        return True

    @staticmethod
    def _patch_decoded(decoded: Message, apex: Name, new_serial: int) -> Optional[Message]:
        """Clone the decoded client-side template with its SOA serial
        replaced, or None if it holds no SOA for *apex*. A clone (not an
        in-place edit) because the old template has been handed to
        clients as a live response; a fresh RRset (not an rdata edit)
        because resolvers may have cached the old one."""
        for section_name in ("authority", "answers"):
            section = getattr(decoded, section_name)
            for i, rrset in enumerate(section):
                if rrset.rdtype == rdtypes.SOA and rrset.name == apex:
                    old = rrset[0]
                    patched = RRset(
                        rrset.name,
                        rrset.rdtype,
                        rrset.ttl,
                        [
                            SOARdata(
                                old.mname, old.rname, new_serial,
                                refresh=old.refresh, retry=old.retry,
                                expire=old.expire, minimum=old.minimum,
                            )
                        ],
                    )
                    clone = Message(decoded.msg_id)
                    clone.flags = decoded.flags
                    clone.rcode = decoded.rcode
                    clone.opcode = decoded.opcode
                    clone.use_edns = decoded.use_edns
                    clone.edns_payload_size = decoded.edns_payload_size
                    clone.dnssec_ok = decoded.dnssec_ok
                    clone.questions = list(decoded.questions)
                    clone.answers = list(decoded.answers)
                    clone.authority = list(decoded.authority)
                    clone.additional = list(decoded.additional)
                    getattr(clone, section_name)[i] = patched
                    return clone
        return None

    def store(self, key: tuple, response: Message, zone: Zone) -> CachedAnswer:
        if self._scope != self._entries_scope:
            self._adopt_scope()
        entry = CachedAnswer(response)
        if any(rrset.rdtype == rdtypes.SOA for rrset in entry.authority + entry.answers):
            entry.soa_serial = zone.soa_serial
        entry.guard = zone.answer_guard(key[1], key[2])
        stamp = zone.cache_stamp()
        slot = self._zones.get(zone)
        if slot is None or slot[0] != stamp:
            # Entries rendered from an older version go with the old slot.
            slot = (stamp, {})
            self._zones[zone] = slot
        slot[1][key] = entry
        return entry

    # -- tier 3: decoded templates -----------------------------------------

    def wire_roundtrip(self, response: Message, entry: CachedAnswer) -> Message:
        """The wire-mode server→client round trip for a cached answer.

        The entry's decoded client-side message is valid for any
        response whose header matches the stored signature
        (flags including RD, rcode, opcode, EDNS negotiation, DO) — a
        repeated answer skips the entire encode/decode pass and returns
        the shared decoded template. Sharing is safe because the
        resolver treats upstream responses as immutable (it copies the
        sections it keeps; ``Message.msg_id`` on responses is never
        validated); anything that broke that contract would diverge from
        the cache-off run and fail the equivalence suites.
        """
        signature = (
            response.flags,
            response.rcode,
            response.opcode,
            response.use_edns,
            response.edns_payload_size,
            response.dnssec_ok,
        )
        if entry.signature == signature:
            self.wire_hits += 1
            return entry.decoded
        decoded = Message.from_wire(response.to_wire())
        entry.signature = signature
        entry.decoded = decoded
        return decoded

    def query_roundtrip(self, query: Message) -> Message:
        """The wire-mode client→server leg: ``Message.from_wire(query.
        to_wire())`` memoised on the question + header fields.

        A parsed query is a pure function of its bytes, so the template
        never goes stale; each hit returns a per-call clone carrying the
        live transaction's ``msg_id`` (responses copy their id from the
        query, so the id must be exact even though nothing validates it
        on the way back)."""
        if not query.questions:
            return Message.from_wire(query.to_wire())
        question = query.questions[0]
        key = (
            question.name,
            question.rdtype,
            query.flags,
            query.use_edns,
            query.edns_payload_size,
            query.dnssec_ok,
        )
        template = self._queries.get(key)
        if template is None:
            decoded = Message.from_wire(query.to_wire())
            self._queries[key] = decoded
            return decoded
        self.query_hits += 1
        clone = Message(query.msg_id)
        clone.flags = template.flags
        clone.rcode = template.rcode
        clone.opcode = template.opcode
        clone.use_edns = template.use_edns
        clone.edns_payload_size = template.edns_payload_size
        clone.dnssec_ok = template.dnssec_ok
        clone.questions = list(template.questions)
        return clone


class AuthoritativeServer:
    """A name server instance at one (or more) IP addresses."""

    def __init__(
        self,
        name: str,
        tree: Optional[ZoneTree] = None,
        unsupported_rdtypes: Iterable[int] = (),
        drop_rrsigs: bool = False,
        answer_cache: Optional[AnswerCache] = None,
    ):
        self.name = name
        self.tree = tree if tree is not None else ZoneTree()
        self.unsupported_rdtypes = set(unsupported_rdtypes)
        self.drop_rrsigs = drop_rrsigs
        self.answer_cache = answer_cache
        self.query_log: List[tuple] = []
        self.log_queries = False

    # Both quirks are folded into one precomputed hashable key so the
    # per-query cache key build never re-freezes the rdtype set. The
    # property setters keep it in sync with the world-build idiom of
    # assigning quirks after construction.

    @property
    def unsupported_rdtypes(self) -> Set[int]:
        return self._unsupported_rdtypes

    @unsupported_rdtypes.setter
    def unsupported_rdtypes(self, value: Iterable[int]) -> None:
        self._unsupported_rdtypes = set(value)
        self._refresh_quirk_key()

    @property
    def drop_rrsigs(self) -> bool:
        return self._drop_rrsigs

    @drop_rrsigs.setter
    def drop_rrsigs(self, value: bool) -> None:
        self._drop_rrsigs = bool(value)
        self._refresh_quirk_key()

    def _refresh_quirk_key(self) -> None:
        self._quirk_key = (
            frozenset(getattr(self, "_unsupported_rdtypes", ())),
            getattr(self, "_drop_rrsigs", False),
        )

    def add_zone(self, zone: Zone) -> None:
        self.tree.add_zone(zone)

    # -- query handling -----------------------------------------------------

    def handle_query(self, query: Message) -> Message:
        if not query.questions:
            response = query.make_response()
            response.rcode = rdtypes.FORMERR
            return response
        question = query.questions[0]
        if self.log_queries:
            self.query_log.append((question.name.to_text(), question.rdtype))
        zone = self.tree.zone_for(question.name)
        if zone is None:
            response = query.make_response()
            response.rcode = rdtypes.REFUSED
            return response
        cache = self.answer_cache
        if cache is None or not cache.enabled:
            return self._synthesize(query, zone, question)
        # The zone itself selects the slot (see AnswerCache.lookup); the
        # quirk key joins because mixed-provider domains serve the same
        # Zone object from servers with *different* quirk sets.
        key = (self._quirk_key, question.name, question.rdtype, query.dnssec_ok)
        entry = cache.lookup(key, zone)
        if entry is None:
            response = self._synthesize(query, zone, question)
            entry = cache.store(key, response, zone)
        else:
            response = query.make_response()
            response.rcode = entry.rcode
            response.authoritative = entry.authoritative
            response.answers.extend(entry.answers)
            response.authority.extend(entry.authority)
            response.additional.extend(entry.additional)
        response.answer_entry = entry  # tier-3 handle for Network
        return response

    def _synthesize(self, query: Message, zone: Zone, question) -> Message:
        """The uncached answer-assembly path (the original handle_query
        body past zone lookup): referral, quirk, and in-zone answers."""
        response = query.make_response()
        response.authoritative = True

        # Provider-level lack of support for a record type: empty NOERROR.
        if question.rdtype in self.unsupported_rdtypes:
            self._attach_soa(response, zone)
            return response

        # Delegation below a zone cut → referral.
        child = zone.is_delegation(question.name)
        if child is not None and not (
            question.name == child and question.rdtype == rdtypes.DS
        ):
            ns_rrset = zone.get_rrset(child, rdtypes.NS)
            response.authoritative = False
            if ns_rrset is not None:
                response.authority.append(ns_rrset)
                self._attach_glue(response, zone, ns_rrset)
            return response

        self._answer_from_zone(
            response, zone, question.name, question.rdtype, want_dnssec=query.dnssec_ok
        )
        return response

    def _answer_from_zone(
        self, response: Message, zone: Zone, name: Name, rdtype: int, want_dnssec: bool = False
    ) -> None:
        # CNAME processing first (RFC 1034 section 4.3.2 step 3a).
        cname_rrset = zone.get_rrset(name, rdtypes.CNAME)
        if cname_rrset is not None and rdtype not in (rdtypes.CNAME,):
            response.answers.append(cname_rrset)
            if want_dnssec:
                self._attach_sigs(response, zone, name, rdtypes.CNAME)
            target = cname_rrset[0].target
            if target.is_subdomain_of(zone.apex):
                self._answer_from_zone(response, zone, target, rdtype, want_dnssec)
            return

        rrset = zone.get_rrset(name, rdtype)
        if rrset is not None:
            response.answers.append(rrset)
            if want_dnssec:
                self._attach_sigs(response, zone, name, rdtype)
            return

        if zone.has_name(name):
            # NODATA: name exists but not this type.
            self._attach_soa(response, zone)
        else:
            response.rcode = rdtypes.NXDOMAIN
            self._attach_soa(response, zone)

    def _attach_sigs(self, response: Message, zone: Zone, name: Name, rdtype: int) -> None:
        if self.drop_rrsigs:
            return
        rrsigs = zone.get_rrsigs(name, rdtype)
        if rrsigs:
            sig_rrset = RRset(name, rdtypes.RRSIG, zone.default_ttl, rrsigs)
            response.answers.append(sig_rrset)

    def _attach_soa(self, response: Message, zone: Zone) -> None:
        soa = zone.soa
        if soa is not None and not any(
            rr.rdtype == rdtypes.SOA and rr.name == zone.apex for rr in response.authority
        ):
            response.authority.append(soa)

    def _attach_glue(self, response: Message, zone: Zone, ns_rrset: RRset) -> None:
        for ns_rdata in ns_rrset:
            ns_name = ns_rdata.target
            if not ns_name.is_subdomain_of(zone.apex):
                continue
            for glue_type in (rdtypes.A, rdtypes.AAAA):
                glue = zone.get_rrset(ns_name, glue_type)
                if glue is not None:
                    response.additional.append(glue)

    def __repr__(self) -> str:
        return f"AuthoritativeServer({self.name}, zones={len(self.tree)})"
