"""The scanning engine: the paper's measurement methodology (§4.1).

For every domain in the daily list the engine

1. sends an HTTPS query to the primary public resolver (Google), falling
   back to Cloudflare on SERVFAIL;
2. follows a CNAME response by re-examining the chain for an HTTPS RRset
   at the canonical name;
3. records RRSIG presence and the AD bit from the response;
4. when an HTTPS record exists, issues follow-up A/AAAA/SOA/NS queries;
5. in the NS window, resolves every seen name server to addresses and
   attributes them via WHOIS;
6. in the connectivity window, TLS-probes every address of domains whose
   IP hints disagree with their A records.

Each scan (``scan_name``, ``scan_nameserver``, ``scan_ech``) covers one
name and sends its queries one at a time through the world's
:class:`~repro.resolver.stub.StubResolver`.
"""

from __future__ import annotations

import datetime
import hashlib
from typing import Dict, List, Optional, Tuple

from ..dnscore import rdtypes
from ..dnscore.message import Message
from ..dnscore.names import Name
from ..dnscore.rdata import HTTPSRdata
from ..ech.config import try_parse_config_list
from ..simnet.cohorts import DomainProfile
from ..simnet.world import World
from ..whois.registry import WhoisClient, build_default_registry
from .records import (
    ConnectivityProbe,
    DomainObservation,
    EchObservation,
    HttpsRecordView,
    NameServerObservation,
)

# The process's one copy of each distinct immutable value the scanner
# stores in records (see the records module): strings, bytes, tuples of
# these, and HttpsRecordViews. Keys carry the type, since 1 == True
# would otherwise hand back a value of the other type. Like Name.from_text's
# cache, the table is emptied when it grows past a bound; that only
# loses sharing, never a value.
_SHARED: Dict[tuple, object] = {}
_SHARED_BOUND = 200_000


def share(value):
    """The shared copy of the immutable *value* (equal, same type)."""
    if len(_SHARED) >= _SHARED_BOUND:
        _SHARED.clear()
    return _SHARED.setdefault((value.__class__, value), value)


def parse_https_rdata(rdata: HTTPSRdata) -> HttpsRecordView:
    """Flatten an HTTPS rdata into the scanner's (shared) view."""
    params = rdata.params
    ech_digest = None
    public_name = None
    config_id = 0
    has_ech = params.ech is not None
    if has_ech:
        ech_digest = hashlib.sha256(params.ech).digest()[:8]
        config_list = try_parse_config_list(params.ech)
        if config_list is not None:
            public_name = config_list.primary().public_name
            config_id = config_list.primary().config_id
    fields = (
        rdata.priority,
        rdata.target.to_text(),
        params.alpn,
        params.port,
        params.ipv4hint,
        params.ipv6hint,
        has_ech,
        ech_digest,
        public_name,
        config_id,
        bool(params.mandatory_keys),
    )
    key = (HttpsRecordView, fields)
    view = _SHARED.get(key)
    if view is None:
        view = HttpsRecordView(*(share(field) for field in fields))
        _SHARED[key] = view
    return view


class ScanEngine:
    """Executes scans against a :class:`~repro.simnet.world.World`."""

    def __init__(self, world: World):
        self.world = world
        self.whois = WhoisClient(build_default_registry())

    # -- single-name scan -------------------------------------------------

    def scan_name(
        self, name: Name, kind: str, follow_up: bool = True, text: Optional[str] = None
    ) -> DomainObservation:
        """Scan one name per the §4.1 methodology.

        *text* is *name* in presentation form without the final dot when
        the caller already holds that string (the campaign passes the
        ranked list's), so the observation reuses it."""
        stub = self.world.stub
        response = stub.query(name, rdtypes.HTTPS)
        https_views: List[HttpsRecordView] = []
        via_cname: Optional[str] = None
        rrsig_present = False

        https_rrset = response.get_answer(name, rdtypes.HTTPS)
        owner = name
        if https_rrset is None:
            # CNAME chase: find the chain's terminal owner.
            cname_target = self._terminal_cname(response, name)
            if cname_target is not None:
                via_cname = share(cname_target.to_text())
                https_rrset = response.get_answer(cname_target, rdtypes.HTTPS)
                if https_rrset is None:
                    # Re-query at the canonical name, like the paper does.
                    chased = stub.query(cname_target, rdtypes.HTTPS)
                    https_rrset = chased.get_answer(cname_target, rdtypes.HTTPS)
                    if https_rrset is not None:
                        response = chased
                owner = cname_target
        if https_rrset is not None:
            https_views = [
                parse_https_rdata(rd) for rd in https_rrset if isinstance(rd, HTTPSRdata)
            ]
            rrsig_present = response.get_answer(owner, rdtypes.RRSIG) is not None

        observation = DomainObservation(
            name=share(name.to_text(omit_final_dot=True)) if text is None else text,
            kind=kind,
            rcode=response.rcode,
            https_records=tuple(https_views),
            via_cname=via_cname,
            rrsig_present=rrsig_present,
            ad_flag=response.authenticated_data,
        )
        if follow_up and https_views:
            self._follow_up_queries(observation, name)
        return observation

    _MAX_CNAME_CHAIN = 8

    def _terminal_cname(self, response: Message, name: Name) -> Optional[Name]:
        """The terminal owner of the response's CNAME chain, or None.

        A chain that does not terminate within the hop limit is treated
        as no answer (real scanners abandon such chains rather than
        attribute records to a mid-chain owner).
        """
        current = name
        for _ in range(self._MAX_CNAME_CHAIN):
            rrset = response.get_answer(current, rdtypes.CNAME)
            if rrset is None:
                return current if current != name else None
            current = rrset[0].target
        # Hop budget consumed: the last target may still be the terminal
        # owner (a chain of exactly _MAX_CNAME_CHAIN links).
        if response.get_answer(current, rdtypes.CNAME) is None:
            return current
        return None

    def _follow_up_queries(self, observation: DomainObservation, name: Name) -> None:
        stub = self.world.stub
        a_response = stub.query(name, rdtypes.A)
        observation.a_addrs = self._addresses(a_response, rdtypes.A)
        aaaa_response = stub.query(name, rdtypes.AAAA)
        observation.aaaa_addrs = self._addresses(aaaa_response, rdtypes.AAAA)
        soa_response = stub.query(name, rdtypes.SOA)
        soa_rrset = soa_response.get_answer(name, rdtypes.SOA)
        if soa_rrset is not None and len(soa_rrset):
            observation.soa_serial = soa_rrset[0].serial
        ns_response = stub.query(name, rdtypes.NS)
        ns_rrset = ns_response.get_answer(name, rdtypes.NS)
        if ns_rrset is not None:
            observation.ns_names = share(tuple(
                sorted(share(rd.target.to_text(omit_final_dot=True)) for rd in ns_rrset)
            ))

    @staticmethod
    def _addresses(response: Message, rdtype: int) -> Tuple[str, ...]:
        addresses: List[str] = []
        for rrset in response.answers:
            if rrset.rdtype == rdtype:
                addresses.extend(share(rd.address) for rd in rrset)
        return share(tuple(addresses))

    # -- name-server scan ----------------------------------------------------

    def scan_nameserver(self, hostname: str) -> NameServerObservation:
        name = Name.from_text(hostname if hostname.endswith(".") else hostname + ".")
        response = self.world.stub.query(name, rdtypes.A)
        ips = self._addresses(response, rdtypes.A)
        org = None
        if ips:
            record = self.whois.lookup(ips[0])
            org = record.org if record else None
        return NameServerObservation(hostname, ips, org)

    # -- connectivity probe (§4.3.5) ----------------------------------------------

    def probe_connectivity(
        self, profile: DomainProfile, observation: DomainObservation, date: datetime.date
    ) -> Optional[ConnectivityProbe]:
        """On IP-hint/A mismatch, immediately TLS-probe every address."""
        hints = observation.all_ipv4_hints()
        a_addrs = observation.a_addrs
        if not hints or not a_addrs:
            return None
        if set(hints) == set(a_addrs):
            return None
        a_ok = any(self.world.tls_reachable(profile, ip, date) for ip in a_addrs)
        hint_ok = any(self.world.tls_reachable(profile, ip, date) for ip in hints)
        return ConnectivityProbe(
            name=observation.name,
            date=date,
            a_addrs=a_addrs,
            hint_addrs=share(hints),
            a_reachable=a_ok,
            hint_reachable=hint_ok,
        )

    # -- hourly ECH scan (§4.4.2) -----------------------------------------------------

    def scan_ech(self, name: Name, hour: int) -> Optional[EchObservation]:
        observation = self.scan_name(name, "apex", follow_up=False)
        for view in observation.https_records:
            if view.has_ech and view.ech_digest is not None:
                return EchObservation(
                    observation.name,
                    hour,
                    view.ech_digest,
                    view.ech_public_name or "",
                    view.ech_config_id,
                )
        return None
