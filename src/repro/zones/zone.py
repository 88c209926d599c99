"""Authoritative zone container.

A :class:`Zone` owns the RRsets at and below its apex, up to (and
including the NS/glue of) any child delegations. It enforces the apex
rules the paper leans on — CNAME at the apex is rejected unless the zone
is explicitly flagged as misconfigured (footnote 3 of the paper) — and
integrates with :mod:`repro.dnssec` for signing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..dnscore import rdtypes
from ..dnscore.names import Name
from ..dnscore.rdata import NSRdata, Rdata, RRSIGRdata, SOARdata
from ..dnscore.rrset import RRset
from ..dnssec.keys import ZoneKeySet
from ..dnssec.signing import SignatureMemo, sign_rrset

DEFAULT_TTL = 300


class ZoneError(ValueError):
    """Invalid zone content."""


class Zone:
    """A single DNS zone."""

    def __init__(
        self,
        apex: Name,
        allow_apex_cname: bool = False,
        default_ttl: int = DEFAULT_TTL,
    ):
        if not isinstance(apex, Name):
            apex = Name.from_text(str(apex))
        self.apex = apex
        self.allow_apex_cname = allow_apex_cname
        self.default_ttl = default_ttl
        # The rendered-answer cache keeps one slot per live Zone object
        # (a zone that replaced this one at the same apex has its own),
        # stamped with this monotonic content version. Every mutator
        # bumps it, so the cache can never serve a reply assembled from
        # an older body of this zone.
        self.version = 0
        self._records: Dict[Tuple[Name, int], RRset] = {}
        self._rrsigs: Dict[Tuple[Name, int], List[RRSIGRdata]] = {}
        # Child apexes delegated out of this zone (NS RRsets live in
        # self._records keyed by the child name).
        self._delegations: set = set()
        self.keyset: Optional[ZoneKeySet] = None
        self.signed = False

    def cache_stamp(self):
        """Freshness stamp of this zone's rendered-answer cache slot. For
        a plain zone the monotonic ``version`` suffices: content only
        changes through mutators, and every mutator bumps it."""
        return self.version

    def answer_guard(self, name: Name, rdtype: int):
        """Extra per-answer freshness token stored with a cached answer
        (None = valid while the zone's slot stamp matches). Zones that
        synthesize answers from live world state at query time override
        this together with ``validate_guard`` (see ``DynamicTldZone``)."""
        return None

    def validate_guard(self, guard, name: Name, rdtype: int) -> bool:
        return True

    # -- content management --------------------------------------------------

    def _check_name(self, name: Name) -> None:
        if not name.is_subdomain_of(self.apex):
            raise ZoneError(f"{name} is not within zone {self.apex}")

    def add_rrset(self, rrset: RRset) -> None:
        self._check_name(rrset.name)
        if rrset.rdtype == rdtypes.CNAME:
            if rrset.name == self.apex and not self.allow_apex_cname:
                raise ZoneError(
                    f"CNAME at zone apex {self.apex} is not allowed (RFC 1912)"
                )
            conflicting = [
                rdtype
                for (name, rdtype) in self._records
                if name == rrset.name and rdtype != rdtypes.CNAME
            ]
            if conflicting and not (rrset.name == self.apex and self.allow_apex_cname):
                raise ZoneError(f"CNAME at {rrset.name} conflicts with other records")
        elif (rrset.name, rdtypes.CNAME) in self._records and not (
            rrset.name == self.apex and self.allow_apex_cname
        ):
            raise ZoneError(f"{rrset.name} already has a CNAME")
        key = (rrset.name, rrset.rdtype)
        existing = self._records.get(key)
        if existing is None:
            self._records[key] = rrset.copy()
        else:
            for rdata in rrset:
                existing.add(rdata)
        self.version += 1

    def add_record(self, name, rdtype_text: str, rdata_text: str, ttl: Optional[int] = None) -> None:
        """Zone-file-style convenience: ``add_record("a.com", "HTTPS", "1 . alpn=h2")``."""
        rrset = RRset.from_text(
            name if isinstance(name, str) else name.to_text(),
            ttl if ttl is not None else self.default_ttl,
            rdtype_text,
            rdata_text,
        )
        self.add_rrset(rrset)

    def delegate(self, child_apex: Name, nameservers: Iterable[Name], ttl: Optional[int] = None) -> None:
        """Create a delegation (NS RRset) for *child_apex*."""
        self._check_name(child_apex)
        if child_apex == self.apex:
            raise ZoneError("cannot delegate the apex to itself")
        rrset = RRset(
            child_apex,
            rdtypes.NS,
            ttl if ttl is not None else self.default_ttl,
            [NSRdata(ns) for ns in nameservers],
        )
        self._records[(child_apex, rdtypes.NS)] = rrset
        self._delegations.add(child_apex)
        self.version += 1

    def remove_rrset(self, name: Name, rdtype: int) -> None:
        self._records.pop((name, rdtype), None)
        self._rrsigs.pop((name, rdtype), None)
        self.version += 1

    # -- lookup -----------------------------------------------------------------

    def get_rrset(self, name: Name, rdtype: int) -> Optional[RRset]:
        return self._records.get((name, rdtype))

    def get_rrsigs(self, name: Name, rdtype: int) -> List[RRSIGRdata]:
        return list(self._rrsigs.get((name, rdtype), ()))

    def has_name(self, name: Name) -> bool:
        if any(key[0] == name for key in self._records):
            return True
        # Empty non-terminals: a.b.example exists if anything below it does.
        return any(key[0].is_subdomain_of(name) for key in self._records)

    def names(self) -> List[Name]:
        return sorted({key[0] for key in self._records}, key=lambda n: n.to_text())

    def rrsets(self) -> List[RRset]:
        return list(self._records.values())

    def is_delegation(self, name: Name) -> Optional[Name]:
        """If *name* sits at/below a delegation cut, return the child apex."""
        for child in self._delegations:
            if name.is_subdomain_of(child):
                return child
        return None

    @property
    def soa(self) -> Optional[RRset]:
        return self._records.get((self.apex, rdtypes.SOA))

    @property
    def soa_serial(self) -> Optional[int]:
        """Current SOA serial — the freshness stamp SOA-bearing cached
        answers are validated against (see ``roll_soa_serial``)."""
        soa = self._records.get((self.apex, rdtypes.SOA))
        return soa[0].serial if soa is not None else None

    def ensure_soa(self, primary_ns: Optional[Name] = None, serial: int = 1) -> None:
        if self.soa is not None:
            return
        mname = primary_ns or self.apex.prepend("ns1")
        rname = self.apex.prepend("hostmaster")
        rrset = RRset(
            self.apex,
            rdtypes.SOA,
            self.default_ttl,
            [SOARdata(mname, rname, serial)],
        )
        self._records[(self.apex, rdtypes.SOA)] = rrset
        self.version += 1

    def roll_soa_serial(self, serial: int) -> None:
        """Replace the SOA RRset with one carrying *serial*.

        A fresh RRset (not an in-place rdata edit) so responses already
        referencing the old SOA keep the serial they were answered with —
        exactly the aliasing a from-scratch rebuild would produce. Used
        by the world's zone-body reuse path to advance an otherwise
        unchanged zone to a new day.

        Deliberately does NOT bump ``version``: every non-SOA answer this
        zone can give is unchanged by the roll, so the zone's
        rendered-answer cache slot, stamped with ``version``, stays valid
        across days — that cross-day survival is the fast path's main
        win. The answers the roll DOES change (anything carrying the
        SOA: NXDOMAIN, NODATA, apex SOA queries) are guarded
        individually: the cache stamps SOA-bearing entries with the
        serial they were rendered under and re-validates it on every hit
        (see ``AuthoritativeServer``).
        Signed zones re-sign after the roll, and ``sign`` bumps
        ``version``, so their slot is replaced on the next answer.
        """
        soa = self.soa
        if soa is None:
            raise ZoneError(f"zone {self.apex} has no SOA to roll")
        old = soa[0]
        rrset = RRset(
            self.apex,
            rdtypes.SOA,
            soa.ttl,
            [
                SOARdata(
                    old.mname, old.rname, serial,
                    refresh=old.refresh, retry=old.retry,
                    expire=old.expire, minimum=old.minimum,
                )
            ],
        )
        self._records[(self.apex, rdtypes.SOA)] = rrset
        self._rrsigs.pop((self.apex, rdtypes.SOA), None)

    # -- signing ------------------------------------------------------------------

    def sign(
        self,
        now: int,
        keyset: Optional[ZoneKeySet] = None,
        expiration: Optional[int] = None,
        memo: Optional[SignatureMemo] = None,
    ) -> None:
        """Sign every authoritative RRset. DNSKEY is published at the apex
        and signed with the KSK; everything else with the ZSK.

        Signatures route through the process-global signature memo (or
        *memo*), so re-signing a rebuilt-but-unchanged zone — the common
        case when the world's per-day zone cache evicts — recomputes
        nothing and yields byte-identical RRSIGs."""
        self.keyset = keyset or ZoneKeySet(self.apex)
        dnskey_rrset = RRset(
            self.apex,
            rdtypes.DNSKEY,
            self.default_ttl,
            [self.keyset.ksk.dnskey, self.keyset.zsk.dnskey],
        )
        self._records[(self.apex, rdtypes.DNSKEY)] = dnskey_rrset
        self._rrsigs.clear()
        for (name, rdtype), rrset in list(self._records.items()):
            if name in self._delegations and rdtype == rdtypes.NS:
                continue  # delegation NS sets are not signed by the parent
            key = self.keyset.ksk if rdtype == rdtypes.DNSKEY else self.keyset.zsk
            rrsig = sign_rrset(rrset, self.apex, key, now, expiration, memo=memo)
            self._rrsigs.setdefault((name, rdtype), []).append(rrsig)
        self.signed = True
        self.version += 1

    def corrupt_signature(self, name: Name, rdtype: int) -> None:
        """Flip a bit in a signature — used to model bogus chains."""
        sigs = self._rrsigs.get((name, rdtype))
        if not sigs:
            raise ZoneError(f"no RRSIG at {name}/{rdtype} to corrupt")
        sig = sigs[0]
        sig.signature = bytes([sig.signature[0] ^ 0x01]) + sig.signature[1:]
        sig.invalidate_wire_cache()
        self.version += 1

    def ds_rdatas(self) -> List:
        """DS records the parent should publish for this zone (KSK only)."""
        if self.keyset is None:
            raise ZoneError(f"zone {self.apex} is not signed")
        return [self.keyset.ksk.ds_record(self.apex)]

    def __repr__(self) -> str:
        return f"Zone({self.apex.to_text()}, {len(self._records)} rrsets, signed={self.signed})"
