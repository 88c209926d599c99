"""DNSSEC chain validation (RFC 4035 section 5).

The validator walks from a trust anchor down the delegation chain to the
queried name, checking at each zone cut that

1. the parent publishes a DS RRset for the child (absence ⇒ *insecure*
   delegation — the dominant failure mode the paper finds for HTTPS RR,
   Table 9);
2. the DS digest matches a KSK in the child's DNSKEY RRset;
3. the child's DNSKEY RRset is signed by that KSK;
4. the final RRset is signed by a zone key of its zone.

Any cryptographic or timeliness failure yields *bogus*; a clean chain
yields *secure* and sets the AD bit in resolver responses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

from ..dnscore import rdtypes
from ..dnscore.names import Name
from ..dnscore.rdata import DNSKEYRdata, DSRdata, RRSIGRdata
from ..dnscore.rrset import RRset
from .keys import ds_matches_dnskey, verify_blob
from .signing import rrsig_is_timely, signing_input


class ValidationState(enum.Enum):
    SECURE = "secure"
    INSECURE = "insecure"
    BOGUS = "bogus"
    INDETERMINATE = "indeterminate"


@dataclass
class ValidationResult:
    state: ValidationState
    reason: str = ""
    chain: List[str] = field(default_factory=list)

    @property
    def secure(self) -> bool:
        return self.state is ValidationState.SECURE


# A memoised zone-key verdict: (keys, state, reason); keys is None
# unless the zone's DNSKEY RRset validated.
_Verdict = Tuple[Optional[List[DNSKEYRdata]], ValidationState, str]


class RecordSource(Protocol):
    """What the validator needs from the DNS: authoritative RRsets with
    their signatures, and the zone-cut structure."""

    def fetch_with_sigs(
        self, name: Name, rdtype: int
    ) -> Tuple[Optional[RRset], List[RRSIGRdata]]:
        """Authoritative RRset for (name, type) plus covering RRSIGs."""
        ...

    def zone_apex_of(self, name: Name) -> Optional[Name]:
        """Apex of the zone authoritative for *name*."""
        ...

    def parent_zone_of(self, apex: Name) -> Optional[Name]:
        """Apex of the parent zone of the zone at *apex* (None at root)."""
        ...


def _verify_rrset_with_keys(
    rrset: RRset,
    rrsigs: List[RRSIGRdata],
    dnskeys: List[DNSKEYRdata],
    now: int,
    require_sep: bool = False,
) -> Tuple[bool, str]:
    """True when any provided RRSIG validates against any provided DNSKEY."""
    if not rrsigs:
        return False, "no covering RRSIG"
    reasons = []
    for rrsig in rrsigs:
        if rrsig.type_covered != rrset.rdtype:
            reasons.append("RRSIG covers wrong type")
            continue
        if not rrsig_is_timely(rrsig, now):
            reasons.append("RRSIG outside validity window")
            continue
        for dnskey in dnskeys:
            if dnskey.key_tag() != rrsig.key_tag:
                continue
            if require_sep and not dnskey.is_ksk():
                continue
            data = signing_input(rrset, rrsig)
            if verify_blob(dnskey, data, rrsig.signature):
                return True, "ok"
            reasons.append("signature mismatch")
    return False, "; ".join(reasons) if reasons else "no matching DNSKEY for RRSIG key tag"


class ChainValidator:
    """Validates names bottom-up against a trust anchor (the root by
    default)."""

    def __init__(self, source: RecordSource, trust_anchor: Name = None):
        self.source = source
        self.trust_anchor = trust_anchor if trust_anchor is not None else Name.root()
        # Zone-key verdicts (keys, state, reason) of one simulated hour,
        # keyed (apex, parent_apex): resolvers validate the same root/TLD
        # chain on every answer. A verdict is pure for a given hour only
        # under a fixed fault schedule and clock history, so the owner
        # calls flush() when either changes; a new hour replaces the
        # dict (the clock only moves on between flushes).
        self._memo_hour: Optional[int] = None
        self._zone_key_cache: Dict[Tuple[Name, Optional[Name]], _Verdict] = {}

    def flush(self) -> None:
        """Forget every memoised zone-key verdict."""
        self._memo_hour = None
        self._zone_key_cache = {}

    def _zone_chain(self, apex: Name) -> Optional[List[Name]]:
        """Apexes from the trust anchor down to *apex* inclusive."""
        chain = [apex]
        current = apex
        while current != self.trust_anchor:
            parent = self.source.parent_zone_of(current)
            if parent is None:
                return None
            chain.append(parent)
            current = parent
            if len(chain) > 64:
                return None
        chain.reverse()
        return chain

    def _validated_zone_keys(
        self, apex: Name, parent_apex: Optional[Name], now: int
    ) -> _Verdict:
        """Validate the DNSKEY RRset of the zone at *apex*.

        For non-anchor zones this requires a matching, validated DS in the
        parent. Returns (keys, state, reason); keys is None unless secure.
        """
        hour = now // 3600
        if hour != self._memo_hour:
            self._memo_hour = hour
            self._zone_key_cache = {}
        key = (apex, parent_apex)
        verdict = self._zone_key_cache.get(key)
        if verdict is None:
            verdict = self._validated_zone_keys_uncached(apex, parent_apex, now)
            self._zone_key_cache[key] = verdict
        return verdict

    def _validated_zone_keys_uncached(
        self, apex: Name, parent_apex: Optional[Name], now: int
    ) -> _Verdict:
        dnskey_rrset, dnskey_sigs = self.source.fetch_with_sigs(apex, rdtypes.DNSKEY)
        if dnskey_rrset is None or not len(dnskey_rrset):
            return None, ValidationState.INSECURE, f"zone {apex} publishes no DNSKEY"
        dnskeys = [r for r in dnskey_rrset if isinstance(r, DNSKEYRdata)]

        if parent_apex is not None:
            ds_rrset, _ = self.source.fetch_with_sigs(apex, rdtypes.DS)
            if ds_rrset is None or not len(ds_rrset):
                return (
                    None,
                    ValidationState.INSECURE,
                    f"no DS for {apex} in parent zone {parent_apex}",
                )
            matched = False
            for ds in ds_rrset:
                if not isinstance(ds, DSRdata):
                    continue
                for dnskey in dnskeys:
                    if dnskey.is_ksk() and ds_matches_dnskey(apex, ds, dnskey):
                        matched = True
                        break
                if matched:
                    break
            if not matched:
                return None, ValidationState.BOGUS, f"DS for {apex} matches no KSK"

        ok, reason = _verify_rrset_with_keys(
            dnskey_rrset, dnskey_sigs, dnskeys, now, require_sep=True
        )
        if not ok:
            # Fall back to ZSK-signed DNSKEY sets (some signers do this).
            ok, reason = _verify_rrset_with_keys(dnskey_rrset, dnskey_sigs, dnskeys, now)
        if not ok:
            return (
                None,
                ValidationState.BOGUS,
                f"DNSKEY RRset of {apex} not validly signed: {reason}",
            )
        return dnskeys, ValidationState.SECURE, "ok"

    def validate(self, name: Name, rdtype: int, now: int) -> ValidationResult:
        """Validate the RRset at (name, rdtype) through the full chain."""
        apex = self.source.zone_apex_of(name)
        if apex is None:
            return ValidationResult(ValidationState.INDETERMINATE, f"no zone for {name}")
        chain = self._zone_chain(apex)
        if chain is None:
            return ValidationResult(
                ValidationState.INDETERMINATE, f"{apex} does not chain to trust anchor"
            )
        visited = []
        keys_by_apex = {}
        for i, zone_apex in enumerate(chain):
            parent = chain[i - 1] if i > 0 else None
            keys, state, reason = self._validated_zone_keys(zone_apex, parent, now)
            visited.append(zone_apex.to_text())
            if keys is None:
                return ValidationResult(state, reason, visited)
            keys_by_apex[zone_apex] = keys

        rrset, rrsigs = self.source.fetch_with_sigs(name, rdtype)
        if rrset is None:
            return ValidationResult(
                ValidationState.INDETERMINATE, f"no RRset at {name}/{rdtypes.type_to_text(rdtype)}",
                visited,
            )
        ok, reason = _verify_rrset_with_keys(rrset, rrsigs, keys_by_apex[apex], now)
        if not ok:
            # A signed zone must sign all authoritative data; a missing or
            # broken RRSIG under a secure chain is bogus (RFC 4035 5.3).
            return ValidationResult(
                ValidationState.BOGUS, f"RRset not validly signed: {reason}", visited
            )
        return ValidationResult(ValidationState.SECURE, "ok", visited)
