"""RRset signing: building RRSIG records (RFC 4034 section 3).

Signature computation is memoised process-wide: the simulated world
re-signs byte-identical RRsets constantly — every ``_zone_cache``
eviction rebuilds and re-signs whole domain zones whose non-HTTPS
records did not change, and hourly ECH rescans do that up to 24 times
per day — so :func:`sign_rrset` consults a bounded LRU keyed by the
RFC 4034 signing input (whose digest covers the key tag, signer name,
and the inception/expiration window) plus the signing key's material.
A hit returns the exact bytes the signer would have produced (the
scheme is deterministic), so memoisation is purely a compute cache:
signatures are byte-identical with the memo on, off, hot, or cold.

Honest economics note: the simulated signature primitive is an
HMAC-SHA256 (see :mod:`repro.dnssec.keys`), so a memo hit — one SHA-256
over the signing input to form the key — costs nearly as much as the
"signature" it avoids; at this substitution level the memo is roughly
cost-neutral. The layer models the architecture of a production
signer, where the avoided operation is an RSA/ECDSA signature that costs
orders of magnitude more than the lookup; swap the primitive and the
memo's hit counters convert directly into saved asymmetric operations.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Optional, Tuple

from ..dnscore.names import Name
from ..dnscore.rdata import RRSIGRdata
from ..dnscore.rrset import RRset
from ..dnscore.wire import WireWriter
from .keys import ZoneKey

# Default validity window (seconds); matches common signer defaults.
DEFAULT_VALIDITY = 14 * 24 * 3600


class SignatureMemo:
    """Bounded LRU of computed signatures.

    Keyed by (SHA-256 of the signing input, key material): the signing
    input already canonically encodes the covered RRset, key tag, signer
    name, and validity window, and the key material disambiguates
    distinct keys that collide on the 16-bit key tag. Values are the
    immutable signature bytes, so sharing them across RRSIG records is
    safe (``corrupt_signature`` mutates a copy on the record, never the
    memoised bytes).
    """

    def __init__(self, capacity: int = 200_000, enabled: bool = True):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple[bytes, bytes], bytes]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def sign(self, key: ZoneKey, data: bytes) -> bytes:
        """``key.sign_blob(data)`` through the memo."""
        if not self.enabled:
            return key.sign_blob(data)
        memo_key = (hashlib.sha256(data).digest(), key.public_key)
        signature = self._entries.get(memo_key)
        if signature is not None:
            self._entries.move_to_end(memo_key)
            self.hits += 1
            return signature
        signature = key.sign_blob(data)
        self.misses += 1
        self._entries[memo_key] = signature
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return signature


# Process-global memo shared by every zone/world in the process (worlds
# built from the same config sign identical inputs, so sharing maximises
# reuse across the worlds one process builds).
_SIGNATURE_MEMO = SignatureMemo()


def signature_memo() -> SignatureMemo:
    """The process-global signature memo (stats, clear, enable/disable)."""
    return _SIGNATURE_MEMO


def signing_input(rrset: RRset, rrsig_template: RRSIGRdata) -> bytes:
    """RFC 4034 section 3.1.8.1: RRSIG rdata (minus signature) followed by
    the canonical form of the RRset."""
    writer = WireWriter(enable_compression=False)
    writer.write_u16(rrsig_template.type_covered)
    writer.write_u8(rrsig_template.algorithm)
    writer.write_u8(rrsig_template.labels)
    writer.write_u32(rrsig_template.original_ttl)
    writer.write_u32(rrsig_template.expiration)
    writer.write_u32(rrsig_template.inception)
    writer.write_u16(rrsig_template.key_tag)
    writer.write_bytes(rrsig_template.signer.to_wire().lower())
    owner_wire = rrset.name.to_wire().lower()
    for rdata in rrset.canonical_rdata_order():
        writer.write_bytes(owner_wire)
        writer.write_u16(rrset.rdtype)
        writer.write_u16(rrset.rdclass)
        writer.write_u32(rrsig_template.original_ttl)
        rdata_wire = rdata.wire_bytes()
        writer.write_u16(len(rdata_wire))
        writer.write_bytes(rdata_wire)
    return writer.getvalue()


def sign_rrset(
    rrset: RRset,
    signer: Name,
    key: ZoneKey,
    inception: int,
    expiration: Optional[int] = None,
    memo: Optional[SignatureMemo] = None,
) -> RRSIGRdata:
    """Produce the RRSIG covering *rrset*, signed by *key* of zone *signer*.

    Signature bytes come through *memo* (the process-global
    :func:`signature_memo` by default): re-signing an unchanged RRset
    with the same key and validity window is a dict hit instead of a
    fresh signature computation, with byte-identical output."""
    if expiration is None:
        expiration = inception + DEFAULT_VALIDITY
    template = RRSIGRdata(
        type_covered=rrset.rdtype,
        algorithm=key.dnskey.algorithm,
        labels=rrset.name.split_depth(),
        original_ttl=rrset.ttl,
        expiration=expiration,
        inception=inception,
        key_tag=key.key_tag,
        signer=signer,
        signature=b"",
    )
    if memo is None:
        memo = _SIGNATURE_MEMO
    template.signature = memo.sign(key, signing_input(rrset, template))
    template.invalidate_wire_cache()
    return template


def rrsig_is_timely(rrsig: RRSIGRdata, now: int) -> bool:
    """Serial-number-free timeliness check (we keep timestamps monotonic
    within the simulated period, so plain comparison is safe)."""
    return rrsig.inception <= now <= rrsig.expiration
