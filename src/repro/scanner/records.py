"""Compact observation records produced by the scanning framework.

These are the rows of the measurement dataset — memory-lean (slots,
shared values) because a campaign holds hundreds of thousands of them.
All records compare by value (field-wise over their slots) so shard
merges and sequential-vs-parallel equivalence checks can use ``==``.

Each record pickles as its class and its constructor-field tuple, so a
dataset file holds no slot names. The scanner builds each distinct
immutable value once per process (:func:`~repro.scanner.engine.share`),
and pickle's memo then writes a value once however many records hold it.
Shared are every :class:`HttpsRecordView` and, inside the records, the
name strings (observed names, CNAME and HTTPS targets, NS hostnames,
ECH public names) and the address and NS-name tuples. Shared values are
never mutated: a view is not changed after
:func:`~repro.scanner.engine.parse_https_rdata` builds it, and strings
and tuples are immutable. A :class:`DomainObservation` is never shared,
because the scanner fills its follow-up fields in place.
"""

from __future__ import annotations

import datetime
import operator
from typing import Optional, Tuple


class _SlotsEqualityMixin:
    """Field-wise equality for ``__slots__`` record classes.

    Defining ``__eq__`` leaves the classes deliberately unhashable:
    several records are mutated after construction (the scanner fills
    follow-up fields in place), so a value-based hash would be unsafe
    and the old identity hash would contradict value equality. Key
    containers by an explicit field tuple instead.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # _fields(record) is its tuple of slot values (a tuple because
        # every record class has at least two slots).
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __reduce__(self):
        # The class's constructor takes its slots in order. Files from
        # older writers hold (None, {slot: value}) state instead, which
        # pickle's default BUILD still restores.
        return self.__class__, self._fields(self)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)


class HttpsRecordView(_SlotsEqualityMixin):
    """One HTTPS rdata as the scanner parsed it."""

    __slots__ = (
        "priority",
        "target",
        "alpn",
        "port",
        "ipv4hints",
        "ipv6hints",
        "has_ech",
        "ech_digest",
        "ech_public_name",
        "ech_config_id",
        "has_mandatory",
    )

    def __init__(
        self,
        priority: int,
        target: str,
        alpn: Optional[Tuple[str, ...]],
        port: Optional[int],
        ipv4hints: Tuple[str, ...],
        ipv6hints: Tuple[str, ...],
        has_ech: bool,
        ech_digest: Optional[bytes] = None,
        ech_public_name: Optional[str] = None,
        ech_config_id: int = 0,
        has_mandatory: bool = False,
    ):
        self.priority = priority
        self.target = target
        self.alpn = alpn
        self.port = port
        self.ipv4hints = ipv4hints
        self.ipv6hints = ipv6hints
        self.has_ech = has_ech
        self.ech_digest = ech_digest
        self.ech_public_name = ech_public_name
        self.ech_config_id = ech_config_id
        self.has_mandatory = has_mandatory

    @property
    def is_alias_mode(self) -> bool:
        return self.priority == 0

    @property
    def is_service_mode(self) -> bool:
        return self.priority != 0

    @property
    def has_params(self) -> bool:
        return bool(
            self.alpn or self.port is not None or self.ipv4hints or self.ipv6hints
            or self.has_ech or self.has_mandatory
        )

    def __repr__(self) -> str:
        return f"HttpsRecordView({self.priority} {self.target} alpn={self.alpn})"


class DomainObservation(_SlotsEqualityMixin):
    """One (domain, kind, day) scan result."""

    __slots__ = (
        "name",
        "kind",  # "apex" | "www"
        "rcode",
        "https_records",
        "via_cname",
        "rrsig_present",
        "ad_flag",
        "a_addrs",
        "aaaa_addrs",
        "ns_names",
        "soa_serial",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        rcode: int,
        https_records: Tuple[HttpsRecordView, ...] = (),
        via_cname: Optional[str] = None,
        rrsig_present: bool = False,
        ad_flag: bool = False,
        a_addrs: Tuple[str, ...] = (),
        aaaa_addrs: Tuple[str, ...] = (),
        ns_names: Tuple[str, ...] = (),
        soa_serial: Optional[int] = None,
    ):
        self.name = name
        self.kind = kind
        self.rcode = rcode
        self.https_records = https_records
        self.via_cname = via_cname
        self.rrsig_present = rrsig_present
        self.ad_flag = ad_flag
        self.a_addrs = a_addrs
        self.aaaa_addrs = aaaa_addrs
        self.ns_names = ns_names
        self.soa_serial = soa_serial

    @property
    def has_https(self) -> bool:
        return bool(self.https_records)

    @property
    def has_ech(self) -> bool:
        return any(record.has_ech for record in self.https_records)

    def all_ipv4_hints(self) -> Tuple[str, ...]:
        hints = []
        for record in self.https_records:
            hints.extend(record.ipv4hints)
        return tuple(hints)

    def all_ipv6_hints(self) -> Tuple[str, ...]:
        hints = []
        for record in self.https_records:
            hints.extend(record.ipv6hints)
        return tuple(hints)

    def __repr__(self) -> str:
        return f"DomainObservation({self.name}/{self.kind}, https={self.has_https})"


class NameServerObservation(_SlotsEqualityMixin):
    """One (nameserver hostname, day) scan result with WHOIS attribution."""

    __slots__ = ("hostname", "ips", "whois_org")

    def __init__(self, hostname: str, ips: Tuple[str, ...], whois_org: Optional[str]):
        self.hostname = hostname
        self.ips = ips
        self.whois_org = whois_org

    def __repr__(self) -> str:
        return f"NameServerObservation({self.hostname} -> {self.whois_org})"


class ConnectivityProbe(_SlotsEqualityMixin):
    """One §4.3.5 TLS-reachability check on a mismatched domain."""

    __slots__ = ("name", "date", "a_addrs", "hint_addrs", "a_reachable", "hint_reachable")

    def __init__(
        self,
        name: str,
        date: datetime.date,
        a_addrs: Tuple[str, ...],
        hint_addrs: Tuple[str, ...],
        a_reachable: bool,
        hint_reachable: bool,
    ):
        self.name = name
        self.date = date
        self.a_addrs = a_addrs
        self.hint_addrs = hint_addrs
        self.a_reachable = a_reachable
        self.hint_reachable = hint_reachable

    @property
    def any_unreachable(self) -> bool:
        return not (self.a_reachable and self.hint_reachable)


class EchObservation(_SlotsEqualityMixin):
    """One (domain, absolute hour) ECH config sighting."""

    __slots__ = ("name", "hour", "config_digest", "public_name", "config_id")

    def __init__(self, name: str, hour: int, config_digest: bytes, public_name: str, config_id: int):
        self.name = name
        self.hour = hour
        self.config_digest = config_digest
        self.public_name = public_name
        self.config_id = config_id
