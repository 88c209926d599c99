"""Chaos scenario engine: declarative, deterministic fault schedules.

The scanner measures a world that normally only fails by accident. This
module turns every failure mode the paper observes in the wild —
server outages, lame delegations, packet loss, DNSSEC breakage, ECH key
desync, stale HTTPS hints — into a *scheduled, reproducible* workload:
a :class:`FaultSchedule` rides on :class:`~repro.study.StudySpec` (and
therefore on the cache tag), is compiled by
:meth:`~repro.simnet.world.World.install_faults` into clock-driven
network and zone hooks, and leaves a queryable ledger that
:mod:`repro.analysis.attribution` joins against the observed dataset.

Scenario DSL
------------

A scenario is a :class:`FaultSchedule`: a name plus an ordered tuple of
frozen :class:`FaultSpec` entries. Each spec has:

``kind``
    One of the ``KIND_*`` constants below.
``start`` / ``end``
    Inclusive calendar dates bounding the fault window. ``None`` leaves
    that side open. Windows are **date-granular** on purpose: zone and
    DS caches are keyed per day, so a fault that flipped mid-day would
    make observed state depend on scan order.
``domain``
    Apex domain the fault targets (required for zone-level kinds,
    optional scope for transport kinds). Subdomains are covered.
``ip`` / ``provider`` / ``port``
    Transport scope: an explicit server IP, or a provider key from
    :data:`~repro.simnet.providers.PROVIDERS` (its authoritative server
    IP). ``port`` narrows an outage to one service (e.g. 53 kills DNS
    while 443 stays up) via the per-port reachability added to
    :class:`~repro.resolver.network.Network`.
``rate``
    For ``packet_loss``: per-delivery-attempt drop probability in
    (0, 1]. ``timeout`` is the deterministic profile (every matching
    attempt times out; rate is ignored).
``salt``
    Extra entropy namespace so two otherwise-identical loss specs
    produce independent drop patterns.

Kinds and their compiled effect:

``server_outage``
    While active, the targeted IP (or ``(ip, port)`` pair) is
    unreachable; applied/lifted by the world clock
    (:meth:`FaultInjector.on_time`) on every ``set_time``.
``lame_delegation``
    Authoritative servers answer REFUSED for every name under
    ``domain`` (the parent keeps delegating — the child stops serving),
    the classic lame delegation the resolver must route around.
``packet_loss`` / ``timeout``
    Matching deliveries raise
    :class:`~repro.resolver.network.QueryTimeout`; the resolver retries
    with deterministic backoff (see ``resolver/recursive.py``).
``dnssec_expired_rrsig``
    The domain's zone is signed with an already-expired validity
    window: validating resolvers go BOGUS → SERVFAIL.
``dnssec_missing_ds``
    The parent TLD stops serving the domain's DS (the §4.5.1 "signed
    but never uploaded DS" failure): the chain degrades to INSECURE.
``ech_key_desync``
    The domain's zone publishes the *previous* ECH key generation's
    config while the client-facing server has rotated on — the stale
    ECHConfig mismatch behind Table 7's failover rows. (Visible only
    once the first rotation has happened.)
``stale_https_hint``
    The HTTPS record's ipv4/ipv6 hints point at a retired address
    generation that no longer serves TLS, injecting the §4.3.5
    hint/A-record mismatch.

Determinism contract (DET01)
----------------------------

Every stochastic choice is a pure function through
:mod:`repro.simnet.determinism` of (config seed, spec salt, query
coordinates, delivery attempt); nothing reads wall clocks or ambient
randomness. Same seed + same schedule ⇒ value-equal datasets across
serial, sharded, and continuous execution — drop decisions key on the
delivery *attempt* the resolver passes to
:meth:`~repro.resolver.network.Network.send_dns_query`, so a retry is
a fresh draw while a replayed query loses exactly what it lost before.

Worlds are never parked for reuse with faults armed:
:meth:`~repro.simnet.world.World.reset` — called on every
:func:`~repro.simnet.snapshot.checkin_world` — clears the injector, so
idle worlds stay scenario-free and each run re-installs its own
schedule after checkout.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
from typing import Dict, List, Optional, Tuple

from ..dnscore import rdtypes
from ..dnscore.message import Message
from ..dnscore.names import Name
from ..resolver.network import DNS_PORT, QueryTimeout
from . import determinism, domains, ipspace, timeline
from .cohorts import DomainProfile
from .config import SimConfig
from .providers import PROVIDERS

KIND_SERVER_OUTAGE = "server_outage"
KIND_LAME_DELEGATION = "lame_delegation"
KIND_PACKET_LOSS = "packet_loss"
KIND_TIMEOUT = "timeout"
KIND_DNSSEC_EXPIRED_RRSIG = "dnssec_expired_rrsig"
KIND_DNSSEC_MISSING_DS = "dnssec_missing_ds"
KIND_ECH_KEY_DESYNC = "ech_key_desync"
KIND_STALE_HTTPS_HINT = "stale_https_hint"

KINDS = (
    KIND_SERVER_OUTAGE,
    KIND_LAME_DELEGATION,
    KIND_PACKET_LOSS,
    KIND_TIMEOUT,
    KIND_DNSSEC_EXPIRED_RRSIG,
    KIND_DNSSEC_MISSING_DS,
    KIND_ECH_KEY_DESYNC,
    KIND_STALE_HTTPS_HINT,
)

# Kinds whose compiled effect lives in the served zone contents.
_ZONE_KINDS = (
    KIND_DNSSEC_EXPIRED_RRSIG,
    KIND_DNSSEC_MISSING_DS,
    KIND_ECH_KEY_DESYNC,
    KIND_STALE_HTTPS_HINT,
)

# Retired address generations for stale hints: generations 0/1 are the
# live A/mismatched-hint pair and 7 is the self-hosted NS host, so 2
# (anycast) and 3 (origin) are guaranteed unused by any live service.
_STALE_ANYCAST_GENERATION = 2
_STALE_ORIGIN_GENERATION = 3


def _parse_date(value: object) -> Optional[datetime.date]:
    if value is None or isinstance(value, datetime.date):
        return value
    return datetime.date.fromisoformat(str(value))


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault. See the module docstring for field semantics."""

    kind: str
    start: Optional[datetime.date] = None
    end: Optional[datetime.date] = None
    domain: Optional[str] = None
    ip: Optional[str] = None
    provider: Optional[str] = None
    port: Optional[int] = None
    rate: float = 1.0
    salt: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (one of {KINDS})")
        object.__setattr__(self, "start", _parse_date(self.start))
        object.__setattr__(self, "end", _parse_date(self.end))
        if self.start is not None and self.end is not None and self.end < self.start:
            raise ValueError(f"fault window ends before it starts: {self}")
        if self.kind == KIND_SERVER_OUTAGE:
            if (self.ip is None) == (self.provider is None):
                raise ValueError("server_outage needs exactly one of ip/provider")
            if self.provider is not None and self.provider not in PROVIDERS:
                raise ValueError(f"unknown provider {self.provider!r}")
        elif self.kind in (KIND_PACKET_LOSS, KIND_TIMEOUT):
            if self.domain is None and self.ip is None:
                raise ValueError(f"{self.kind} needs a domain and/or ip scope")
            if not 0.0 < self.rate <= 1.0:
                raise ValueError("rate must be in (0, 1]")
        else:
            if self.domain is None:
                raise ValueError(f"{self.kind} needs a target domain")

    def active(self, date: datetime.date) -> bool:
        if self.start is not None and date < self.start:
            return False
        if self.end is not None and date > self.end:
            return False
        return True

    def overlaps(self, start: datetime.date, end: datetime.date) -> bool:
        """Does the fault window intersect the closed range [start, end]?"""
        if self.start is not None and self.start > end:
            return False
        if self.end is not None and self.end < start:
            return False
        return True

    def canonical_tag(self) -> str:
        """Stable primitive encoding for cache-tag membership."""
        return (
            f"{self.kind}[{self.start or ''}..{self.end or ''}]"
            f"(domain={self.domain or ''},ip={self.ip or ''},"
            f"provider={self.provider or ''},port={self.port if self.port is not None else ''},"
            f"rate={self.rate!r},salt={self.salt})"
        )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind}
        if self.start is not None:
            out["start"] = self.start.isoformat()
        if self.end is not None:
            out["end"] = self.end.isoformat()
        for field in ("domain", "ip", "provider", "port", "salt"):
            value = getattr(self, field)
            if value not in (None, ""):
                out[field] = value
        if self.rate != 1.0:
            out["rate"] = self.rate
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSpec":
        allowed = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown FaultSpec fields: {sorted(unknown)}")
        return cls(**data)  # type: ignore[arg-type]


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """A named, ordered set of :class:`FaultSpec` entries."""

    name: str = "scenario"
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    def active_specs(self, date: datetime.date) -> List[FaultSpec]:
        return [spec for spec in self.specs if spec.active(date)]

    def canonical_tag(self) -> str:
        body = ";".join(spec.canonical_tag() for spec in self.specs)
        return f"{self.name}{{{body}}}"

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "faults": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSchedule":
        if not isinstance(data, dict):
            raise ValueError("scenario must be a JSON object")
        unknown = set(data) - {"name", "faults"}
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        specs = tuple(FaultSpec.from_dict(entry) for entry in data.get("faults", ()))
        return cls(name=str(data.get("name", "scenario")), specs=specs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultSchedule":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


@dataclasses.dataclass(frozen=True)
class ZoneOverlay:
    """Per-(profile, date) zone mutations compiled from active faults;
    consumed duck-typed by :func:`repro.simnet.domains.build_zone` (which
    must not import this module)."""

    expired_rrsig: bool = False
    hint_v4: Optional[str] = None
    hint_v6: Optional[str] = None


def stale_hint_addresses(
    profile: DomainProfile, config: SimConfig, date: datetime.date
) -> Tuple[str, str]:
    """Hint addresses from a retired generation: syntactically plausible
    for the domain's provider, served by nothing (so
    ``World.tls_reachable`` is False for them)."""
    seed = config.seed
    if profile.is_cloudflare and domains.proxied_active(profile, config, date):
        alloc4 = (
            ipspace.cfns_anycast_v4
            if profile.provider_key == "cfns"
            else ipspace.cloudflare_anycast_v4
        )
        return (
            alloc4(seed, profile.name, _STALE_ANYCAST_GENERATION),
            ipspace.cloudflare_anycast_v6(seed, profile.name, _STALE_ANYCAST_GENERATION),
        )
    return (
        ipspace.origin_v4(seed, profile.name, _STALE_ORIGIN_GENERATION),
        ipspace.origin_v6(seed, profile.name, _STALE_ORIGIN_GENERATION),
    )


def _domain_name(spec: FaultSpec) -> Optional[Name]:
    if spec.domain is None:
        return None
    text = spec.domain if spec.domain.endswith(".") else spec.domain + "."
    return Name.from_text(text)


def spec_affects(
    spec: FaultSpec, profile: DomainProfile, config: SimConfig, date: datetime.date
) -> bool:
    """Could *spec*, if active on *date*, perturb observations of this
    domain? The attribution ledger's membership predicate."""
    if not spec.active(date):
        return False
    target = _domain_name(spec)
    if target is not None:
        return profile.apex == target or profile.apex.is_subdomain_of(target)
    keys = domains.current_provider_keys(profile, config, date)
    if spec.provider is not None:
        return spec.provider in keys
    if spec.ip is not None:
        for key in keys:
            if key == "selfhosted":
                ns_ip = ipspace.origin_v4(config.seed, profile.name, 7)
                if spec.ip == ns_ip:
                    return True
            elif PROVIDERS[key].server_ip == spec.ip:
                return True
        if spec.ip in domains.serving_addresses(profile, config, date):
            return True
    return False


class FaultInjector:
    """A :class:`FaultSchedule` compiled against one world.

    Installed by :meth:`World.install_faults`; acts as the network's
    ``dns_fault_hook`` (transport kinds), drives scheduled outages from
    :meth:`on_time`, and answers the world's zone-construction queries
    (:meth:`zone_overlay`, :meth:`ech_wire_for`, :meth:`ds_suppressed`)
    for the zone kinds.
    """

    def __init__(self, world, schedule: FaultSchedule):
        self.world = world
        self.schedule = schedule
        self._domain_names: Dict[int, Optional[Name]] = {
            index: _domain_name(spec) for index, spec in enumerate(schedule.specs)
        }
        self._applied_outages: set = set()
        self._infra_ips = frozenset(
            {
                ipspace.ROOT_SERVER_IP,
                ipspace.TLD_SERVER_IP,
                ipspace.GOOGLE_RESOLVER_IP,
                ipspace.CLOUDFLARE_RESOLVER_IP,
            }
        )

    # -- lifecycle ---------------------------------------------------------

    def arm(self) -> None:
        self.world.network.dns_fault_hook = self
        self.on_time(self.world.current_date, self.world.current_hour)

    def disarm(self) -> None:
        if self.world.network.dns_fault_hook is self:
            self.world.network.dns_fault_hook = None
        for ip, port in sorted(self._applied_outages, key=str):
            self.world.network.set_unreachable(ip, False, port=port)
        self._applied_outages.clear()

    # -- clock hook --------------------------------------------------------

    def on_time(self, date: datetime.date, hour: float) -> None:
        """Synchronize scheduled outages with the world clock."""
        desired = set()
        for spec in self.schedule.specs:
            if spec.kind != KIND_SERVER_OUTAGE or not spec.active(date):
                continue
            for ip in self._outage_ips(spec):
                desired.add((ip, spec.port))
        for ip, port in sorted(self._applied_outages - desired, key=str):
            self.world.network.set_unreachable(ip, False, port=port)
        for ip, port in sorted(desired - self._applied_outages, key=str):
            self.world.network.set_unreachable(ip, True, port=port)
        self._applied_outages = desired

    @staticmethod
    def _outage_ips(spec: FaultSpec) -> Tuple[str, ...]:
        if spec.ip is not None:
            return (spec.ip,)
        provider = PROVIDERS.get(spec.provider)
        if provider is not None and provider.server_ip:
            return (provider.server_ip,)
        return ()

    # -- transport hook (Network.dns_fault_hook) ---------------------------

    def __call__(self, ip: str, query: Message, attempt: int):
        if not query.questions:
            return None
        question = query.questions[0]
        qname = question.name
        date = self.world.current_date
        day = timeline.day_index(date)
        seed = self.world.config.seed
        for index, spec in enumerate(self.schedule.specs):
            if not spec.active(date):
                continue
            if spec.kind == KIND_LAME_DELEGATION:
                if ip in self._infra_ips:
                    continue  # parent keeps delegating; only the child is lame
                target = self._domain_names[index]
                if not qname.is_subdomain_of(target):
                    continue
                reply = query.make_response()
                reply.rcode = rdtypes.REFUSED
                return reply
            if spec.kind in (KIND_PACKET_LOSS, KIND_TIMEOUT):
                if spec.ip is not None:
                    if ip != spec.ip:
                        continue
                elif ip in self._infra_ips:
                    continue
                target = self._domain_names[index]
                if target is not None and not qname.is_subdomain_of(target):
                    continue
                if spec.kind == KIND_TIMEOUT or determinism.unit_float(
                    seed,
                    "fault-drop",
                    spec.salt,
                    ip,
                    qname.to_text().lower(),
                    question.rdtype,
                    day,
                    attempt,
                ) < spec.rate:
                    return QueryTimeout(
                        f"{spec.kind} fault dropped query to {ip} "
                        f"for {qname.to_text()} (attempt {attempt})"
                    )
        return None

    # -- zone hooks --------------------------------------------------------

    def _zone_specs(self, profile: DomainProfile, date: datetime.date):
        for index, spec in enumerate(self.schedule.specs):
            if spec.kind not in _ZONE_KINDS or not spec.active(date):
                continue
            target = self._domain_names[index]
            if profile.apex == target or profile.apex.is_subdomain_of(target):
                yield spec

    def zone_overlay(
        self, profile: DomainProfile, date: datetime.date
    ) -> Optional[ZoneOverlay]:
        expired = False
        hint_v4 = hint_v6 = None
        for spec in self._zone_specs(profile, date):
            if spec.kind == KIND_DNSSEC_EXPIRED_RRSIG:
                expired = True
            elif spec.kind == KIND_STALE_HTTPS_HINT:
                hint_v4, hint_v6 = stale_hint_addresses(profile, self.world.config, date)
        if expired or hint_v4 is not None:
            return ZoneOverlay(expired_rrsig=expired, hint_v4=hint_v4, hint_v6=hint_v6)
        return None

    def ech_wire_for(
        self,
        profile: DomainProfile,
        date: datetime.date,
        wire: Optional[bytes],
        absolute_hour: int,
    ) -> Optional[bytes]:
        if wire is None:
            return None
        for spec in self._zone_specs(profile, date):
            if spec.kind == KIND_ECH_KEY_DESYNC:
                stale_hour = max(0, absolute_hour - self.world.config.ech_rotation_hours)
                return self.world.ech_manager.published_wire(stale_hour)
        return wire

    def ds_suppressed(self, child: Name, date: datetime.date) -> bool:
        for index, spec in enumerate(self.schedule.specs):
            if spec.kind != KIND_DNSSEC_MISSING_DS or not spec.active(date):
                continue
            target = self._domain_names[index]
            if child == target or child.is_subdomain_of(target):
                return True
        return False
