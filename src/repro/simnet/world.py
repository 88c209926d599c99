"""The simulated Internet.

Wires the domain population, provider catalogue, DNS infrastructure
(root → TLD → authoritative), public resolvers, ECH client-facing
server, and web-server reachability into one coherent world that the
scanner and the browser testbed interrogate exactly like the paper's
framework interrogated the real Internet.

Time moves forward only: call :meth:`World.set_time` with increasing
(date, hour); zone contents, ECH keys, Tranco membership, and signatures
all follow the clock.

**Answer fast path.** The world owns the shared
:class:`~repro.resolver.authoritative.AnswerCache` (tier 1: rendered
answers; tier 3: decoded templates — see
:mod:`repro.resolver.authoritative`) and the tier-2 zone-body store
(:meth:`World.zone_of`): when a domain's
:func:`~repro.simnet.domains.zone_body_fingerprint` — the exact
date-dependent inputs of its zone — is unchanged since the zone was
last built, the built body is reused and only the SOA serial is rolled
(plus a re-sign on date change) instead of rebuilding from scratch.
When only inputs of the HTTPS RRsets changed (an hourly ECH key
rotation, an ALPN date boundary), the body is patched: new HTTPS
RRsets are swapped in and, within a day, only they are re-signed.
A world is built armed: zone-body reuse in every mode, tiers 1 and 3
in wire mode only. :meth:`World.set_answer_cache` ``(False)`` disarms
it for a cache-off reference run; datasets and per-server query logs
are the same either way.
Rendered answers are held weakly per zone object, so only the zones
this world keeps (root, TLDs, infra, ``_zone_cache``, ``_zone_bodies``)
keep answers resident. They are scoped to the fault schedule they were
rendered under: ``install_faults``/``clear_faults`` re-scope the answer
cache alongside their ``_zone_cache`` flush — codelint rule ``INV01``
enforces the pairing. :meth:`World.reset` keeps zone bodies, rendered
answers and query templates, so a pooled world resumes with its fast
path warm.
"""

from __future__ import annotations

import datetime
from typing import Dict, List, Optional, Tuple

from ..gcutils import paused_gc

from ..dnscore import rdtypes
from ..dnscore.names import Name
from ..dnscore.rdata import ARdata, DSRdata, NSRdata, RRSIGRdata
from ..dnscore.rrset import RRset
from ..dnssec.keys import ZoneKeySet
from ..dnssec.signing import sign_rrset
from ..dnssec.validation import ChainValidator
from ..ech.keys import ECHKeyManager
from ..resolver.authoritative import AnswerCache, AuthoritativeServer
from ..resolver.clock import SimClock
from ..resolver.network import Network
from ..resolver.recursive import RecursiveResolver
from ..resolver.stub import ResolverFrontend, StubResolver
from ..zones.zone import Zone
from . import domains, faults, ipspace, timeline
from .cohorts import DomainProfile, make_profile
from .config import SimConfig
from .providers import PROVIDERS, ProviderSpec

_LONG_VALIDITY = 420 * 86400  # root/TLD signatures cover the whole study
_NS_RRSETS_MAX = 4  # delegation NS RRsets each TLD zone keeps (DynamicTldZone)

ECH_PUBLIC_NAME = "cloudflare-ech.com"


class _ProviderTree:
    """Duck-typed ZoneTree serving a provider's infra zone plus whichever
    domain zones are assigned to that provider *today*."""

    def __init__(self, world: "World", provider: ProviderSpec):
        self.world = world
        self.provider = provider
        self.infra_zone: Optional[Zone] = None

    def zone_for(self, name: Name) -> Optional[Zone]:
        profile = self.world.profile_of(name)
        if profile is not None:
            keys = domains.current_provider_keys(
                profile, self.world.config, self.world.current_date
            )
            if self.provider.key in keys:
                return self.world.zone_of(profile)
            # Not served here (any more) — fall through to infra check.
        if self.infra_zone is not None and name.is_subdomain_of(self.infra_zone.apex):
            return self.infra_zone
        return None


class DynamicTldZone(Zone):
    """A TLD zone whose delegations/DS/glue are synthesized on demand
    from the world's domain registry."""

    def __init__(self, world: "World", apex: Name):
        super().__init__(apex, default_ttl=300)
        self.world = world
        # Synthesized DS RRsets and their RRSIGs for one simulated day
        # (signatures carry a per-day inception); a new day replaces them.
        self._ds_day: Optional[int] = None
        self._ds_cache: Dict[Name, Tuple[Optional[RRset], List[RRSIGRdata]]] = {}
        # Referral RRsets are built once and handed out to every referral
        # (RRsets and rdata are never mutated once built): each glue A
        # RRset per (name, address) for the life of the world (the
        # registry fixed at build bounds them), and a child's NS RRset
        # per delegation facts (_delegation_facts) in a memo of
        # _NS_RRSETS_MAX entries, emptied when full. A child's referrals
        # come in bursts during its scan, so the bound keeps most hits
        # without holding an RRset for each of a day's thousand children.
        self._ns_rrsets: Dict[tuple, Optional[RRset]] = {}
        self._glue_rrsets: Dict[Tuple[Name, str], RRset] = {}

    # -- answer-cache freshness ----------------------------------------------
    #
    # Unlike a plain zone, delegation/DS/glue answers here are synthesized
    # from world state that moves with the simulation date (provider
    # switches, DNSSEC adoption windows, per-date fault activation), so a
    # cached rendering carries a guard instead of relying on `version`
    # alone. DS answers re-sign with a per-day inception and are scoped
    # to their day outright; everything else pins the delegation facts it
    # was rendered from and revalidates them on the first hit of each new
    # day (a cheap token compare against a full synthesis + wire pass).

    def answer_guard(self, name: Name, rdtype: int):
        day = timeline.day_index(self.world.current_date)
        if rdtype == rdtypes.DS:
            return ["day", day]
        return ["tld", day, self._referral_token(name)]

    def validate_guard(self, guard, name: Name, rdtype: int) -> bool:
        day = timeline.day_index(self.world.current_date)
        if guard[1] == day:
            return True
        if guard[0] == "day":
            return False
        if guard[2] == self._referral_token(name):
            guard[1] = day  # facts unchanged: free hits for the rest of today
            return True
        return False

    def _referral_token(self, name: Name):
        """The delegation facts a non-DS answer for *name* depends on."""
        child = self._child_apex(name)
        if child is None:
            return None
        return self._delegation_facts(child)

    # -- dynamic lookups -----------------------------------------------------

    def _child_apex(self, name: Name) -> Optional[Name]:
        profile = self.world.profile_of(name)
        if profile is not None and profile.apex.is_subdomain_of(self.apex) and profile.apex != self.apex:
            return profile.apex
        infra = self.world.infra_apex_of(name)
        if infra is not None and infra.is_subdomain_of(self.apex) and infra != self.apex:
            return infra
        return None

    def is_delegation(self, name: Name) -> Optional[Name]:
        if name == self.apex:
            return None
        child = self._child_apex(name)
        if child is None:
            return None
        # A domain in its no-NS phase has no delegation at all.
        if self.world.profile_of(child) is not None:
            if self._ns_rrset(child) is None:
                return None
        return child

    def _delegation_facts(self, child: Name) -> tuple:
        """What *child*'s delegation is built from today: a domain's
        provider keys, or nothing for an infra zone (its provider is
        fixed)."""
        profile = self.world.profile_of(child)
        if profile is None:
            return (child, None)
        keys = domains.current_provider_keys(profile, self.world.config, self.world.current_date)
        return (child, tuple(keys))

    def _ns_rrset(self, child: Name) -> Optional[RRset]:
        """*child*'s delegation NS RRset today (None without name servers)."""
        facts = self._delegation_facts(child)
        try:
            return self._ns_rrsets[facts]
        except KeyError:
            pass
        keys = facts[1]
        names: List[Name] = []
        if keys is None:
            provider = self.world.infra_provider_of(child)
            if provider is not None:
                names = provider.all_ns_hostnames()[:2]
        else:
            profile = self.world.profile_of(child)
            for key in keys:
                if key == "selfhosted":
                    names.extend([child.prepend("ns1"), child.prepend("ns2")])
                else:
                    names.extend(PROVIDERS[key].ns_hostnames(self.world.config.seed, profile.name))
        rrset = None
        if names:
            rrset = RRset(child, rdtypes.NS, self.default_ttl, [NSRdata(n) for n in names])
        if len(self._ns_rrsets) >= _NS_RRSETS_MAX:
            self._ns_rrsets.clear()
        self._ns_rrsets[facts] = rrset
        return rrset

    def get_rrset(self, name: Name, rdtype: int) -> Optional[RRset]:
        static = super().get_rrset(name, rdtype)
        if static is not None:
            return static
        if rdtype == rdtypes.NS:
            child = self._child_apex(name)
            if child == name:
                return self._ns_rrset(child)
            return None
        if rdtype == rdtypes.DS:
            rrset, _sigs = self.ds_with_sigs(name)
            return rrset
        if rdtype == rdtypes.A:
            ip = self.world.glue_ip_of(name)
            if ip is not None:
                rrset = self._glue_rrsets.get((name, ip))
                if rrset is None:
                    rrset = RRset(name, rdtypes.A, self.default_ttl, [ARdata(ip)])
                    self._glue_rrsets[(name, ip)] = rrset
                return rrset
        return None

    def get_rrsigs(self, name: Name, rdtype: int) -> List[RRSIGRdata]:
        static = super().get_rrsigs(name, rdtype)
        if static:
            return static
        if rdtype == rdtypes.DS:
            _rrset, sigs = self.ds_with_sigs(name)
            return sigs
        return []

    def ds_with_sigs(self, child: Name) -> Tuple[Optional[RRset], List[RRSIGRdata]]:
        """Synthesize (and sign) the DS RRset for a child domain, if the
        domain is signed AND actually uploaded its DS (the step §4.5.1
        finds missing for half the signed HTTPS domains)."""
        profile = self.world.profile_of(child)
        if profile is None or profile.apex != child:
            return None, []
        config = self.world.config
        date = self.world.current_date
        if not (profile.ds_uploaded and domains.dnssec_active(profile, config, date)):
            return None, []
        injector = self.world.fault_injector
        if injector is not None and injector.ds_suppressed(child, date):
            # Injected §4.5.1 failure: the DS upload "never happened"
            # while the fault is active (checked before the per-day
            # cache so the suppressed answer is never memoized).
            return None, []
        day = timeline.day_index(date)
        if day != self._ds_day:
            self._ds_day = day
            self._ds_cache = {}
        cached = self._ds_cache.get(child)
        if cached is not None:
            return cached
        keyset = ZoneKeySet(child)
        rrset = RRset(child, rdtypes.DS, self.default_ttl, [keyset.ksk.ds_record(child)])
        sigs: List[RRSIGRdata] = []
        if self.keyset is not None:
            inception = timeline.epoch_seconds(date) - 3600
            sigs = [sign_rrset(rrset, self.apex, self.keyset.zsk, inception)]
        self._ds_cache[child] = (rrset, sigs)
        return rrset, sigs

    def has_name(self, name: Name) -> bool:
        if super().has_name(name):
            return True
        return self._child_apex(name) is not None or self.world.glue_ip_of(name) is not None


class _TldTree:
    """Duck-typed ZoneTree for the TLD server (hosts every TLD zone)."""

    def __init__(self, world: "World"):
        self.world = world

    def zone_for(self, name: Name) -> Optional[Zone]:
        return self.world.tld_zone_containing(name)


class _GodsEyeSource:
    """RecordSource over the whole world for DNSSEC validation.

    A real validating resolver assembles this view by querying; giving the
    validator direct access is a simulation shortcut with identical
    validation outcomes (the records are the same either way).
    """

    def __init__(self, world: "World"):
        self.world = world

    def fetch_with_sigs(self, name: Name, rdtype: int):
        world = self.world
        if rdtype == rdtypes.DS:
            if name in world.tld_zones:
                zone = world.root_zone
                return zone.get_rrset(name, rdtype), zone.get_rrsigs(name, rdtype)
            tld = world.tld_zone_containing(name)
            if tld is not None and isinstance(tld, DynamicTldZone):
                return tld.ds_with_sigs(name)
            return None, []
        zone = world.authoritative_zone_for(name)
        if zone is None:
            return None, []
        return zone.get_rrset(name, rdtype), zone.get_rrsigs(name, rdtype)

    def zone_apex_of(self, name: Name) -> Optional[Name]:
        zone = self.world.authoritative_zone_for(name)
        return zone.apex if zone is not None else None

    def parent_zone_of(self, apex: Name) -> Optional[Name]:
        if apex == Name.root():
            return None
        if apex in self.world.tld_zones:
            return Name.root()
        tld = self.world.tld_zone_containing(apex)
        if tld is not None:
            return tld.apex
        return Name.root()


class World:
    """The simulated Internet under one :class:`SimConfig`."""

    def __init__(self, config: Optional[SimConfig] = None):
        # Construction allocates the bulk of an immortal object graph
        # (profiles, zones, signatures); pause the cyclic GC so the
        # allocation churn cannot trigger full-heap passes mid-build.
        with paused_gc():
            self._build(config)

    def _build(self, config: Optional[SimConfig]) -> None:
        self.config = config if config is not None else SimConfig()
        self.profiles: List[DomainProfile] = [
            make_profile(self.config, i) for i in range(self.config.population)
        ]
        self._by_apex: Dict[Name, DomainProfile] = {p.apex: p for p in self.profiles}
        # name -> profile_of(name). The registry is fixed at build time,
        # so the memo lives as long as the world, across resets.
        self._profile_of: Dict[Name, Optional[DomainProfile]] = {}

        self.current_date: datetime.date = timeline.STUDY_START
        self.current_hour: float = 0.0
        self.clock = SimClock(timeline.epoch_seconds(timeline.STUDY_START))
        self.network = Network(wire_mode=self.config.wire_mode)
        self.ech_manager = ECHKeyManager(
            ECH_PUBLIC_NAME,
            seed=self.config.seed.encode(),
            rotation_hours=self.config.ech_rotation_hours,
        )

        self._zone_cache: Dict[int, Zone] = {}
        self._zone_cache_stamp: Tuple[datetime.date, int] = (self.current_date, 0)
        self._fault_injector: Optional[faults.FaultInjector] = None

        # Layered answer fast path: one cache shared by every
        # authoritative server and the network's wire path, armed once
        # the world is built. Tier-2 zone-body reuse state and its own
        # armed flag live beside it.
        self.answer_cache = AnswerCache()
        self.network.answer_cache = self.answer_cache
        self._zone_bodies: Dict[int, Tuple[tuple, Zone]] = {}
        self._zone_reuse = False
        self.zone_builds = 0
        self.zone_body_reuses = 0

        self._build_infrastructure()
        self._build_resolvers()
        self.set_answer_cache(True)

    def reset(self) -> None:
        """Return the world to its just-built state so it can be reused.

        Rewinds the clock to the study start and flushes every cache
        whose entries are stamped with (or derived from) the current
        time: the per-day zone cache, both resolvers' record and
        delegation caches, and their validators' zone-key verdict
        memos. Installed fault schedules are cleared too: parked worlds
        must stay scenario-free, so every run re-installs its own
        schedule after checkout. Counters are zeroed, and a disarmed
        answer fast path comes back armed.

        What is a pure function of its key is kept: the TLD DS cache
        (one day's entries, replaced on the next day), the TLD zones'
        referral RRsets (keyed by their delegation facts or glue
        address), the ``profile_of``/``tld_zone_containing`` memos (the
        registries are fixed at build time), the ECH key-generation
        table, and the answer fast path. Zone bodies are keyed by
        :func:`~repro.simnet.domains.zone_body_fingerprint` and rolled
        to whatever date the next run asks for; rendered answers live as
        long as those bodies and are scoped to the fault schedule they
        were rendered under (see
        :class:`~repro.resolver.authoritative.AnswerCache`); query
        templates are pure functions of their bytes. A reset world
        answers every query bit-for-bit like a freshly built one, which
        is what lets :func:`~repro.simnet.snapshot.checkin_world` park
        one world for a sequence of pipeline tasks and ``Study``
        sessions in a process, each stage starting warm."""
        self.clear_faults()
        self.current_date = timeline.STUDY_START
        self.current_hour = 0.0
        self.clock.rewind(timeline.epoch_seconds(timeline.STUDY_START))
        # Rendered answers survive this flush: each is owned by its zone
        # (zones dropped here take their answers with them), stamped with
        # the zone's version and serial, and scoped to the fault schedule
        # it was rendered under.
        self._zone_cache.clear()  # codelint: disable=INV01
        self._zone_cache_stamp = (self.current_date, 0)
        # Bodies of domains that double as an NS suffix (cf-ns.com) go:
        # zone_of adds the NS-host records after signing, so a reused
        # body serves them signed where a fresh build does not. Drop this
        # once the NS-host records move into build_zone (ROADMAP,
        # NS-suffix defect (a)).
        for apex in self._infra_provider:
            profile = self._by_apex.get(apex)
            if profile is not None:
                self._zone_bodies.pop(profile.index, None)
        self.answer_cache.reset_counters()
        self.zone_builds = 0
        self.zone_body_reuses = 0
        self.set_answer_cache(True)
        for resolver in (self.google_resolver, self.cloudflare_resolver):
            resolver.reset()
        # Zero the transport counters so RunStats.of_world reports only
        # the next run's work.
        self.network.dns_query_count = 0
        self.network.tcp_connect_count = 0

    # ------------------------------------------------------------------
    # infrastructure
    # ------------------------------------------------------------------

    def _build_infrastructure(self) -> None:
        now = timeline.epoch_seconds(timeline.STUDY_START) - 86400
        expiration = now + _LONG_VALIDITY

        # Infra (provider nameserver) zones + glue map.
        self._infra_zones: Dict[Name, Zone] = {}
        self._infra_provider: Dict[Name, ProviderSpec] = {}
        self._glue: Dict[Name, str] = {}
        for provider in PROVIDERS.values():
            if not provider.ns_domain:
                continue
            apex = Name.from_text(provider.ns_domain + ".")
            if self.profile_of(apex) is not None:
                # e.g. cf-ns.com is both a measured domain and an NS suffix;
                # the domain zone carries the NS-host A records instead.
                for host in provider.all_ns_hostnames():
                    self._glue[host] = provider.server_ip
                self._infra_provider[apex] = provider
                continue
            zone = Zone(apex, default_ttl=300)
            zone.ensure_soa()
            hostnames = provider.all_ns_hostnames()
            zone.add_rrset(
                RRset(apex, rdtypes.NS, 300, [NSRdata(h) for h in hostnames[:2]])
            )
            for host in hostnames:
                zone.add_rrset(RRset(host, rdtypes.A, 300, [ARdata(provider.server_ip)]))
                self._glue[host] = provider.server_ip
            self._infra_zones[apex] = zone
            self._infra_provider[apex] = provider
        for profile in self.profiles:
            if profile.provider_key == "selfhosted":
                ns_ip = ipspace.origin_v4(self.config.seed, profile.name, 7)
                self._glue[profile.apex.prepend("ns1")] = ns_ip
                self._glue[profile.apex.prepend("ns2")] = ns_ip

        # TLD zones.
        tld_names = sorted(
            {p.apex.labels[-2].decode() for p in self.profiles}
            | {apex.labels[-2].decode() for apex in self._infra_zones}
        )
        self.tld_zones: Dict[Name, DynamicTldZone] = {}
        for tld in tld_names:
            apex = Name.from_text(tld + ".")
            zone = DynamicTldZone(self, apex)
            zone.ensure_soa(Name.from_text(f"a.nic.{tld}."))
            zone.add_rrset(
                RRset(apex, rdtypes.NS, 300, [NSRdata(Name.from_text(f"a.nic.{tld}."))])
            )
            zone.add_rrset(
                RRset(Name.from_text(f"a.nic.{tld}."), rdtypes.A, 300, [ARdata(ipspace.TLD_SERVER_IP)])
            )
            zone.sign(now, expiration=expiration)
            self.tld_zones[apex] = zone
        # name -> tld_zone_containing(name), for as long as the world
        # lives: the TLD zones are fixed from here on.
        self._tld_zone_of: Dict[Name, Optional[DynamicTldZone]] = {}

        # Root zone.
        root = Zone(Name.root(), default_ttl=300)
        root.ensure_soa(Name.from_text("a.root-servers.net."))
        root.add_rrset(
            RRset(Name.root(), rdtypes.NS, 300, [NSRdata(Name.from_text("a.root-servers.net."))])
        )
        root.add_rrset(
            RRset(Name.from_text("a.root-servers.net."), rdtypes.A, 300, [ARdata(ipspace.ROOT_SERVER_IP)])
        )
        for apex in self.tld_zones:
            root.delegate(apex, [Name.from_text(f"a.nic.{apex.to_text(omit_final_dot=True)}.")])
            root.add_rrset(
                RRset(
                    Name.from_text(f"a.nic.{apex.to_text(omit_final_dot=True)}."),
                    rdtypes.A,
                    300,
                    [ARdata(ipspace.TLD_SERVER_IP)],
                )
            )
        root.sign(now, expiration=expiration)
        # Upload each TLD's DS into the root (all TLDs are secure).
        for apex, zone in self.tld_zones.items():
            ds_rrset = RRset(apex, rdtypes.DS, 300, zone.ds_rdatas())
            root._records[(apex, rdtypes.DS)] = ds_rrset
            root._rrsigs[(apex, rdtypes.DS)] = [
                sign_rrset(ds_rrset, Name.root(), root.keyset.zsk, now, expiration)
            ]
        self.root_zone = root

        # Servers.
        root_server = AuthoritativeServer("root", answer_cache=self.answer_cache)
        root_server.tree.add_zone(root)
        self.network.register_dns(ipspace.ROOT_SERVER_IP, root_server)

        tld_server = AuthoritativeServer("tld", answer_cache=self.answer_cache)
        tld_server.tree = _TldTree(self)
        self.network.register_dns(ipspace.TLD_SERVER_IP, tld_server)

        self.provider_servers: Dict[str, AuthoritativeServer] = {}
        for provider in PROVIDERS.values():
            if not provider.server_ip:
                continue
            server = AuthoritativeServer(provider.key, answer_cache=self.answer_cache)
            server.tree = _ProviderTree(self, provider)
            server.tree.infra_zone = self._infra_zones.get(
                Name.from_text(provider.ns_domain + ".") if provider.ns_domain else None
            )
            if not provider.supports_https:
                server.unsupported_rdtypes = {rdtypes.HTTPS, rdtypes.SVCB}
            self.network.register_dns(provider.server_ip, server)
            self.provider_servers[provider.key] = server

        # Self-hosted domains run their own authoritative servers.
        for profile in self.profiles:
            if profile.provider_key == "selfhosted":
                server = AuthoritativeServer(
                    f"selfhosted:{profile.name}", answer_cache=self.answer_cache
                )
                server.tree = _ProviderTree(self, PROVIDERS["selfhosted"])
                ns_ip = ipspace.origin_v4(self.config.seed, profile.name, 7)
                self.network.register_dns(ns_ip, server)

        self.validator_source = _GodsEyeSource(self)

    def _build_resolvers(self) -> None:
        self.google_resolver = RecursiveResolver(
            "google-public-dns",
            self.network,
            [ipspace.ROOT_SERVER_IP],
            self.clock,
            validator=ChainValidator(self.validator_source),
            negative_ttl=self.config.negative_ttl,
        )
        self.cloudflare_resolver = RecursiveResolver(
            "cloudflare-public-dns",
            self.network,
            [ipspace.ROOT_SERVER_IP],
            self.clock,
            validator=ChainValidator(self.validator_source),
            negative_ttl=self.config.negative_ttl,
        )
        self.network.register_dns(ipspace.GOOGLE_RESOLVER_IP, ResolverFrontend(self.google_resolver))
        self.network.register_dns(
            ipspace.CLOUDFLARE_RESOLVER_IP, ResolverFrontend(self.cloudflare_resolver)
        )
        self.stub = StubResolver([self.google_resolver, self.cloudflare_resolver])

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    def set_time(self, date: datetime.date, hour: float = 0.0) -> None:
        """Advance the world to *date* + *hour* (monotonic)."""
        target = timeline.epoch_seconds(date, hour)
        if target < self.clock.now:
            raise ValueError("world time must move forward")
        self.clock.set(target)
        if date != self.current_date:
            # Once a day, not per hourly tick: what has expired by now
            # can never be served again, since the clock only moves on.
            for resolver in (self.google_resolver, self.cloudflare_resolver):
                resolver.drop_expired()
        self.current_date = date
        self.current_hour = hour
        generation = self.ech_manager.generation_for_hour(self.absolute_hour())
        stamp = (date, generation)
        if stamp != self._zone_cache_stamp:
            # The answer cache deliberately survives this flush: a zone
            # rebuilt after it is a new object with its own slot (the old
            # slot goes with the old zone), a body-reused zone keeps its
            # slot with SOA-bearing entries serial-guarded, and
            # DynamicTldZone entries revalidate their delegation facts
            # across day boundaries. Cross-day survival of the surviving
            # entries is the fast path's main win (most of a campaign's
            # questions repeat across days).
            self._zone_cache.clear()  # codelint: disable=INV01
            self._zone_cache_stamp = stamp
        if self._fault_injector is not None:
            self._fault_injector.on_time(date, hour)

    # ------------------------------------------------------------------
    # fault schedules (chaos scenarios)
    # ------------------------------------------------------------------

    @property
    def fault_injector(self) -> Optional["faults.FaultInjector"]:
        return self._fault_injector

    def install_faults(self, schedule: Optional["faults.FaultSchedule"]) -> None:
        """Compile *schedule* into this world's network/zone hooks.

        Replaces any previously installed schedule; ``None`` (or an
        empty schedule) just clears. The per-day zone cache is flushed
        both ways (and the resolvers' DNSSEC verdict memos with it) so
        zone-level faults appear/disappear immediately."""
        self.clear_faults()
        if schedule is None or not schedule.specs:
            return
        self._fault_injector = faults.FaultInjector(self, schedule)
        self._fault_injector.arm()
        self._forget_fault_state()

    def clear_faults(self) -> None:
        if self._fault_injector is None:
            return
        self._fault_injector.disarm()
        self._fault_injector = None
        self._forget_fault_state()

    def _forget_fault_state(self) -> None:
        """Drop what was derived under the previous fault schedule: built
        zones and DNSSEC zone-key verdicts. Rendered answers are
        re-scoped to the schedule now installed; those of another
        schedule are dropped before the next lookup, so clearing and
        re-installing one schedule keeps them."""
        injector = self._fault_injector
        scope = None if injector is None else injector.schedule.canonical_tag()
        self._zone_cache.clear()
        self.answer_cache.set_scope(scope)
        for resolver in (self.google_resolver, self.cloudflare_resolver):
            resolver.validator.flush()

    def absolute_hour(self) -> int:
        return timeline.day_index(self.current_date) * 24 + int(self.current_hour)

    # ------------------------------------------------------------------
    # answer fast path
    # ------------------------------------------------------------------

    def set_answer_cache(self, enabled: bool) -> None:
        """Arm (or disarm) the layered answer fast path.

        Tier 2 (zone-body reuse) arms in every mode. Tiers 1 and 3 (the
        :class:`AnswerCache` of rendered answers and decoded templates)
        arm only in ``wire_mode``: there a hit skips the encode and
        decode passes.
        In object mode a hit skips only answer assembly. On perfbench's
        ``daily`` workload (2-core host, Python 3.11) the rendered
        answers held 2.4 MB of the 12.2 MB traced heap at the end of the
        run, and a 10-pair A/B without them gave ``peak_rss_mb``
        36.96 → 34.46 MB (10/10 pairs) and ``campaign_s`` 1.49 → 1.41 s,
        inside the parent's spread.

        Every world is built armed and :meth:`reset` re-arms it, so
        campaign drivers never call this. ``set_answer_cache(False)`` is
        a test and bench hook: it disarms the world for a cache-off
        reference run, which gives the same dataset and per-server query
        logs. Counters survive disarming."""
        self.answer_cache.set_enabled(enabled and self.config.wire_mode)
        self._zone_reuse = bool(enabled)
        if not enabled:
            self._zone_bodies.clear()

    # ------------------------------------------------------------------
    # registry lookups
    # ------------------------------------------------------------------

    def profile_of(self, name: Name) -> Optional[DomainProfile]:
        """The domain profile owning *name* (itself or an ancestor)."""
        try:
            return self._profile_of[name]
        except KeyError:
            pass
        profile = None
        probe = name
        while probe.split_depth() >= 2:
            profile = self._by_apex.get(probe)
            if profile is not None:
                break
            probe = probe.parent()
        self._profile_of[name] = profile
        return profile

    def profile_by_name(self, text: str) -> Optional[DomainProfile]:
        return self._by_apex.get(Name.from_text(text if text.endswith(".") else text + "."))

    def infra_apex_of(self, name: Name) -> Optional[Name]:
        probe = name
        while probe.split_depth() >= 2:
            if probe in self._infra_zones or probe in self._infra_provider:
                return probe
            probe = probe.parent()
        return None

    def infra_provider_of(self, apex: Name) -> Optional[ProviderSpec]:
        return self._infra_provider.get(apex)

    def glue_ip_of(self, name: Name) -> Optional[str]:
        return self._glue.get(name)

    def tld_zone_containing(self, name: Name) -> Optional[DynamicTldZone]:
        try:
            return self._tld_zone_of[name]
        except KeyError:
            pass
        zone = None
        if name.split_depth() >= 1:
            zone = self.tld_zones.get(Name((name.labels[-2], b"")))
        self._tld_zone_of[name] = zone
        return zone

    def authoritative_zone_for(self, name: Name) -> Optional[Zone]:
        """God's-eye: the zone authoritative for *name* today."""
        if name == Name.root() or name.split_depth() == 0:
            return self.root_zone
        profile = self.profile_of(name)
        if profile is not None:
            keys = domains.current_provider_keys(profile, self.config, self.current_date)
            if keys:
                return self.zone_of(profile)
            return None  # no-NS phase: nothing authoritative
        infra = self.infra_apex_of(name)
        if infra is not None and infra in self._infra_zones:
            return self._infra_zones[infra]
        tld = self.tld_zone_containing(name)
        if tld is not None:
            return tld
        if name.split_depth() == 1 and name in self.tld_zones:
            return self.tld_zones[name]
        return self.root_zone

    # ------------------------------------------------------------------
    # zones
    # ------------------------------------------------------------------

    def zone_of(self, profile: DomainProfile) -> Zone:
        """Build (or fetch from the per-day cache) the domain's zone.

        Tier-2 zone-body reuse: when the fast path is armed and the
        domain's :func:`~repro.simnet.domains.zone_body_fingerprint` is
        unchanged since the zone was last built, the stored body is
        advanced to today (SOA serial roll + re-sign on date change;
        nothing at all within the same day) instead of rebuilding. The
        fingerprint holds exactly the values the build reads, so a date
        that changes none of them (e.g. an ALPN date boundary for a zone
        without a Cloudflare default record, a key rotation for a zone
        publishing no ECH) reuses the body.

        When the fingerprint changed only in inputs of the HTTPS RRsets
        (:func:`~repro.simnet.domains.https_only_change`: an ECH key
        rotation, an ALPN list), the stored body is patched instead:
        :func:`~repro.simnet.domains.https_rrsets` builds the new HTTPS
        RRsets, :meth:`~repro.zones.zone.Zone.replace_rrsets` swaps them
        in and re-signs just them, and a date change re-signs the whole
        zone after the serial roll, as plain reuse does. A patch counts
        as a ``zone_body_reuse``. The domain that doubles as an NS
        suffix (cf-ns.com) is rebuilt instead, for the reason
        :meth:`reset` drops its body.

        Faulted builds (a live zone overlay) are never stored or reused
        — their content is not a pure function of the fingerprint."""
        zone = self._zone_cache.get(profile.index)
        if zone is None:
            ech_wire = self.ech_manager.published_wire(self.absolute_hour())
            overlay = None
            if self._fault_injector is not None:
                overlay = self._fault_injector.zone_overlay(profile, self.current_date)
                ech_wire = self._fault_injector.ech_wire_for(
                    profile, self.current_date, ech_wire, self.absolute_hour()
                )
            reusable = overlay is None and self._zone_reuse
            fingerprint: Optional[tuple] = None
            if reusable:
                fingerprint = domains.zone_body_fingerprint(
                    profile, self.config, self.current_date, ech_wire
                )
                stored = self._zone_bodies.get(profile.index)
                if stored is not None:
                    inputs, body = stored
                    patch = inputs != fingerprint
                    if not patch or (
                        profile.apex not in self._infra_provider
                        and domains.https_only_change(inputs, fingerprint)
                    ):
                        if patch:
                            self._zone_bodies[profile.index] = (fingerprint, body)
                        self._advance_body(profile, body, fingerprint if patch else None)
                        self.zone_body_reuses += 1
                        self._zone_cache[profile.index] = body
                        return body
            zone = domains.build_zone(
                profile, self.config, self.current_date, ech_wire, overlay=overlay
            )
            self.zone_builds += 1
            if self._infra_provider.get(profile.apex) is not None:
                # Domain doubles as an NS suffix (cf-ns.com): host the
                # provider's NS-host A records inside the domain zone.
                provider = self._infra_provider[profile.apex]
                for host in provider.all_ns_hostnames():
                    zone.add_rrset(RRset(host, rdtypes.A, 300, [ARdata(provider.server_ip)]))
            if reusable:
                self._zone_bodies[profile.index] = (fingerprint, zone)
            self._zone_cache[profile.index] = zone
        return zone

    def _advance_body(
        self, profile: DomainProfile, zone: Zone, patch: Optional[tuple]
    ) -> None:
        """Bring a stored body to the current instant.

        *patch*, when given, is the body's new fingerprint after an
        HTTPS-only change: its HTTPS RRsets are swapped in. A new day
        rolls the SOA serial. A signed zone re-signs just the swapped
        RRsets within a day, and everything when the serial rolls, as a
        fresh build signs with the day's inception."""
        serial = timeline.day_index(self.current_date) + 1
        inception = timeline.epoch_seconds(self.current_date) - 3600
        rolled = zone.soa is not None and zone.soa[0].serial != serial
        if patch is not None:
            zone.replace_rrsets(
                domains.https_rrsets(profile, self.config, patch),
                None if rolled else inception,
            )
        if rolled:
            zone.roll_soa_serial(serial)
            if zone.signed:
                zone.sign(inception)

    # ------------------------------------------------------------------
    # Tranco
    # ------------------------------------------------------------------

    def tranco_list(self, date: Optional[datetime.date] = None) -> List[str]:
        """The ranked daily list (rank 1 first)."""
        date = date or self.current_date
        present = [
            p for p in self.profiles if domains.is_listed(p, self.config, date)
        ]
        present.sort(key=lambda p: domains.daily_rank_key(p, self.config, date))
        return [p.name for p in present]

    def listed_profiles(self, date: Optional[datetime.date] = None) -> List[DomainProfile]:
        date = date or self.current_date
        return [p for p in self.profiles if domains.is_listed(p, self.config, date)]

    # ------------------------------------------------------------------
    # connectivity (TLS reachability for §4.3.5)
    # ------------------------------------------------------------------

    def tls_reachable(self, profile: DomainProfile, ip: str, date: Optional[datetime.date] = None) -> bool:
        """Would a TLS handshake to *ip* for this domain succeed today?"""
        date = date or self.current_date
        if not self.network.is_reachable(ip, 443):
            return False  # scheduled outage of the web endpoint
        a_v4, a_v6, hint_v4, hint_v6 = domains.serving_addresses(profile, self.config, date)
        if not domains.hint_mismatch_active(profile, self.config, date):
            return ip in (a_v4, a_v6, hint_v4, hint_v6)
        reach = domains.mismatch_reachability(profile, self.config)
        if reach == domains.REACH_BOTH:
            return ip in (a_v4, a_v6, hint_v4, hint_v6)
        if reach == domains.REACH_HINT_ONLY:
            return ip in (hint_v4, hint_v6)
        if reach == domains.REACH_A_ONLY:
            return ip in (a_v4, a_v6)
        return False


