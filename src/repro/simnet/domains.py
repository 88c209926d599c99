"""Per-day domain state and DNS record synthesis.

Pure functions from (profile, config, date) to the domain's observable
state: Tranco presence, HTTPS activation, provider set, IP-hint
consistency, and the actual zone contents a provider would serve that
day. Everything is deterministic, so scanners, validators, and analyses
agree without shared mutable state.
"""

from __future__ import annotations

import datetime
from typing import List, NamedTuple, Optional, Tuple

from ..dnscore import rdtypes
from ..dnscore.names import Name
from ..dnscore.rdata import AAAARdata, ARdata, CNAMERdata, HTTPSRdata, NSRdata
from ..dnscore.rrset import RRset
from ..svcb.params import (
    ALPN_H2,
    ALPN_H3,
    ALPN_H3_27,
    ALPN_H3_29,
    ALPN_HTTP11,
    GOOGLE_QUIC_VERSIONS,
    Alpn,
    Ech,
    Ipv4Hint,
    Ipv6Hint,
    Port,
    SvcParams,
)
from ..zones.zone import Zone
from . import cohorts, ipspace, timeline
from .cohorts import (
    DomainProfile,
    HINTS_EPISODIC,
    HINTS_PERSISTENT,
    HINTS_PRE_FIX,
    INTERMIT_MIXED_PROVIDERS,
    INTERMIT_NO_NS,
    INTERMIT_NS_CHANGE,
    INTERMIT_PROXY_TOGGLE,
    SHAPE_ALIAS_ENDPOINT,
    SHAPE_ALIAS_SELF,
    SHAPE_ALIAS_WWW,
    SHAPE_DRAFT_H3,
    SHAPE_EMPTY_SERVICE,
    SHAPE_HTTP11,
    SHAPE_IP_TARGET,
    SHAPE_MULTI_PRIORITY,
    SHAPE_SERVICE_ALPN,
    SHAPE_SERVICE_SELF,
    SHAPE_URL_TARGET,
)
from .config import SimConfig
from .determinism import choice, integer, unit_float
from .providers import PROVIDERS, NON_HTTPS_PROVIDER_KEYS

ROOT_NAME = Name.root()


# ---------------------------------------------------------------------------
# Tranco presence
# ---------------------------------------------------------------------------

def is_listed(profile: DomainProfile, config: SimConfig, date: datetime.date) -> bool:
    """Is the domain in the daily Tranco list on *date*?"""
    day = timeline.day_index(date)
    after_change = date >= timeline.TRANCO_SOURCE_CHANGE
    if profile.is_stable:
        if profile.exits_at_source_change and after_change:
            return False
        return True
    if profile.enters_at_source_change and not after_change:
        return False
    return unit_float(config.seed, "present", profile.index, day) < profile.churn_presence


def daily_rank_key(profile: DomainProfile, config: SimConfig, date: datetime.date) -> float:
    """Sort key for the daily ranking (lower = more popular)."""
    jitter = (unit_float(config.seed, "rank-jitter", profile.index, timeline.day_index(date)) - 0.5) * 0.03
    return profile.base_rank + jitter


# ---------------------------------------------------------------------------
# HTTPS activation state
# ---------------------------------------------------------------------------

def _toggle_active(profile: DomainProfile, config: SimConfig, day: int) -> bool:
    """On/off cycle for the proxied-toggle and no-NS cohorts."""
    period = 25 + integer(config.seed, "toggle-period", profile.index, bound=45)
    offset = integer(config.seed, "toggle-offset", profile.index, bound=period)
    duty = 0.65 + 0.25 * unit_float(config.seed, "toggle-duty", profile.index)
    return ((day + offset) % period) < duty * period


def proxied_active(profile: DomainProfile, config: SimConfig, date: datetime.date) -> bool:
    """Cloudflare 'proxied' feature state (drives the default HTTPS RR)."""
    if not profile.is_cloudflare:
        return False
    if profile.intermittency == INTERMIT_PROXY_TOGGLE:
        return _toggle_active(profile, config, timeline.day_index(date))
    return True


def current_provider_keys(
    profile: DomainProfile, config: SimConfig, date: datetime.date
) -> List[str]:
    """DNS providers serving the domain on *date* (NS set)."""
    day = timeline.day_index(date)
    if profile.intermittency == INTERMIT_NS_CHANGE and profile.ns_change_day is not None:
        if day >= profile.ns_change_day:
            new_key = choice(
                config.seed, "ns-change-target", profile.index,
                options=tuple(NON_HTTPS_PROVIDER_KEYS),
            )
            return [new_key]
        return [profile.provider_key]
    if profile.intermittency == INTERMIT_MIXED_PROVIDERS and profile.secondary_provider_key:
        return [profile.provider_key, profile.secondary_provider_key]
    if profile.intermittency == INTERMIT_NO_NS:
        if not _toggle_active(profile, config, day):
            return []  # NS records vanish during the off phase
        return [profile.provider_key]
    return [profile.provider_key]


def https_configured(profile: DomainProfile, config: SimConfig, date: datetime.date) -> bool:
    """Does the domain owner's zone carry an HTTPS RRset on *date*?

    This is the *zone-level* truth; what a resolver observes additionally
    depends on which name server it picks (mixed-provider cohort).
    """
    if not profile.adopter:
        return False
    day = timeline.day_index(date)
    if day < profile.adoption_start_day:
        return False
    if profile.deactivation_day is not None and day >= profile.deactivation_day:
        return False
    if profile.intermittency == INTERMIT_NS_CHANGE and profile.ns_change_day is not None:
        if day >= profile.ns_change_day:
            return False
    if profile.intermittency == INTERMIT_NO_NS and not _toggle_active(profile, config, day):
        return False
    if profile.is_cloudflare and not profile.custom_config and profile.noncf_shape == SHAPE_SERVICE_SELF:
        # Default Cloudflare record exists only while proxied.
        return proxied_active(profile, config, date)
    return True


# ---------------------------------------------------------------------------
# IP hints & addresses
# ---------------------------------------------------------------------------

def hint_mismatch_active(profile: DomainProfile, config: SimConfig, date: datetime.date) -> bool:
    """Are the HTTPS IP hints out of sync with the A/AAAA records today?"""
    behaviour = profile.hint_behaviour
    if behaviour == HINTS_PERSISTENT:
        return True
    day = timeline.day_index(date)
    if behaviour == HINTS_PRE_FIX:
        # Until Cloudflare's June 19 sync fix, this cohort's hints lag
        # behind anycast reassignments most of the time (~98% daily match
        # rate overall, Fig 11).
        if date >= timeline.HINT_SYNC_FIX:
            return False
        period = 12 + integer(config.seed, "mm-period", profile.index, bound=25)
        offset = integer(config.seed, "mm-offset", profile.index, bound=period)
        duration = max(1, int(period * 0.7))
        return ((day + offset) % period) < duration
    if behaviour == HINTS_EPISODIC:
        period = 60 + integer(config.seed, "mm-period", profile.index, bound=90)
        offset = integer(config.seed, "mm-offset", profile.index, bound=period)
        duration = 1 + integer(config.seed, "mm-dur", profile.index, bound=5)
        return ((day + offset) % period) < duration
    return False


def serving_addresses(
    profile: DomainProfile, config: SimConfig, date: datetime.date
) -> Tuple[str, str, str, str]:
    """(a_v4, a_v6, hint_v4, hint_v6) for the apex on *date*."""
    seed = config.seed
    if profile.is_cloudflare and proxied_active(profile, config, date):
        alloc4 = ipspace.cfns_anycast_v4 if profile.provider_key == "cfns" else ipspace.cloudflare_anycast_v4
        a_v4 = alloc4(seed, profile.name, 0)
        a_v6 = ipspace.cloudflare_anycast_v6(seed, profile.name, 0)
        if hint_mismatch_active(profile, config, date):
            hint_v4 = alloc4(seed, profile.name, 1)
            hint_v6 = ipspace.cloudflare_anycast_v6(seed, profile.name, 1)
        else:
            hint_v4, hint_v6 = a_v4, a_v6
        return a_v4, a_v6, hint_v4, hint_v6
    a_v4 = ipspace.origin_v4(seed, profile.name)
    a_v6 = ipspace.origin_v6(seed, profile.name)
    return a_v4, a_v6, a_v4, a_v6


# Reachability cohorts for the §4.3.5 connectivity experiment.
REACH_BOTH = "both"
REACH_HINT_ONLY = "hint-only"  # A-record address is dead
REACH_A_ONLY = "a-only"  # hinted address is dead
REACH_NEITHER = "neither"

_REACH_WEIGHTS = ((REACH_BOTH, 0.811), (REACH_HINT_ONLY, 0.115), (REACH_A_ONLY, 0.058), (REACH_NEITHER, 0.016))


def mismatch_reachability(profile: DomainProfile, config: SimConfig) -> str:
    """Which of the (mismatched) addresses accept TLS connections."""
    roll = unit_float(config.seed, "reach", profile.index)
    accumulated = 0.0
    for kind, weight in _REACH_WEIGHTS:
        accumulated += weight
        if roll < accumulated:
            return kind
    return REACH_BOTH


# ---------------------------------------------------------------------------
# HTTPS record synthesis
# ---------------------------------------------------------------------------

def _cf_alpn(profile: DomainProfile, config: SimConfig, date: datetime.date) -> Tuple[str, ...]:
    protocols: List[str] = [ALPN_H2, ALPN_H3]
    if date < timeline.H3_29_RETIREMENT:
        protocols.append(ALPN_H3_29)
    if date >= timeline.GOOGLE_QUIC_APPEARANCE and unit_float(
        config.seed, "gquic", profile.index
    ) < 0.003:
        protocols.extend(GOOGLE_QUIC_VERSIONS)
    return tuple(protocols)


def ech_enabled(
    profile: DomainProfile, config: SimConfig, date: datetime.date, is_www: bool = False
) -> bool:
    """Does the HTTPS record carry an ech SvcParam on *date*?"""
    if profile.name in cohorts.ECH_TEST_DOMAINS:
        return True
    if date >= timeline.ECH_DISABLE:
        return False
    if is_www and unit_float(config.seed, "www-ech-gap", profile.index) < config.www_ech_gap:
        # The paper observes a lower ECH share on www subdomains (~63%
        # vs ~70% on apexes, §4.4.1).
        return False
    if profile.is_cloudflare:
        return profile.free_plan and proxied_active(profile, config, date)
    return profile.noncf_has_ech


def build_https_rdatas(
    profile: DomainProfile,
    config: SimConfig,
    date: datetime.date,
    is_www: bool,
    ech_wire: Optional[bytes],
    overlay: Optional[object] = None,
) -> List[HTTPSRdata]:
    """The HTTPS RRset contents for the apex (or www) on *date* — the
    record the domain publishes, or would publish if HTTPS were
    configured that day.

    *ech_wire* is the ECHConfigList published by the shared client-facing
    server at this instant; pass None to omit the ech parameter.

    *overlay* (duck-typed :class:`~repro.simnet.faults.ZoneOverlay`)
    carries injected-fault mutations; ``hint_v4``/``hint_v6`` replace
    the synthesized IP hints with stale addresses when set.
    """
    inputs = _zone_inputs(profile, config, date, ech_wire, assume_https=True)
    return _https_rdatas(profile, config, inputs, is_www, overlay)


def _https_rdatas(
    profile: DomainProfile,
    config: SimConfig,
    inputs: _ZoneInputs,
    is_www: bool,
    overlay: Optional[object],
) -> List[HTTPSRdata]:
    seed = config.seed
    a_v4, a_v6, hint_v4, hint_v6 = inputs.addresses
    if overlay is not None and overlay.hint_v4 is not None:
        hint_v4, hint_v6 = overlay.hint_v4, overlay.hint_v6
    ech_wire = inputs.ech_wire if (inputs.ech_www if is_www else inputs.ech_apex) else None

    # Cloudflare default config: the well-known proxied record.
    if profile.is_cloudflare and not profile.custom_config:
        params: List = [Alpn(inputs.cf_alpn)]
        params.append(Ipv4Hint([hint_v4]))
        if profile.ipv6_hints:
            params.append(Ipv6Hint([hint_v6]))
        if ech_wire is not None:
            params.append(Ech(ech_wire))
        return [HTTPSRdata(1, ROOT_NAME, SvcParams(params))]

    shape = profile.noncf_shape
    if profile.is_cloudflare and profile.custom_config:
        if shape == SHAPE_ALIAS_SELF:
            return [HTTPSRdata(0, ROOT_NAME)]
        if shape == SHAPE_IP_TARGET:
            # Nonstandard: an IP-address literal as TargetName.
            return [HTTPSRdata(1, Name.from_text(a_v4.replace(".", "\\.") + "."), SvcParams())]
        if shape == SHAPE_URL_TARGET:
            return [
                HTTPSRdata(
                    1,
                    Name.from_text("https://" + profile.name.replace(".", "\\.") + "."),
                    SvcParams(),
                )
            ]
        if shape == SHAPE_MULTI_PRIORITY:
            priority = 443 if profile.name == "host-ir.com" else 1800
            return [HTTPSRdata(priority, ROOT_NAME, SvcParams([Alpn([ALPN_H2])]))]
        # Generic customized Cloudflare config: h2, usually no hints.
        roll = unit_float(seed, "cf-custom-shape", profile.index)
        if roll < 0.0113:
            params = []
        elif roll < 0.0141:
            params = [Alpn([ALPN_H2, ALPN_H3])]
        else:
            params = [Alpn([ALPN_H2])]
        if unit_float(seed, "cf-custom-hints", profile.index) < 0.93 and params:
            params.append(Ipv4Hint([hint_v4]))
            if profile.ipv6_hints:
                params.append(Ipv6Hint([hint_v6]))
        if ech_wire is not None and unit_float(seed, "cf-custom-ech", profile.index) < 0.3:
            params.append(Ech(ech_wire))
        if roll < 0.002:
            return [HTTPSRdata(0, Name.from_text(f"cdn-{profile.index % 97}.cf-endpoints.net."))]
        return [HTTPSRdata(1, ROOT_NAME, SvcParams(params))]

    # Non-Cloudflare providers.
    if shape == SHAPE_ALIAS_WWW:
        if is_www:
            return [HTTPSRdata(1, ROOT_NAME, SvcParams([Alpn([ALPN_H2])]))]
        return [HTTPSRdata(0, Name.from_text("www." + profile.name + "."))]
    if shape == SHAPE_ALIAS_ENDPOINT:
        target = Name.from_text(f"redirect-{profile.index % 251}.godaddysites.example.")
        return [HTTPSRdata(0, target)]
    if shape == SHAPE_ALIAS_SELF:
        return [HTTPSRdata(0, ROOT_NAME)]
    if shape == SHAPE_EMPTY_SERVICE:
        return [HTTPSRdata(1, ROOT_NAME, SvcParams())]
    if shape == SHAPE_MULTI_PRIORITY:
        target = Name.from_text("geo-routing.nexuspipe.com.")
        return [
            HTTPSRdata(p, target, SvcParams([Alpn([ALPN_H2]), Port(3440 + p)]))
            for p in range(1, 13)
        ]
    if shape == SHAPE_HTTP11:
        return [HTTPSRdata(1, ROOT_NAME, SvcParams([Alpn([ALPN_HTTP11])]))]
    if shape == SHAPE_DRAFT_H3:
        params = SvcParams([Alpn([ALPN_H2, ALPN_H3_27, ALPN_H3_29])])
        return [HTTPSRdata(1, ROOT_NAME, params)]
    if shape == SHAPE_SERVICE_ALPN:
        protocols = [ALPN_H2]
        if unit_float(seed, "noncf-h3", profile.index) < 0.35:
            protocols.append(ALPN_H3)
        params = [Alpn(protocols)]
        if unit_float(seed, "noncf-hints", profile.index) < 0.30:
            params.append(Ipv4Hint([hint_v4]))
            params.append(Ipv6Hint([hint_v6]))
        if ech_wire is not None:
            params.append(Ech(ech_wire))
        return [HTTPSRdata(1, ROOT_NAME, SvcParams(params))]
    # SHAPE_SERVICE_SELF default for non-CF.
    params = []
    if unit_float(seed, "noncf-self-alpn", profile.index) < 0.97:
        protocols = [ALPN_H2]
        if unit_float(seed, "noncf-h3", profile.index) < 0.40:
            protocols.append(ALPN_H3)
        params.append(Alpn(protocols))
    if ech_wire is not None:
        params.append(Ech(ech_wire))
    return [HTTPSRdata(1, ROOT_NAME, SvcParams(params))]


# ---------------------------------------------------------------------------
# Zone synthesis
# ---------------------------------------------------------------------------

class _ZoneInputs(NamedTuple):
    """Every date-dependent value :func:`build_zone` reads, except the SOA
    serial and the RRSIG inception time (see :func:`_zone_inputs`)."""

    provider_keys: Tuple[str, ...]
    addresses: Tuple[str, str, str, str]  # (a_v4, a_v6, hint_v4, hint_v6)
    has_https: bool
    cf_alpn: Optional[Tuple[str, ...]]  # set only for a Cloudflare default record
    ech_apex: bool  # the apex HTTPS record carries the ech SvcParam
    ech_www: bool  # the www HTTPS record carries the ech SvcParam
    dnssec: bool
    ech_wire: Optional[bytes]  # set only when some record carries it


def _zone_inputs(
    profile: DomainProfile,
    config: SimConfig,
    date: datetime.date,
    ech_wire: Optional[bytes],
    assume_https: bool = False,
) -> _ZoneInputs:
    """The date-dependent inputs of the domain's zone on *date*.

    :func:`build_zone` builds from exactly these values and
    :func:`zone_body_fingerprint` returns them, so the two cannot drift
    apart. A value no record will carry is normalised away (the ALPN of
    a domain without a Cloudflare default record, ECH flags of owners
    without an HTTPS record, ECH bytes nobody publishes) so that a
    change in it does not change the fingerprint. *assume_https* treats
    HTTPS as configured whatever the date (:func:`build_https_rdatas`).
    """
    has_https = assume_https or https_configured(profile, config, date)
    cf_alpn = None
    ech_apex = ech_www = False
    if has_https:
        if profile.is_cloudflare and not profile.custom_config:
            cf_alpn = _cf_alpn(profile, config, date)
        if ech_wire is not None:
            ech_apex = not profile.www_only and ech_enabled(profile, config, date, is_www=False)
            ech_www = profile.www_has_record and ech_enabled(profile, config, date, is_www=True)
    return _ZoneInputs(
        tuple(current_provider_keys(profile, config, date)),
        serving_addresses(profile, config, date),
        has_https,
        cf_alpn,
        ech_apex,
        ech_www,
        dnssec_active(profile, config, date),
        ech_wire if (ech_apex or ech_www) else None,
    )


def build_zone(
    profile: DomainProfile,
    config: SimConfig,
    date: datetime.date,
    ech_wire: Optional[bytes],
    overlay: Optional[object] = None,
) -> Zone:
    """The domain's full zone as served on *date*.

    *ech_wire* is the ECHConfigList the shared client-facing server
    publishes at the scan instant; pass None to omit the ech parameter.

    *overlay* (duck-typed :class:`~repro.simnet.faults.ZoneOverlay`)
    applies injected-fault mutations: stale IP hints in the HTTPS RRset
    and/or signing with an already-expired RRSIG validity window.
    """
    inputs = _zone_inputs(profile, config, date, ech_wire)
    apex = profile.apex
    www = profile.www
    zone = Zone(apex, allow_apex_cname=profile.www_only, default_ttl=config.default_ttl)
    zone.ensure_soa(serial=timeline.day_index(date) + 1)

    ns_names: List[Name] = []
    for key in inputs.provider_keys:
        provider = PROVIDERS[key]
        if key == "selfhosted":
            ns_names.extend([apex.prepend("ns1"), apex.prepend("ns2")])
        else:
            ns_names.extend(provider.ns_hostnames(config.seed, profile.name))
    if ns_names:
        zone.add_rrset(RRset(apex, rdtypes.NS, config.default_ttl, [NSRdata(n) for n in ns_names]))

    # The apex and www share one (immutable) A and AAAA rdata each.
    a_rdata, aaaa_rdata = ARdata(inputs.addresses[0]), AAAARdata(inputs.addresses[1])
    if profile.www_only and profile.adopter:
        # Misconfigured apex CNAME → www; HTTPS lives on the www name.
        zone.add_rrset(RRset(apex, rdtypes.CNAME, config.default_ttl, [CNAMERdata(www)]))
    else:
        zone.add_rrset(RRset(apex, rdtypes.A, config.default_ttl, [a_rdata]))
        zone.add_rrset(RRset(apex, rdtypes.AAAA, config.default_ttl, [aaaa_rdata]))
        if inputs.has_https and not profile.www_only:
            rdatas = _https_rdatas(profile, config, inputs, False, overlay)
            zone.add_rrset(RRset(apex, rdtypes.HTTPS, config.default_ttl, rdatas))

    # www branch.
    zone.add_rrset(RRset(www, rdtypes.A, config.default_ttl, [a_rdata]))
    zone.add_rrset(RRset(www, rdtypes.AAAA, config.default_ttl, [aaaa_rdata]))
    if inputs.has_https and profile.www_has_record:
        rdatas = _https_rdatas(profile, config, inputs, True, overlay)
        zone.add_rrset(RRset(www, rdtypes.HTTPS, config.default_ttl, rdatas))

    if profile.provider_key == "selfhosted":
        ns_ip = ipspace.origin_v4(config.seed, profile.name, 7)
        zone.add_rrset(RRset(apex.prepend("ns1"), rdtypes.A, config.default_ttl, [ARdata(ns_ip)]))
        zone.add_rrset(RRset(apex.prepend("ns2"), rdtypes.A, config.default_ttl, [ARdata(ns_ip)]))

    if inputs.dnssec:
        inception = timeline.epoch_seconds(date) - 3600
        if overlay is not None and overlay.expired_rrsig:
            # Injected DNSSEC breakage: the validity window closed an
            # hour before today began, so validators go BOGUS.
            zone.sign(inception - 30 * 86400, expiration=inception)
        else:
            zone.sign(inception)
    return zone


def dnssec_active(profile: DomainProfile, config: SimConfig, date: datetime.date) -> bool:
    if not profile.dnssec_signed:
        return False
    if profile.dnssec_sign_day < 0:
        return True
    return timeline.day_index(date) >= profile.dnssec_sign_day


def zone_body_fingerprint(
    profile: DomainProfile,
    config: SimConfig,
    date: datetime.date,
    ech_wire: Optional[bytes],
) -> tuple:
    """The exact date-dependent inputs :func:`build_zone` builds from:
    everything except the SOA serial and the RRSIG inception time.

    Two dates with equal fingerprints produce zones whose bodies differ
    only in SOA serial and signature timestamps, so the world's tier-2
    zone-body reuse (:meth:`~repro.simnet.world.World.zone_of`) can roll
    the serial and re-sign instead of rebuilding from scratch. The
    fingerprint must stay *sound* (equal fingerprints, equal bodies);
    sharing :func:`_zone_inputs` with :func:`build_zone` is what keeps
    it so. It is also close to *exact*: values no record carries (the
    Cloudflare ALPN list of a zone without a Cloudflare default record,
    ECH bytes of a zone that publishes none) are left out, so e.g. an
    hourly key rotation or the h3-29 retirement does not invalidate a
    zone whose records ignore it.
    Static profile attributes (shapes, cohorts, seeds) need no entry:
    the fingerprint only ever compares one profile against itself.
    """
    return _zone_inputs(profile, config, date, ech_wire)
