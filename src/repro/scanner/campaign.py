"""Campaign orchestration: run the full study against a world.

Replays the paper's measurement schedule (Table 1) chronologically:

* daily HTTPS/A/AAAA scans over the whole window (sampled every
  ``day_step`` days to keep runtime bounded — ratios are step-invariant);
* SOA/NS recorded from 2023-08-16, NS-IP + WHOIS from 2023-10-11;
* hourly ECH scans during 2023-07-21 – 2023-07-27;
* connectivity probes from 2024-01-24;
* the DNSSEC validation snapshot on (the first scan day at or after)
  2024-01-02.

Schedule construction (which study days and windows are active) is
separated from per-day scanning so the sequential runner here and the
sharded pipeline (:mod:`~repro.scanner.pipeline`) execute the exact same
plan.
"""

from __future__ import annotations

import dataclasses
import datetime
from typing import AbstractSet, Callable, Mapping, Optional, Sequence, Tuple

from ..dnscore import rdtypes
from ..dnssec.validation import ChainValidator
from ..simnet import timeline
from ..simnet.faults import FaultSchedule
from ..simnet.world import World
from .dataset import DailySnapshot, Dataset
from .engine import ScanEngine, share


@dataclasses.dataclass
class RunStats:
    """Transport and cache counters for one campaign run.

    Purely diagnostic (never part of dataset equality): how many DNS
    queries and TCP connects the run's world(s) carried. The fault-path
    counters (query timeouts, retries, and hosts found unreachable,
    summed over the world's recursive resolvers) surface what a chaos
    scenario — or organic simulated misbehaviour — cost the clients.
    The answer fast-path counters report what the world's layered caches
    saved: rendered-answer hits/misses (tier 1) and decoded-template hits
    (tier 3), both 0 outside wire mode, and zone builds vs zone-body
    reuses (tier 2). A stored body whose HTTPS RRsets were swapped
    (an ECH key rotation or ALPN change) counts as a reuse, not a
    build. Every world is built with the fast path armed; a
    world that a test or bench disarmed reports 0 hits and reuses. The
    pipeline sums per-worker stats into the merged run summary;
    sequential runs record their single world's counters.
    ``answer_evictions`` is always 0: rendered answers leave with their
    zone, not by eviction. The field stays so stored datasets and
    benchmark records keep their shape.
    """

    dns_queries: int = 0
    tcp_connects: int = 0
    timeouts: int = 0
    retries: int = 0
    unreachables: int = 0
    answer_hits: int = 0
    answer_misses: int = 0
    answer_evictions: int = 0
    wire_byte_hits: int = 0
    zone_builds: int = 0
    zone_body_reuses: int = 0

    def __add__(self, other: "RunStats") -> "RunStats":
        if not isinstance(other, RunStats):
            return NotImplemented
        return RunStats(
            *(a + b for a, b in zip(dataclasses.astuple(self), dataclasses.astuple(other)))
        )

    @classmethod
    def of_world(cls, world: World) -> "RunStats":
        """Counters accumulated by *world* since its construction."""
        stats = cls(
            dns_queries=world.network.dns_query_count,
            tcp_connects=world.network.tcp_connect_count,
        )
        for resolver in (world.google_resolver, world.cloudflare_resolver):
            stats.timeouts += resolver.timeouts
            stats.retries += resolver.retries
            stats.unreachables += resolver.unreachables
        cache = world.answer_cache
        stats.answer_hits = cache.hits
        stats.answer_misses = cache.misses
        stats.wire_byte_hits = cache.wire_hits
        stats.zone_builds = world.zone_builds
        stats.zone_body_reuses = world.zone_body_reuses
        return stats

    def summary(self) -> str:
        text = (
            f"dns_queries={self.dns_queries} tcp_connects={self.tcp_connects}"
        )
        if self.timeouts or self.retries or self.unreachables:
            text += (
                f" timeouts={self.timeouts}"
                f" retries={self.retries}"
                f" unreachables={self.unreachables}"
            )
        if self.answer_hits or self.answer_misses:
            text += (
                f" answer_hits={self.answer_hits}"
                f" answer_misses={self.answer_misses}"
                f" wire_byte_hits={self.wire_byte_hits}"
            )
        if self.zone_body_reuses:
            text += (
                f" zone_builds={self.zone_builds}"
                f" zone_body_reuses={self.zone_body_reuses}"
            )
        return text


@dataclasses.dataclass(frozen=True)
class CampaignSchedule:
    """The resolved plan of a campaign: which days to scan and which
    special windows (hourly ECH, DNSSEC snapshot) are active.

    Plain data (dates + ints only) so it can cross process boundaries to
    pipeline workers unchanged.
    """

    day_step: int
    scan_days: Tuple[datetime.date, ...]
    ech_days: Tuple[datetime.date, ...]
    ech_sample: int
    # Run the DNSSEC snapshot on the first scan day at or after this
    # date; None disables it.
    dnssec_threshold: Optional[datetime.date]


def build_schedule(
    day_step: int = 7,
    start: Optional[datetime.date] = None,
    end: Optional[datetime.date] = None,
    ech_sample: int = 200,
    with_ech_hourly: bool = True,
    with_dnssec_snapshot: bool = True,
) -> CampaignSchedule:
    """Resolve the study calendar into a concrete scan plan."""
    days = set(timeline.study_days(day_step, start, end))
    range_start = start or timeline.STUDY_START
    range_end = end or timeline.STUDY_END
    ech_days: Tuple[datetime.date, ...] = ()
    if with_ech_hourly:
        # The hourly ECH scan needs every day of its week (§4.4.2).
        window = timeline.study_days(
            1,
            max(range_start, timeline.ECH_HOURLY_SCAN_START),
            min(range_end, timeline.ECH_HOURLY_SCAN_END),
        )
        days.update(window)
        ech_days = tuple(sorted(window))
    dnssec_threshold = timeline.DNSSEC_SNAPSHOT if with_dnssec_snapshot else None
    if with_dnssec_snapshot and range_start <= timeline.DNSSEC_SNAPSHOT <= range_end:
        days.add(timeline.DNSSEC_SNAPSHOT)
    return CampaignSchedule(
        day_step=day_step,
        scan_days=tuple(sorted(days)),
        ech_days=ech_days,
        ech_sample=ech_sample,
        dnssec_threshold=dnssec_threshold,
    )


def slice_schedule(
    schedule: CampaignSchedule, days: Sequence[datetime.date]
) -> CampaignSchedule:
    """Restrict *schedule* to a subset of its scan days: the plan of one
    arriving day-slice increment.

    The DNSSEC-snapshot threshold is resolved to the concrete day the
    *full* schedule would run it on (the first scan day at or after the
    threshold), and only the slice owning that day keeps a threshold —
    otherwise every slice past the threshold would take its own snapshot
    on its own first day and the fold would diverge from the one-shot
    run. The hourly ECH window is likewise restricted to the slice's
    days (ECH target selection is per-day, so the window splits cleanly
    across slice boundaries).
    """
    wanted = set(days)
    unknown = wanted - set(schedule.scan_days)
    if unknown:
        raise ValueError(f"days not in the schedule: {sorted(unknown)}")
    resolved = None
    if schedule.dnssec_threshold is not None:
        resolved = next(
            (d for d in schedule.scan_days if d >= schedule.dnssec_threshold), None
        )
    return CampaignSchedule(
        day_step=schedule.day_step,
        scan_days=tuple(sorted(wanted)),
        ech_days=tuple(d for d in schedule.ech_days if d in wanted),
        ech_sample=schedule.ech_sample,
        dnssec_threshold=resolved if resolved in wanted else None,
    )


def run_campaign(
    world: World,
    day_step: int = 7,
    start: Optional[datetime.date] = None,
    end: Optional[datetime.date] = None,
    ech_sample: int = 200,
    with_ech_hourly: bool = True,
    with_dnssec_snapshot: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    scenario: Optional[FaultSchedule] = None,
) -> Dataset:
    """Run the full measurement campaign and return the dataset."""
    schedule = build_schedule(
        day_step=day_step,
        start=start,
        end=end,
        ech_sample=ech_sample,
        with_ech_hourly=with_ech_hourly,
        with_dnssec_snapshot=with_dnssec_snapshot,
    )
    return run_scheduled(world, schedule, progress=progress, scenario=scenario)


def run_scheduled(
    world: World,
    schedule: CampaignSchedule,
    progress: Optional[Callable[[str], None]] = None,
    names: Optional[AbstractSet[str]] = None,
    scan_nameservers: bool = True,
    seen_https: Optional[AbstractSet[str]] = None,
    scenario: Optional[FaultSchedule] = None,
) -> Dataset:
    """Execute *schedule* against *world*, optionally restricted to a
    name-slice.

    With *names* given, only listed domains in that set are scanned each
    day (the snapshot still records the full ranked list); this is the
    unit of work a pipeline shard executes. Cross-day state (the
    ``seen_https`` deactivation watchlist) stays correct because a slice
    owns each of its domains' full history. ``scan_nameservers=False``
    skips the per-day NS-IP scan (the pipeline runs it post-merge so
    name servers shared across shards are scanned once, not N times).
    *seen_https* carries the deactivation watchlist across day-slice
    increments: a continuation run over later days passes the apexes
    that already published HTTPS on earlier days (recoverable as the
    union of ``snapshot.apex`` keys), so the fold of day-slices watches
    exactly the domains a one-shot run would.
    *scenario* installs a :class:`~repro.simnet.faults.FaultSchedule` on
    the world for the duration of the run (cleared on exit, so reused
    worlds go back pristine); observations are value-equal
    across serial and sharded execution of the same scenario.
    The run uses whatever answer fast path the world has armed. Every
    world is built armed; a world disarmed for a reference run gives the
    same dataset, per-server query logs and transport counters (see
    :class:`~repro.simnet.world.World`).
    """
    config = world.config
    engine = ScanEngine(world)
    dataset = Dataset(config.population, config.seed, schedule.day_step)
    ech_days = set(schedule.ech_days)
    dnssec_done = False
    # Apexes that published HTTPS at least once (earlier increments' carry
    # plus this run's own days); copied so the caller's set is untouched.
    seen_https = set() if seen_https is None else set(seen_https)

    chaos = scenario is not None and bool(scenario)
    if chaos:
        world.install_faults(scenario)
    try:
        for date in schedule.scan_days:
            world.set_time(date)
            snapshot = _scan_one_day(
                world, engine, date, seen_https, names=names,
                scan_nameservers=scan_nameservers,
            )
            dataset.add_snapshot(snapshot)
            if progress is not None:
                progress(
                    f"{date} list={snapshot.list_size} "
                    f"https={snapshot.apex_https_count}/{snapshot.www_https_count}"
                )

            if date in ech_days:
                _run_ech_hourly(world, engine, dataset, date, schedule.ech_sample)

            if (
                schedule.dnssec_threshold is not None
                and not dnssec_done
                and date >= schedule.dnssec_threshold
            ):
                _dnssec_snapshot(world, dataset, date, names=names)
                dnssec_done = True

        dataset.run_stats = RunStats.of_world(world)
    finally:
        if chaos:
            world.clear_faults()
    return dataset


def _scan_one_day(
    world: World,
    engine: ScanEngine,
    date: datetime.date,
    seen_https: Optional[set] = None,
    names: Optional[AbstractSet[str]] = None,
    scan_nameservers: bool = True,
) -> DailySnapshot:
    """Scan one day; with *names*, only that slice of the ranked list."""
    if seen_https is None:
        seen_https = set()
    ranked = tuple(world.tranco_list(date))
    targets = ranked if names is None else tuple(n for n in ranked if n in names)
    snapshot = DailySnapshot(date, ranked)
    in_ns_window = date >= timeline.SOA_NS_SCAN_START
    in_nsip_window = date >= timeline.NS_IP_WHOIS_SCAN_START
    in_connectivity_window = date >= timeline.CONNECTIVITY_SCAN_START

    for name_text in targets:
        profile = world.profile_by_name(name_text)
        if profile is None:  # pragma: no cover - registry is complete
            continue
        apex_obs = engine.scan_name(profile.apex, "apex", text=name_text)
        if not in_ns_window:
            # Table 1: SOA/NS collection starts 2023-08-16.
            apex_obs.ns_names = ()
            apex_obs.soa_serial = None
        if apex_obs.has_https:
            snapshot.apex_https_count += 1
            snapshot.apex[apex_obs.name] = apex_obs
            seen_https.add(apex_obs.name)
            if in_connectivity_window:
                probe = engine.probe_connectivity(profile, apex_obs, date)
                if probe is not None:
                    snapshot.connectivity.append(probe)
        elif in_ns_window and apex_obs.name in seen_https:
            # Deactivation follow-up (§4.2.3): track the NS records of
            # domains that used to publish HTTPS.
            ns_response = world.stub.query(profile.apex, rdtypes.NS)
            snapshot.watchlist_ns[apex_obs.name] = _ns_name_tuple(ns_response, profile.apex)
        www_obs = engine.scan_name(profile.www, "www")
        if not in_ns_window:
            www_obs.ns_names = ()
            www_obs.soa_serial = None
        if www_obs.has_https:
            snapshot.www_https_count += 1
            snapshot.www[www_obs.name] = www_obs

    if scan_nameservers and in_nsip_window:
        for hostname, observation in scan_nameserver_set(
            engine, sorted(ns_hostnames_of(snapshot))
        ):
            snapshot.ns_observations[hostname] = observation
    return snapshot


def scan_nameserver_set(engine: ScanEngine, hostnames):
    """Resolve + WHOIS-attribute *hostnames* in order (shared by the
    per-day scan and the pipeline's post-merge NS stage so the two paths
    cannot drift apart)."""
    return [(hostname, engine.scan_nameserver(hostname)) for hostname in hostnames]


def scan_ech_hour(engine: ScanEngine, names, absolute_hour: int):
    """One hour's ECH rescan over *names* (shared by the sequential
    runner and the pipeline's ECH stage)."""
    scanned = (engine.scan_ech(name, absolute_hour) for name in names)
    return [observation for observation in scanned if observation is not None]


def _ns_name_tuple(ns_response, apex) -> Tuple[str, ...]:
    """The sorted NS target names of *apex* in *ns_response* (() when the
    domain currently has no NS records at all)."""
    ns_rrset = ns_response.get_answer(apex, rdtypes.NS)
    if ns_rrset is None:
        return ()
    return share(tuple(sorted(share(rd.target.to_text(omit_final_dot=True)) for rd in ns_rrset)))


def ns_hostnames_of(snapshot: DailySnapshot) -> set:
    """Hostnames the day's NS-IP scan covers: every name server seen on
    an HTTPS-bearing apex/www observation that day (shared with the
    pipeline's post-merge NS stage)."""
    seen: set = set()
    for obs in snapshot.apex.values():
        seen.update(obs.ns_names)
    for obs in snapshot.www.values():
        seen.update(obs.ns_names)
    return seen


def _run_ech_hourly(
    world: World,
    engine: ScanEngine,
    dataset: Dataset,
    date: datetime.date,
    sample: int,
) -> None:
    """Hourly rescans of ECH-bearing domains for *date* (§4.4.2).

    Called once per day within the Jul 21–27 window; hours run forward so
    the world clock stays monotonic with the daily scans around it.
    """
    today = dataset.snapshots[date]
    targets = ech_targets(today, sample)
    if not targets:
        return
    names = [world.profile_by_name(t).apex for t in targets]
    for hour in range(24):
        world.set_time(date, hour)
        absolute_hour = timeline.day_index(date) * 24 + hour
        dataset.ech_observations.extend(
            scan_ech_hour(engine, names, absolute_hour)
        )
    # Park the clock at the end of the day so the next daily scan is forward.
    world.set_time(date, 23.9)


def ech_targets(snapshot: DailySnapshot, sample: int):
    """The day's hourly-rescan targets: the first *sample* ECH-bearing
    apexes in name order (shared with the pipeline's ECH stage)."""
    return [name for name, obs in sorted(snapshot.apex.items()) if obs.has_ech][:sample]


def _dnssec_snapshot(
    world: World,
    dataset: Dataset,
    date: datetime.date,
    names: Optional[AbstractSet[str]] = None,
) -> None:
    """Validate the DNSSEC chain of every listed apex (Table 9)."""
    validator = ChainValidator(world.validator_source)
    now = timeline.epoch_seconds(date)
    snapshot = dataset.snapshots[date]
    https_names = set(snapshot.apex)
    for name_text in snapshot.ranked_names:
        if names is not None and name_text not in names:
            continue
        profile = world.profile_by_name(name_text)
        if profile is None:
            continue
        zone = world.authoritative_zone_for(profile.apex)
        signed = bool(zone is not None and zone.signed)
        state = "unsigned"
        if signed:
            has_https = name_text in https_names
            rdtype = rdtypes.HTTPS if has_https else rdtypes.DNSKEY
            result = validator.validate(profile.apex, rdtype, now)
            state = result.state.value
        ns_names = ()
        obs = snapshot.apex.get(name_text)
        if obs is not None:
            ns_names = obs.ns_names
        dataset.dnssec_snapshot[name_text] = (
            name_text in https_names,
            signed,
            state,
            ns_names,
            profile.registrar,
            profile.provider_key,
        )
    dataset.dnssec_snapshot_date = date


def canonical_cache_tag(kwargs: Mapping[str, object]) -> str:
    """A stable cache-key fragment for campaign kwargs.

    Accepts primitives (None/bool/int/float/str) and ISO-datable values
    only; anything else (callables, collections, …) has no stable repr
    across runs and is rejected so the cache can never silently key on
    an unstable string.
    """
    parts = []
    for key in sorted(kwargs):
        value = kwargs[key]
        if value is None or isinstance(value, bool):
            text = f"{type(value).__name__}:{value}"
        elif isinstance(value, (int, float, str)):
            text = f"{type(value).__name__}:{value!r}"
        elif isinstance(value, (datetime.date, datetime.datetime)):
            text = f"date:{value.isoformat()}"
        else:
            raise TypeError(
                f"campaign kwarg {key}={value!r} is not cacheable "
                "(primitives and dates only)"
            )
        parts.append(f"{key}={text}")
    return "|".join(parts)
