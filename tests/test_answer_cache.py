"""The layered answer fast path (rendered-answer + zone-body +
wire-byte caches) — PR 9.

The headline guarantee: arming the cache changes walltime and the
fast-path counters, *nothing else*. Every suite here pins one face of
that claim — dataset value-equality against a cache-off run under
serial, wire-mode, sharded, continuous kill+resume, and chaos
execution; per-server ``query_log`` / ``dns_query_count`` identity (the
cache sits behind logging and the fault hook); lifecycle hygiene (a
world is built armed, ``World.reset()`` re-arms it and keeps its fast
path, rendered answers are scoped to the fault schedule they were
rendered under, and a world disarmed with ``set_answer_cache(False)``
stays disarmed through a campaign); pooled-world reuse (a collection
on one pooled world equals one on fresh worlds); and zone-owned entries
(rendered answers are held only for zones the world still keeps, at
their current version).

The cache-off reference runs disarm their world through that one hook.

Tiers 1 and 3 arm in wire mode only, so the suites that need rendered
answers run on ``WIRE_CONFIG``; object mode arms zone-body reuse alone.
"""

import datetime
import hashlib
import os
import weakref

import pytest

from repro.dnscore import rdtypes
from repro.dnscore.message import Message
from repro.dnscore.names import Name
from repro.gcutils import paused_gc
from repro.resolver.authoritative import AnswerCache
from repro.scanner import (
    CollectionInterrupted,
    ContinuousCollector,
    ParallelCampaignRunner,
    run_campaign,
)
from repro.scanner import pipeline
from repro.scanner.campaign import RunStats
from repro.simnet import SimConfig, World, domains, ipspace, snapshot, timeline
from repro.simnet.faults import FaultSchedule, FaultSpec
from repro.simnet.providers import PROVIDERS
from repro.zones.zone import Zone

CONFIG = SimConfig(population=120)
WIRE_CONFIG = SimConfig(population=120, wire_mode=True)
SCENARIO_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "chaos_scenario.json"
)

# The ECH window: hourly scans repeat the same questions within a day,
# so every armed tier (rendered answers, zone-body reuse, wire bytes)
# gets real traffic even at test scale.
ECH_KWARGS = dict(
    day_step=7,
    start=datetime.date(2023, 7, 14),
    end=datetime.date(2023, 7, 31),
    ech_sample=5,
)


def arm_query_logs(world):
    """Enable per-server query logging; ip → that server's live log."""
    logs = {}
    for ip, server in sorted(world.network._dns_servers.items()):
        if hasattr(server, "query_log"):
            server.log_queries = True
            logs[ip] = server.query_log
    return logs


def query_counts(world):
    return {
        ip: server.dns_query_count
        for ip, server in sorted(world.network._dns_servers.items())
        if hasattr(server, "dns_query_count")
    }


def disarmed_world(config):
    """A world with the fast path off: the cache-off reference."""
    world = World(config)
    world.set_answer_cache(False)
    return world


def run_logged(config, armed, **kwargs):
    world = World(config) if armed else disarmed_world(config)
    logs = arm_query_logs(world)
    dataset = run_campaign(world, **kwargs)
    return dataset, logs, world


@pytest.fixture(scope="module")
def wire_pair():
    """Cache-off and cache-on wire-mode runs: the mode that arms tiers 1
    and 3, because only there is a codec for them to skip."""
    off = run_logged(WIRE_CONFIG, False, **ECH_KWARGS)
    on = run_logged(WIRE_CONFIG, True, **ECH_KWARGS)
    return off, on


class TestSerialEquivalence:
    """Cache-on and cache-off runs are indistinguishable in the data."""

    @pytest.fixture(scope="class")
    def pair(self):
        off = run_logged(CONFIG, False, **ECH_KWARGS)
        on = run_logged(CONFIG, True, **ECH_KWARGS)
        return off, on

    def test_datasets_value_equal(self, pair):
        (ds_off, _, _), (ds_on, _, _) = pair
        assert ds_on == ds_off

    def test_per_server_query_logs_identical(self, pair):
        (_, logs_off, _), (_, logs_on, _) = pair
        assert sorted(logs_on) == sorted(logs_off)
        for ip in logs_on:
            assert logs_on[ip] == logs_off[ip], f"query_log diverged on {ip}"

    def test_per_server_query_counts_identical(self, pair):
        (_, _, world_off), (_, _, world_on) = pair
        assert query_counts(world_on) == query_counts(world_off)

    def test_counters_report_the_fast_path(self, wire_pair):
        (ds_off, _, _), (ds_on, _, _) = wire_pair
        assert ds_on.run_stats.answer_hits > 0
        assert ds_on.run_stats.zone_body_reuses > 0
        assert ds_off.run_stats.answer_hits == 0
        assert ds_off.run_stats.answer_misses == 0
        assert ds_off.run_stats.zone_body_reuses == 0
        # counters are diagnostics, not data: equality above already
        # held even though these differ

    def test_object_mode_arms_zone_reuse_only(self, pair):
        """Without a codec there is nothing for tiers 1 and 3 to skip, so
        an armed object-mode run reuses zone bodies and stores no
        rendered answer at any point of the run."""
        (ds_off, logs_off, _), _ = pair
        world = World(CONFIG)
        logs = arm_query_logs(world)
        held = []
        ds_on = run_campaign(
            world,
            progress=lambda _line: held.append(len(world.answer_cache)),
            **ECH_KWARGS,
        )
        assert ds_on == ds_off
        assert logs == logs_off
        assert ds_on.run_stats.zone_body_reuses > 0
        assert held and set(held) == {0}
        assert len(world.answer_cache) == 0
        assert ds_on.run_stats.answer_hits == ds_on.run_stats.answer_misses == 0

    def test_disarmed_world_stays_disarmed_through_a_campaign(self, wire_pair):
        (ds_off, _, world_off), _ = wire_pair
        assert world_off.answer_cache.enabled is False
        assert world_off._zone_bodies == {}
        assert len(world_off.answer_cache) == 0
        stats = ds_off.run_stats
        assert stats.zone_body_reuses == stats.answer_hits == stats.answer_misses == 0


class TestWireModeEquivalence:
    """Tier 3: the byte-patch round trip serves the same messages."""

    def test_datasets_value_equal(self, wire_pair):
        (ds_off, _, _), (ds_on, _, _) = wire_pair
        assert ds_on == ds_off

    def test_query_logs_identical(self, wire_pair):
        (_, logs_off, _), (_, logs_on, _) = wire_pair
        assert logs_on == logs_off

    def test_wire_bytes_actually_reused(self, wire_pair):
        _, (ds_on, _, _) = wire_pair
        assert ds_on.run_stats.wire_byte_hits > 0

    def test_wire_mode_equals_object_mode(self, wire_pair):
        """Cross-check against the non-wire cached run: the codec plus
        both byte-level caches still change nothing."""
        _, (ds_on, _, _) = wire_pair
        plain = run_campaign(World(CONFIG), **ECH_KWARGS)
        assert ds_on == plain


class TestExecutionModeEquivalence:
    """The cache composes with every execution shape."""

    @pytest.fixture(scope="class")
    def serial_off(self):
        return run_campaign(disarmed_world(CONFIG), **ECH_KWARGS)

    def test_sharded(self, serial_off):
        parallel = ParallelCampaignRunner(WIRE_CONFIG, workers=3, **ECH_KWARGS).run()
        assert parallel == serial_off
        assert parallel.run_stats.answer_hits > 0

    def test_continuous_kill_and_resume(self, serial_off, tmp_path):
        collector = ContinuousCollector(
            CONFIG, str(tmp_path / "ckpt"), workers=2, days_per_increment=2,
            **ECH_KWARGS
        )
        with pytest.raises(CollectionInterrupted):
            collector.collect(max_increments=1)
        resumed = ContinuousCollector(
            CONFIG, str(tmp_path / "ckpt"), workers=2, days_per_increment=2,
            **ECH_KWARGS
        ).collect()
        assert resumed == serial_off

    def test_chaos_scenario(self):
        """Under the CI chaos schedule, cache-on equals cache-off —
        faulted deliveries bypass the cache and faulted zone builds are
        never body-reused."""
        scenario = FaultSchedule.load(SCENARIO_PATH)
        kwargs = dict(day_step=28, ech_sample=20, scenario=scenario)
        off = run_logged(WIRE_CONFIG, False, **kwargs)
        on = run_logged(WIRE_CONFIG, True, **kwargs)
        assert on[0] == off[0]
        assert on[1] == off[1]  # per-server query logs
        assert on[0].run_stats.timeouts > 0  # the schedule actually bit
        assert on[0].run_stats.answer_hits > 0


class TestZoneBodyReuse:
    """Tier 2: a reused body is value-identical to a fresh build."""

    def zone_key(self, zone):
        return sorted(
            (rr.name.to_text(), rr.rdtype, rr.ttl,
             tuple(sorted(r.wire_bytes() for r in rr.rdatas)))
            for rr in zone.rrsets()
        )

    def test_reused_zone_equals_fresh_build(self):
        warm = World(CONFIG)
        day = datetime.date(2023, 7, 14)
        profile = next(
            p for p in warm.listed_profiles(day)
            if p.adopter and domains.zone_body_fingerprint(
                p, CONFIG, day, None
            ) == domains.zone_body_fingerprint(
                p, CONFIG, day + datetime.timedelta(days=1), None
            )
        )
        warm.set_time(day)
        warm.zone_of(profile)
        builds = warm.zone_builds
        warm.set_time(day + datetime.timedelta(days=1))
        reused = warm.zone_of(profile)
        assert warm.zone_body_reuses >= 1
        assert warm.zone_builds == builds  # no rebuild for this profile

        fresh = World(CONFIG)
        fresh.set_time(day + datetime.timedelta(days=1))
        rebuilt = fresh.zone_of(profile)
        assert self.zone_key(reused) == self.zone_key(rebuilt)
        assert reused.soa[0].serial == rebuilt.soa[0].serial

    def body_key(self, zone):
        """zone_key without the records a date change always rewrites."""
        return [k for k in self.zone_key(zone) if k[1] not in (rdtypes.SOA, rdtypes.DNSKEY)]

    @pytest.mark.parametrize(
        "boundary",
        [timeline.H3_29_RETIREMENT, timeline.GOOGLE_QUIC_APPEARANCE],
        ids=["h3-29-retirement", "google-quic-appearance"],
    )
    def test_reuse_across_alpn_date_boundary(self, boundary):
        """A Cloudflare default-config adopter whose zone does not change
        at a date boundary of the ALPN list (no HTTPS record yet, or an
        ALPN list the boundary leaves alone) is reused across it."""
        day = boundary - datetime.timedelta(days=1)
        before, after = World(CONFIG), World(CONFIG)
        before.set_time(day)
        after.set_time(boundary)
        profile = next(
            p for p in before.profiles
            if p.adopter and p.is_cloudflare and not p.custom_config
            and self.body_key(before.zone_of(p)) == self.body_key(after.zone_of(p))
        )
        warm = World(CONFIG)
        warm.set_time(day)
        warm.zone_of(profile)
        builds = warm.zone_builds
        warm.set_time(boundary)
        reused = warm.zone_of(profile)
        assert warm.zone_builds == builds  # no rebuild for this profile
        assert warm.zone_body_reuses == 1
        rebuilt = after.zone_of(profile)  # a fresh build on the boundary day
        assert self.zone_key(reused) == self.zone_key(rebuilt)
        assert reused.soa[0].serial == rebuilt.soa[0].serial

    def test_alpn_change_rebuilds(self):
        boundary = timeline.H3_29_RETIREMENT
        day = boundary - datetime.timedelta(days=1)
        warm = World(CONFIG)
        warm.set_time(day)
        profile = next(
            p for p in warm.profiles
            if p.is_cloudflare and not p.custom_config and not p.www_only
            and domains.https_configured(p, CONFIG, day)
            and domains.https_configured(p, CONFIG, boundary)
        )
        first = warm.zone_of(profile)
        assert "h3-29" in first.get_rrset(profile.apex, rdtypes.HTTPS)[0].params.alpn
        builds = warm.zone_builds
        warm.set_time(boundary)
        zone = warm.zone_of(profile)
        assert warm.zone_builds == builds + 1
        assert warm.zone_body_reuses == 0
        assert "h3-29" not in zone.get_rrset(profile.apex, rdtypes.HTTPS)[0].params.alpn

        fresh = World(CONFIG)
        fresh.set_time(boundary)
        assert self.zone_key(zone) == self.zone_key(fresh.zone_of(profile))

    def test_same_day_reuse_skips_serial_roll(self):
        world = World(CONFIG)
        day = datetime.date(2023, 7, 14)
        world.set_time(day)
        profile = next(p for p in world.listed_profiles(day) if p.adopter)
        first = world.zone_of(profile)
        serial = first.soa[0].serial
        world.set_time(day, hour=9.0)  # same day, later hour
        again = world.zone_of(profile)
        assert again is first
        assert again.soa[0].serial == serial
        assert serial == timeline.day_index(day) + 1


class TestLifecycle:
    @staticmethod
    def assert_armed_with_zeroed_counters(world):
        # Tiers 1 and 3 arm in wire mode only; tier 2 in every mode.
        assert world.answer_cache.enabled is world.config.wire_mode
        assert world._zone_reuse is True
        assert world.answer_cache.hits == world.answer_cache.misses == 0
        assert world.zone_builds == world.zone_body_reuses == 0

    @pytest.mark.parametrize("config", [CONFIG, WIRE_CONFIG], ids=["object", "wire"])
    def test_reset_rearms_and_keeps_the_fast_path(self, config):
        """A world is built armed and empty. Reset zeroes the counters and
        keeps zone bodies (and, in wire mode, rendered answers and query
        templates); a disarmed world comes back armed and empty."""
        world = World(config)
        self.assert_armed_with_zeroed_counters(world)
        assert world._zone_bodies == {} and len(world.answer_cache) == 0
        world.set_time(datetime.date(2023, 7, 14))
        world.stub.query_https(world.tranco_list()[1])
        bodies = dict(world._zone_bodies)
        answers = len(world.answer_cache)
        assert bodies and world.zone_builds > 0
        assert (answers > 0) is config.wire_mode
        world.reset()
        self.assert_armed_with_zeroed_counters(world)
        assert world._zone_bodies == bodies
        assert len(world.answer_cache) == answers
        assert bool(world.answer_cache._queries) is config.wire_mode

        world.set_answer_cache(False)
        world.reset()
        self.assert_armed_with_zeroed_counters(world)
        assert world._zone_bodies == {} and len(world.answer_cache) == 0

    def test_disarm_drops_zone_bodies(self):
        world = World(CONFIG)
        world.set_time(datetime.date(2023, 7, 14))
        world.zone_of(next(p for p in world.listed_profiles() if p.adopter))
        assert world._zone_bodies
        world.set_answer_cache(False)
        assert world._zone_bodies == {}
        assert len(world.answer_cache) == 0

    def test_answers_are_scoped_to_their_fault_schedule(self):
        """An answer rendered under schedule S is never served under
        another schedule or none, and is served again once S is back
        after a reset (the pooled-world checkout path)."""
        day = datetime.date(2023, 9, 15)
        chaos = FaultSchedule.load(SCENARIO_PATH)
        loss = FaultSchedule(
            name="loss",
            specs=(FaultSpec(kind="packet_loss", ip=ipspace.TLD_SERVER_IP, rate=0.5),),
        )
        world = World(WIRE_CONFIG)
        root = world.network.dns_server_at(ipspace.ROOT_SERVER_IP)

        def ask():
            query = Message.make_query(Name.from_text("com."), rdtypes.NS)
            return root.handle_query(query).answer_entry

        world.set_time(day)
        world.install_faults(chaos)
        rendered = ask()
        assert ask() is rendered

        world.reset()
        world.install_faults(chaos)
        world.set_time(day)
        assert ask() is rendered

        world.install_faults(loss)
        assert ask() is not rendered

        world.install_faults(chaos)
        rendered = ask()
        world.clear_faults()
        assert ask() is not rendered

    def test_ns_suffix_body_does_not_survive_reset(self):
        """cf-ns.com doubles as an NS suffix: zone_of adds its NS-host
        records after signing, so its body is rebuilt after a reset."""
        world = World(CONFIG)
        world.set_time(datetime.date(2023, 7, 14))
        ns_suffix = world.profile_by_name("cf-ns.com")
        other = next(
            p for p in world.listed_profiles()
            if p.adopter and p.index != ns_suffix.index
        )
        world.zone_of(ns_suffix)
        world.zone_of(other)
        assert {ns_suffix.index, other.index} <= set(world._zone_bodies)
        world.reset()
        assert ns_suffix.index not in world._zone_bodies
        assert other.index in world._zone_bodies


class TestPooledWorldReuse:
    """A continuous collection that checks one pooled world out at every
    stage, fast path carried across resets, equals one that builds a
    fresh world at every checkout: same dataset, same per-server query
    logs."""

    LOSS = FaultSchedule(
        name="cloudflare-loss",
        specs=(
            FaultSpec(
                kind="packet_loss",
                start=datetime.date(2023, 9, 1),
                end=datetime.date(2024, 1, 31),
                ip=PROVIDERS["cloudflare"].server_ip,
                rate=0.2,
            ),
        ),
    )

    def collect(self, config, directory, monkeypatch, pooled):
        checked_out = []

        def checkout(cfg):
            world = snapshot.checkout_world(cfg)
            arm_query_logs(world)
            if world not in checked_out:
                checked_out.append(world)
            return world

        monkeypatch.setattr(snapshot, "_IDLE", {})
        monkeypatch.setattr(pipeline, "checkout_world", checkout)
        if not pooled:
            monkeypatch.setattr(pipeline, "checkin_world", lambda world: None)
        collector_kwargs = dict(
            day_step=70, ech_sample=10, days_per_increment=2, scenario=self.LOSS
        )
        while True:
            try:
                dataset = ContinuousCollector(
                    config, directory, **collector_kwargs
                ).collect(max_increments=1)
                break
            except CollectionInterrupted:
                continue
        monkeypatch.undo()
        logs = {}
        for world in checked_out:
            for ip, log in arm_query_logs(world).items():
                logs.setdefault(ip, []).extend(log)
        digests = {
            ip: hashlib.sha256(repr(log).encode()).hexdigest() for ip, log in logs.items()
        }
        return dataset, digests, len(checked_out)

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_pooled_world_equals_fresh_worlds(self, seed, tmp_path, monkeypatch):
        config = SimConfig(population=250, seed=seed, wire_mode=True)
        fresh, fresh_logs, fresh_worlds = self.collect(
            config, str(tmp_path / "fresh"), monkeypatch, pooled=False
        )
        pooled, pooled_logs, pooled_worlds = self.collect(
            config, str(tmp_path / "pooled"), monkeypatch, pooled=True
        )
        assert pooled_worlds == 1 < fresh_worlds
        assert pooled == fresh
        assert pooled_logs == fresh_logs


class TestZoneOwnedEntries:
    """Rendered answers live and die with their zone (wire mode, the
    one mode that stores them)."""

    @staticmethod
    def live_zone_ids(world):
        zones = [world.root_zone, *world.tld_zones.values(), *world._infra_zones.values()]
        zones.extend(world._zone_cache.values())
        zones.extend(zone for _fingerprint, zone in world._zone_bodies.values())
        return {id(zone) for zone in zones}

    def test_entries_belong_to_live_zones_at_their_version(self, monkeypatch):
        """At the end of a campaign (where RunStats reads the world, the
        cache is at its fullest), every zone holding entries is one the
        world still keeps, and every slot is stamped with its zone's
        current version."""
        seen = {}
        of_world = RunStats.of_world.__func__

        def capture(cls, world):
            cache = world.answer_cache
            seen["live"] = self.live_zone_ids(world)
            seen["slots"] = [
                (id(zone), slot[0], zone.cache_stamp()) for zone, slot in cache._zones.items()
            ]
            seen["entries"] = len(cache)
            return of_world(cls, world)

        monkeypatch.setattr(RunStats, "of_world", classmethod(capture))
        run_campaign(World(WIRE_CONFIG), **ECH_KWARGS)
        assert seen["entries"] > 0
        assert {zone_id for zone_id, _, _ in seen["slots"]} <= seen["live"]
        assert all(stamp == current for _, stamp, current in seen["slots"])

    def test_dropped_zone_releases_its_entries(self):
        """A rebuild replaces the stored body: the old zone is freed (by
        reference counting alone, as in a campaign's paused-GC window)
        and its entries go with it."""
        boundary = timeline.H3_29_RETIREMENT
        day = boundary - datetime.timedelta(days=1)
        with paused_gc():
            world = World(WIRE_CONFIG)
            world.set_time(day)
            profile = next(
                p for p in world.profiles
                if p.is_cloudflare and not p.custom_config and not p.www_only
                and domains.https_configured(p, WIRE_CONFIG, day)
                and domains.https_configured(p, WIRE_CONFIG, boundary)
            )
            world.stub.query_https(profile.name)
            zone = world.zone_of(profile)
            held = len(world.answer_cache._zones[zone][1])
            assert held > 0
            before = len(world.answer_cache)
            dropped = weakref.ref(zone)
            del zone
            world.set_time(boundary)
            rebuilt = world.zone_of(profile)  # the ALPN change forces a rebuild
            assert dropped() is None
            assert rebuilt not in world.answer_cache._zones
            assert len(world.answer_cache) == before - held

    def test_resigned_zone_keeps_no_entries_of_its_old_version(self):
        """A body reused on the next day is re-signed (a version bump);
        its first answer replaces the whole slot."""
        day = datetime.date(2023, 7, 14)
        next_day = day + datetime.timedelta(days=1)
        world = World(WIRE_CONFIG)
        world.set_time(day)
        profile = next(
            p for p in world.listed_profiles(day)
            if p.adopter and world.zone_of(p).signed
            and domains.zone_body_fingerprint(p, WIRE_CONFIG, day, None)
            == domains.zone_body_fingerprint(p, WIRE_CONFIG, next_day, None)
        )
        world.stub.query_https(profile.name)
        zone = world.zone_of(profile)
        old_stamp, old_entries = world.answer_cache._zones[zone]
        assert old_entries
        old_ids = {id(entry) for entry in old_entries.values()}

        world.set_time(next_day)
        world.stub.query_https(profile.name)
        assert world.zone_of(profile) is zone  # reused, rolled and re-signed
        stamp, entries = world.answer_cache._zones[zone]
        assert stamp == zone.cache_stamp() != old_stamp
        assert entries is not old_entries
        assert not old_ids & {id(entry) for entry in entries.values()}


class TestAnswerCacheUnit:
    class FakeResponse:
        rcode = 0
        authoritative = True
        answers = ()
        authority = ()
        additional = ()

    ZONE_APEX = Name.from_text("example.")

    @staticmethod
    def key(index):
        return ("quirks", Name.from_text(f"n{index}.example."), rdtypes.A, False)

    def test_version_bump_replaces_the_slot(self):
        cache = AnswerCache()
        cache.set_enabled(True)
        zone = Zone(self.ZONE_APEX)
        for index in range(3):
            cache.store(self.key(index), self.FakeResponse(), zone)
        assert len(cache) == 3
        zone.ensure_soa()  # a mutator: the version moves on
        assert cache.lookup(self.key(0), zone) is None
        cache.store(self.key(3), self.FakeResponse(), zone)
        assert len(cache) == 1
        assert cache.lookup(self.key(3), zone) is not None

    def test_toggle_clears_entries(self):
        cache = AnswerCache()
        cache.set_enabled(True)
        cache.store(self.key(1), self.FakeResponse(), Zone(self.ZONE_APEX))
        cache.set_enabled(False)
        assert len(cache) == 0
        cache.set_enabled(True)
        assert len(cache) == 0

    def test_rescope_drops_other_scopes_and_keeps_counters(self):
        cache = AnswerCache()
        cache.set_enabled(True)
        zone = Zone(self.ZONE_APEX)
        cache.store(self.key(1), self.FakeResponse(), zone)
        assert cache.lookup(self.key(1), zone) is not None
        cache.set_scope("other")
        cache.set_scope(None)  # back before any lookup: nothing dropped
        assert cache.lookup(self.key(1), zone) is not None
        cache.set_scope("other")
        assert cache.lookup(self.key(1), zone) is None
        assert len(cache) == 0
        assert cache.hits == 2 and cache.misses == 1


class TestCacheIdentity:
    """Fast-path counters are diagnostics that sum across workers."""

    def test_run_stats_merge_accumulates_counters(self):
        from repro.scanner.campaign import RunStats

        left = RunStats(answer_hits=3, wire_byte_hits=1, zone_body_reuses=2)
        right = RunStats(answer_hits=4, answer_evictions=1, zone_builds=5)
        merged = left + right
        assert merged.answer_hits == 7
        assert merged.answer_evictions == 1
        assert merged.wire_byte_hits == 1
        assert merged.zone_builds == 5
        assert merged.zone_body_reuses == 2
