"""Tests for world identity, in-process world reuse, and RRSIG
memoisation.

The load-bearing property is *equivalence*: a world checked back out
of the idle pool after a reset must drive campaigns to datasets
value-equal to a freshly built world's, and a process that runs several
stages or ``Study`` sessions builds its world once. Signature
memoisation must be invisible: byte-identical RRSIGs whether the memo
is cold, hot, or disabled.
"""

import datetime

import pytest

from repro.dnscore import rdtypes
from repro.dnscore.names import Name
from repro.dnscore.rdata import ARdata
from repro.dnscore.rrset import RRset
from repro.dnssec.keys import ZoneKeySet, verify_blob
from repro.dnssec.signing import SignatureMemo, sign_rrset, signing_input
from repro.scanner import CollectionInterrupted, run_campaign
from repro.simnet import (
    SimConfig,
    World,
    checkin_world,
    checkout_world,
    timeline,
    world_tag,
)
from repro.simnet import snapshot as snapshot_mod
from repro.simnet import world as world_mod
from repro.study import ExecutionPlan, Study, StudySpec

POPULATION = 150
CONFIG = SimConfig(population=POPULATION)

ECH_KWARGS = dict(
    day_step=7,
    start=datetime.date(2023, 7, 14),
    end=datetime.date(2023, 7, 31),
    ech_sample=5,
)


@pytest.fixture()
def world_builds(monkeypatch):
    """An empty idle pool, and the configs of every world it builds."""
    builds = []

    class CountingWorld(World):
        def __init__(self, config):
            builds.append(config)
            super().__init__(config)

    monkeypatch.setattr(snapshot_mod, "_IDLE", {})
    monkeypatch.setattr(snapshot_mod, "World", CountingWorld)
    return builds


# ---------------------------------------------------------------------------
# equivalence: reused worlds
# ---------------------------------------------------------------------------


class TestEquivalence:
    @pytest.fixture(scope="class")
    def ech_week_fresh(self):
        return run_campaign(World(CONFIG), **ECH_KWARGS)

    def test_reset_world_reproduces_campaign(self, ech_week_fresh):
        world = World(CONFIG)
        first = run_campaign(world, **ECH_KWARGS)
        world.reset()
        second = run_campaign(world, **ECH_KWARGS)
        assert first == ech_week_fresh
        assert second == ech_week_fresh
        # Transport counters restart at reset, so both runs report the
        # same work (a reused world does not inherit the first run's).
        assert second.run_stats.dns_queries == first.run_stats.dns_queries

    def test_continuous_sessions_build_one_world(
        self, ech_week_fresh, world_builds, tmp_path
    ):
        """One Study session per increment, all in this process: every
        stage of every session checks out the same parked world, and
        the fold still equals the one-shot run."""
        spec = StudySpec(CONFIG, **ECH_KWARGS)
        plan = ExecutionPlan(
            continuous=True,
            days_per_increment=1,
            max_increments=1,
            cache_dir=str(tmp_path / "cache"),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        sessions = 0
        while True:
            sessions += 1
            with Study(spec, plan) as study:
                try:
                    dataset = study.run()
                    break
                except CollectionInterrupted:
                    continue
        assert sessions >= 3
        assert world_builds == [CONFIG]
        assert dataset == ech_week_fresh


# ---------------------------------------------------------------------------
# World.reset mechanics
# ---------------------------------------------------------------------------


class TestWorldReset:
    def test_reset_rewinds_time_and_flushes_timed_caches(self):
        world = World(SimConfig(population=60))
        world.set_time(datetime.date(2023, 9, 1), 12)
        world.stub.query(world.profiles[0].apex, rdtypes.HTTPS)
        assert world.google_resolver._cache or world.google_resolver._delegation_cache
        world.reset()
        assert world.current_date == timeline.STUDY_START
        assert world.current_hour == 0.0
        assert world.clock.now == timeline.epoch_seconds(timeline.STUDY_START)
        assert not world.google_resolver._cache
        assert not world.google_resolver._delegation_cache
        assert not world._zone_cache
        assert world.network.dns_query_count == 0
        # The world accepts early dates again.
        world.set_time(datetime.date(2023, 5, 10))

    def test_set_time_still_monotonic_between_resets(self):
        world = World(SimConfig(population=60))
        world.set_time(datetime.date(2023, 9, 1))
        with pytest.raises(ValueError):
            world.set_time(datetime.date(2023, 8, 1))


# ---------------------------------------------------------------------------
# checkout / checkin
# ---------------------------------------------------------------------------


class TestWorldRegistry:
    SMALL = SimConfig(population=60)

    def test_checkout_is_exclusive(self, world_builds):
        first = checkout_world(self.SMALL)
        second = checkout_world(self.SMALL)
        assert first is not second
        assert len(world_builds) == 2

    def test_checkin_then_checkout_reuses(self, world_builds):
        world = checkout_world(self.SMALL)
        checkin_world(world)
        assert checkout_world(self.SMALL) is world
        assert len(world_builds) == 1

    def test_pool_is_keyed_by_config(self, world_builds):
        checkin_world(checkout_world(self.SMALL))
        other = SimConfig(population=61)
        world = checkout_world(other)
        assert len(world.profiles) == 61
        assert world_builds == [self.SMALL, other]

    def test_idle_pool_is_bounded(self, world_builds):
        """One idle world per config: a second checkin replaces the
        first, so the next two checkouts reuse one and build one."""
        first = checkout_world(self.SMALL)
        second = checkout_world(self.SMALL)
        checkin_world(first)
        checkin_world(second)
        assert checkout_world(self.SMALL) is second
        assert checkout_world(self.SMALL) is not first
        assert len(world_builds) == 3

    def test_checkin_resets(self, world_builds):
        world = checkout_world(self.SMALL)
        world.set_time(datetime.date(2023, 10, 1))
        checkin_world(world)
        assert world.current_date == timeline.STUDY_START

    def test_tag_covers_every_config_field(self):
        assert world_tag(CONFIG) != world_tag(
            SimConfig(population=POPULATION, negative_ttl=61)
        )


# ---------------------------------------------------------------------------
# RRSIG memoisation
# ---------------------------------------------------------------------------


def _rrset(owner="signed.example.com.", address="192.0.2.1"):
    name = Name.from_text(owner)
    return name, RRset(name, rdtypes.A, 300, [ARdata(address)])


class TestSignatureMemo:
    INCEPTION = 1_700_000_000

    def test_memo_hit_returns_byte_identical_signature(self):
        name, rrset = _rrset()
        keys = ZoneKeySet(Name.from_text("example.com."))
        memo = SignatureMemo()
        cold = sign_rrset(rrset, keys.zone_name, keys.zsk, self.INCEPTION, memo=memo)
        warm = sign_rrset(rrset, keys.zone_name, keys.zsk, self.INCEPTION, memo=memo)
        assert memo.hits == 1 and memo.misses == 1
        assert warm.signature == cold.signature
        # And identical to a memo-free signer.
        bare = SignatureMemo(enabled=False)
        direct = sign_rrset(rrset, keys.zone_name, keys.zsk, self.INCEPTION, memo=bare)
        assert direct.signature == cold.signature
        assert bare.hits == bare.misses == 0

    def test_signature_still_verifies(self):
        name, rrset = _rrset()
        keys = ZoneKeySet(Name.from_text("example.com."))
        memo = SignatureMemo()
        sign_rrset(rrset, keys.zone_name, keys.zsk, self.INCEPTION, memo=memo)
        warm = sign_rrset(rrset, keys.zone_name, keys.zsk, self.INCEPTION, memo=memo)
        assert verify_blob(
            keys.zsk.dnskey, signing_input(rrset, warm), warm.signature
        )

    def test_validity_window_keys_separate_entries(self):
        name, rrset = _rrset()
        keys = ZoneKeySet(Name.from_text("example.com."))
        memo = SignatureMemo()
        first = sign_rrset(rrset, keys.zone_name, keys.zsk, self.INCEPTION, memo=memo)
        shifted = sign_rrset(
            rrset, keys.zone_name, keys.zsk, self.INCEPTION + 86400, memo=memo
        )
        assert memo.misses == 2 and memo.hits == 0
        assert first.signature != shifted.signature

    def test_distinct_keys_never_collide(self):
        name, rrset = _rrset()
        memo = SignatureMemo()
        a = ZoneKeySet(Name.from_text("a.example."))
        b = ZoneKeySet(Name.from_text("b.example."))
        sig_a = sign_rrset(rrset, a.zone_name, a.zsk, self.INCEPTION, memo=memo)
        sig_b = sign_rrset(rrset, b.zone_name, b.zsk, self.INCEPTION, memo=memo)
        assert sig_a.signature != sig_b.signature
        assert memo.misses == 2

    def test_lru_eviction_keeps_hot_entries(self):
        keys = ZoneKeySet(Name.from_text("example.com."))
        memo = SignatureMemo(capacity=2)
        rrsets = [_rrset(f"n{i}.example.com.", f"192.0.2.{i}")[1] for i in range(3)]
        sign_rrset(rrsets[0], keys.zone_name, keys.zsk, self.INCEPTION, memo=memo)
        sign_rrset(rrsets[1], keys.zone_name, keys.zsk, self.INCEPTION, memo=memo)
        # Touch entry 0 so entry 1 is the LRU victim when 2 arrives.
        sign_rrset(rrsets[0], keys.zone_name, keys.zsk, self.INCEPTION, memo=memo)
        sign_rrset(rrsets[2], keys.zone_name, keys.zsk, self.INCEPTION, memo=memo)
        assert len(memo) == 2
        sign_rrset(rrsets[0], keys.zone_name, keys.zsk, self.INCEPTION, memo=memo)
        assert memo.hits == 2  # the hot entry survived eviction
        sign_rrset(rrsets[1], keys.zone_name, keys.zsk, self.INCEPTION, memo=memo)
        assert memo.misses == 4  # the cold one was evicted and re-signed

    def test_corrupted_record_does_not_poison_the_memo(self):
        from repro.zones.zone import Zone

        apex = Name.from_text("poison.example.com.")
        memo = SignatureMemo()
        zone = Zone(apex)
        zone.ensure_soa()
        zone.add_rrset(RRset(apex, rdtypes.A, 300, [ARdata("192.0.2.7")]))
        zone.sign(self.INCEPTION, memo=memo)
        zone.corrupt_signature(apex, rdtypes.A)
        resigned = Zone(apex)
        resigned.ensure_soa()
        resigned.add_rrset(RRset(apex, rdtypes.A, 300, [ARdata("192.0.2.7")]))
        resigned.sign(self.INCEPTION, keyset=zone.keyset, memo=memo)
        sig = resigned.get_rrsigs(apex, rdtypes.A)[0]
        rrset = resigned.get_rrset(apex, rdtypes.A)
        assert verify_blob(
            zone.keyset.zsk.dnskey, signing_input(rrset, sig), sig.signature
        )


# ---------------------------------------------------------------------------
# TLD DS-cache LRU (formerly clear-everything-at-50k)
# ---------------------------------------------------------------------------


class TestDsCacheLru:
    def test_eviction_is_lru_not_wholesale(self, monkeypatch):
        """Entries are keyed per (delegation, day); over capacity, the
        least-recently-used one is dropped — the old policy cleared the
        whole cache, evicting hot delegations with the cold."""
        monkeypatch.setattr(world_mod, "_DS_CACHE_CAPACITY", 2)
        world = World(SimConfig(population=150))
        secure = [
            p for p in world.profiles
            if p.dnssec_signed and p.ds_uploaded and p.dnssec_sign_day < 0
        ]
        assert secure, "population must include secure delegations"
        profile = secure[0]
        tld = world.tld_zone_containing(profile.apex)
        days = [timeline.STUDY_START + datetime.timedelta(days=i) for i in range(3)]
        keys = [(profile.apex, timeline.day_index(day)) for day in days]

        world.set_time(days[0])
        assert tld.ds_with_sigs(profile.apex)[0] is not None
        world.set_time(days[1])
        tld.ds_with_sigs(profile.apex)
        # Rewind (the cache deliberately survives a reset — its entries
        # are pure functions of config and day) and touch day 0 so day 1
        # becomes the LRU victim.
        world.reset()
        world.set_time(days[0])
        tld.ds_with_sigs(profile.apex)
        world.set_time(days[2])
        tld.ds_with_sigs(profile.apex)

        assert len(tld._ds_cache) == 2
        assert keys[0] in tld._ds_cache, "hot entry must survive eviction"
        assert keys[1] not in tld._ds_cache, "LRU victim is the cold entry"
        assert keys[2] in tld._ds_cache

    def test_repeat_lookup_hits_cache(self):
        world = World(SimConfig(population=150))
        secure = [
            p for p in world.profiles
            if p.dnssec_signed and p.ds_uploaded and p.dnssec_sign_day < 0
        ]
        profile = secure[0]
        tld = world.tld_zone_containing(profile.apex)
        first = tld.ds_with_sigs(profile.apex)
        second = tld.ds_with_sigs(profile.apex)
        assert first[0] is second[0], "cache hit must return the stored RRset"
