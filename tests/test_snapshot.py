"""Tests for the world snapshot cache, the reuse registry, and RRSIG
memoisation.

The load-bearing property is *equivalence*: a world deserialized from a
snapshot, or checked back out of the registry after a reset, must drive
campaigns to datasets value-equal to a freshly built world's — across
the daily, post-merge NS, hourly ECH, and DNSSEC stages. Broken, stale,
or version-mismatched snapshots must be rejected loudly and rebuilt,
never served quietly. Signature memoisation must be invisible: byte-
identical RRSIGs whether the memo is cold, hot, or disabled.
"""

import datetime
import os
import pickle

import pytest

from repro.dnscore import rdtypes
from repro.dnscore.names import Name
from repro.dnscore.rdata import ARdata
from repro.dnscore.rrset import RRset
from repro.dnssec.keys import ZoneKeySet, verify_blob
from repro.dnssec.signing import SignatureMemo, sign_rrset, signing_input
from repro.scanner import ParallelCampaignRunner, run_campaign
from repro.simnet import (
    SimConfig,
    SnapshotError,
    World,
    WorldRegistry,
    load_world_snapshot,
    save_world_snapshot,
    snapshot_path,
    timeline,
    world_tag,
)
from repro.simnet import snapshot as snapshot_mod
from repro.simnet import world as world_mod

POPULATION = 150
CONFIG = SimConfig(population=POPULATION)

ECH_KWARGS = dict(
    day_step=7,
    start=datetime.date(2023, 7, 14),
    end=datetime.date(2023, 7, 31),
    ech_sample=5,
)
LATE_KWARGS = dict(
    day_step=14,
    start=datetime.date(2023, 12, 20),
    end=datetime.date(2024, 2, 5),
    with_ech_hourly=False,
)


# ---------------------------------------------------------------------------
# snapshot file format
# ---------------------------------------------------------------------------


class TestSnapshotFile:
    def test_round_trip_restores_the_world(self, tmp_path):
        path = save_world_snapshot(World(CONFIG), str(tmp_path))
        assert os.path.exists(path)
        world = load_world_snapshot(CONFIG, str(tmp_path))
        assert isinstance(world, World)
        assert world.config == CONFIG
        assert len(world.profiles) == POPULATION
        assert [p.name for p in world.profiles] == [
            p.name for p in World(CONFIG).profiles
        ]

    def test_missing_snapshot_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot"):
            load_world_snapshot(CONFIG, str(tmp_path))

    def test_corrupt_payload_rejected(self, tmp_path):
        path = save_world_snapshot(World(CONFIG), str(tmp_path))
        with open(path, "rb") as handle:
            record = pickle.load(handle)
        payload = bytearray(record["payload"])
        payload[len(payload) // 2] ^= 0xFF
        record["payload"] = bytes(payload)
        with open(path, "wb") as handle:
            pickle.dump(record, handle, protocol=4)
        with pytest.raises(SnapshotError, match="integrity"):
            load_world_snapshot(CONFIG, str(tmp_path))

    def test_truncated_file_rejected(self, tmp_path):
        path = save_world_snapshot(World(CONFIG), str(tmp_path))
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 3])
        with pytest.raises(SnapshotError):
            load_world_snapshot(CONFIG, str(tmp_path))

    def test_version_mismatch_rejected(self, tmp_path):
        path = save_world_snapshot(World(CONFIG), str(tmp_path))
        with open(path, "rb") as handle:
            record = pickle.load(handle)
        record["version"] = snapshot_mod.SNAPSHOT_VERSION + 1
        with open(path, "wb") as handle:
            pickle.dump(record, handle, protocol=4)
        with pytest.raises(SnapshotError, match="version"):
            load_world_snapshot(CONFIG, str(tmp_path))

    def test_code_fingerprint_mismatch_rejected(self, tmp_path):
        """A snapshot written by different repro source code is stale
        even when the config tag and payload are intact."""
        path = save_world_snapshot(World(CONFIG), str(tmp_path))
        with open(path, "rb") as handle:
            record = pickle.load(handle)
        record["code"] = "0123456789abcdef"
        with open(path, "wb") as handle:
            pickle.dump(record, handle, protocol=4)
        with pytest.raises(SnapshotError, match="different repro code"):
            load_world_snapshot(CONFIG, str(tmp_path))

    def test_ensure_replaces_invalid_file_even_with_pooled_world(self, tmp_path):
        """ensure_world_snapshot must leave a *valid* file behind: a
        corrupt leftover is rewritten even when the registry pool can
        satisfy the checkout without touching the disk."""
        path = save_world_snapshot(World(CONFIG), str(tmp_path))
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        snapshot_mod.checkin_world(World(CONFIG))  # pool has a world
        assert snapshot_mod.ensure_world_snapshot(CONFIG, str(tmp_path)) == path
        load_world_snapshot(CONFIG, str(tmp_path))  # valid again
        snapshot_mod.world_registry().clear()

    def test_foreign_object_rejected(self, tmp_path):
        path = snapshot_path(str(tmp_path), CONFIG)
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(path, "wb") as handle:
            pickle.dump({"not": "a snapshot"}, handle)
        with pytest.raises(SnapshotError, match="not a world snapshot"):
            load_world_snapshot(CONFIG, str(tmp_path))

    def test_config_tag_mismatch_rejected(self, tmp_path):
        """A snapshot renamed (or copied) onto another config's path is
        caught by the tag recorded in the header."""
        other = SimConfig(population=POPULATION, seed="other-seed")
        source = save_world_snapshot(World(CONFIG), str(tmp_path))
        os.replace(source, snapshot_path(str(tmp_path), other))
        with pytest.raises(SnapshotError, match="different config"):
            load_world_snapshot(other, str(tmp_path))

    def test_tag_covers_every_config_field(self):
        assert world_tag(CONFIG) != world_tag(
            SimConfig(population=POPULATION, negative_ttl=61)
        )

    def test_checkout_rebuilds_and_rewrites_after_corruption(self, tmp_path):
        registry = WorldRegistry()
        path = save_world_snapshot(World(CONFIG), str(tmp_path))
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        world = registry.checkout(CONFIG, str(tmp_path))
        assert registry.stats()["built"] == 1  # fell back to a fresh build
        assert registry.stats()["saved"] == 1  # and replaced the bad file
        assert len(world.profiles) == POPULATION
        load_world_snapshot(CONFIG, str(tmp_path))  # rewritten copy is valid


# ---------------------------------------------------------------------------
# equivalence: snapshot-loaded and registry-reused worlds
# ---------------------------------------------------------------------------


class TestEquivalence:
    @pytest.fixture(scope="class")
    def snapshot_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("worlds")
        save_world_snapshot(World(CONFIG), str(directory))
        return str(directory)

    @pytest.fixture(scope="class")
    def ech_week_fresh(self):
        return run_campaign(World(CONFIG), **ECH_KWARGS)

    @pytest.fixture(scope="class")
    def late_window_fresh(self):
        return run_campaign(World(CONFIG), **LATE_KWARGS)

    def test_loaded_world_reproduces_ech_week(self, snapshot_dir, ech_week_fresh):
        """Daily + hourly-ECH stages on a deserialized world."""
        loaded = load_world_snapshot(CONFIG, snapshot_dir)
        dataset = run_campaign(loaded, **ECH_KWARGS)
        assert dataset.ech_observations, "window must exercise the hourly scan"
        assert dataset == ech_week_fresh

    def test_loaded_world_reproduces_late_window(self, snapshot_dir, late_window_fresh):
        """NS-IP, connectivity, and DNSSEC stages on a deserialized world."""
        loaded = load_world_snapshot(CONFIG, snapshot_dir)
        dataset = run_campaign(loaded, **LATE_KWARGS)
        assert dataset.dnssec_snapshot, "window must cover the DNSSEC snapshot"
        assert any(s.ns_observations for s in dataset.snapshots.values())
        assert dataset == late_window_fresh

    def test_pipeline_with_warm_snapshot_equal(self, snapshot_dir, late_window_fresh):
        """Process workers warmed from the snapshot merge to the same
        dataset as a no-snapshot sequential run."""
        dataset = ParallelCampaignRunner(
            CONFIG, workers=2, executor="process",
            snapshot_dir=snapshot_dir, **LATE_KWARGS
        ).run()
        assert dataset == late_window_fresh

    def test_thread_pipeline_with_snapshot_builds_once(
        self, snapshot_dir, ech_week_fresh
    ):
        """With a snapshot available, concurrent thread tasks load or
        reuse — never each construct their own world."""
        registry = snapshot_mod.world_registry()
        registry.clear()
        dataset = ParallelCampaignRunner(
            CONFIG, workers=2, executor="thread",
            snapshot_dir=snapshot_dir, **ECH_KWARGS
        ).run()
        assert dataset == ech_week_fresh
        stats = registry.stats()
        assert stats["built"] == 0, "every task must load or reuse, not build"
        assert stats["loaded"] >= 1

    def test_unwritable_snapshot_dir_falls_back_to_building(
        self, tmp_path, late_window_fresh
    ):
        """A snapshot_dir that cannot hold files (here: a regular file)
        degrades to build-per-worker instead of crashing the run."""
        bogus = tmp_path / "not-a-directory"
        bogus.write_text("occupied")
        dataset = ParallelCampaignRunner(
            CONFIG, workers=2, executor="process",
            snapshot_dir=str(bogus), **LATE_KWARGS
        ).run()
        assert dataset == late_window_fresh

    def test_thread_pipeline_reuses_registry_worlds(self, ech_week_fresh):
        """Thread-mode tasks draw pooled worlds (one build per concurrent
        task, reuse across stages) and still merge to the exact dataset."""
        registry = snapshot_mod.world_registry()
        registry.clear()
        dataset = ParallelCampaignRunner(
            CONFIG, workers=2, executor="thread", **ECH_KWARGS
        ).run()
        stats = registry.stats()
        assert dataset == ech_week_fresh
        assert stats["built"] <= 2, "stage tasks must not rebuild per task"
        assert stats["reused"] >= 1, "later stages must reuse pooled worlds"

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
# registry semantics
# ---------------------------------------------------------------------------


class TestWorldRegistry:
    SMALL = SimConfig(population=60)

    def test_checkout_is_exclusive(self):
        registry = WorldRegistry()
        first = registry.checkout(self.SMALL)
        second = registry.checkout(self.SMALL)
        assert first is not second

    def test_checkin_then_checkout_reuses(self):
        registry = WorldRegistry()
        world = registry.checkout(self.SMALL)
        registry.checkin(world)
        assert registry.checkout(self.SMALL) is world
        assert registry.stats() == {"built": 1, "loaded": 0, "reused": 1, "saved": 0}

    def test_pool_is_keyed_by_config(self):
        registry = WorldRegistry()
        registry.checkin(registry.checkout(self.SMALL))
        other = SimConfig(population=61)
        world = registry.checkout(other)
        assert len(world.profiles) == 61
        assert registry.stats()["reused"] == 0

    def test_idle_pool_is_bounded(self):
        registry = WorldRegistry(max_idle_per_tag=1)
        first = registry.checkout(self.SMALL)
        second = registry.checkout(self.SMALL)
        registry.checkin(first)
        registry.checkin(second)  # over the cap: dropped, not pooled
        assert registry.idle_count(self.SMALL) == 1

    def test_checkin_resets(self):
        registry = WorldRegistry()
        world = registry.checkout(self.SMALL)
        world.set_time(datetime.date(2023, 10, 1))
        registry.checkin(world)
        assert world.current_date == timeline.STUDY_START


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
