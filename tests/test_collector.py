"""Tests for the continuous-collection driver.

The headline guarantee: a continuous run over *any* partitioning of the
study window — interrupted and resumed or not — produces a dataset
value-equal to the one-shot ``run_campaign`` result, with ``run_stats``
accumulated across all increments. Plus the merge-axis composition
property (shards-then-days == days-then-shards) and the checkpoint's
identity/corruption safety rails.
"""

import datetime
import json
import os
import warnings

import pytest

from repro.scanner import (
    CheckpointError,
    CollectionInterrupted,
    ContinuousCollector,
    ParallelCampaignRunner,
    build_schedule,
    canonical_cache_tag,
    fold_slice,
    load_checkpoint_dataset,
    merge_shard_datasets,
    run_campaign,
    slice_schedule,
)
from repro.scanner.collector import CheckpointStore
from repro.simnet import SimConfig, World, timeline
from repro.simnet.faults import FaultSchedule, FaultSpec
from repro.simnet.providers import PROVIDERS
from repro.study import ExecutionPlan, Study, StudySpec

POPULATION = 120
CONFIG = SimConfig(population=POPULATION)

# Daily-scan + hourly-ECH window: slice boundaries cut through the ECH
# week, so folds must reassemble hourly rows across slices.
ECH_KWARGS = dict(
    day_step=7,
    start=datetime.date(2023, 7, 14),
    end=datetime.date(2023, 7, 24),
    ech_sample=4,
)
# Late window: DNSSEC snapshot day, NS-IP scans, connectivity probes,
# and the deactivation watchlist (the cross-increment seen_https carry).
LATE_KWARGS = dict(
    day_step=14,
    start=datetime.date(2023, 12, 20),
    end=datetime.date(2024, 2, 5),
    with_ech_hourly=False,
)
# Tiny window for checkpoint-identity tests (no ECH week, three days).
TINY_KWARGS = dict(
    day_step=60,
    start=datetime.date(2023, 5, 8),
    end=datetime.date(2023, 9, 30),
    with_ech_hourly=False,
    with_dnssec_snapshot=False,
)


@pytest.fixture(scope="module")
def one_shot_ech():
    return run_campaign(World(CONFIG), **ECH_KWARGS)


@pytest.fixture(scope="module")
def one_shot_late():
    return run_campaign(World(CONFIG), **LATE_KWARGS)


def _collector(
    checkpoint_dir, workers=2, days_per_increment=2, kwargs=ECH_KWARGS, scenario=None
):
    return ContinuousCollector(
        CONFIG,
        str(checkpoint_dir),
        workers=workers,
        days_per_increment=days_per_increment,
        scenario=scenario,
        **kwargs,
    )


# A chaos schedule straddling the ECH window: increments before, during,
# and after the fault see different worlds, so a resume that re-armed
# (or forgot to re-arm) the schedule would diverge from the one-shot.
CHAOS = FaultSchedule(
    name="chaos-resume",
    specs=(
        FaultSpec(
            kind="packet_loss",
            ip=PROVIDERS["cloudflare"].server_ip,
            rate=0.4,
            start=datetime.date(2023, 7, 17),
            end=datetime.date(2023, 7, 21),
        ),
    ),
)


class TestSliceSchedule:
    FULL = build_schedule(**ECH_KWARGS)

    def test_restricts_days_and_ech_window(self):
        days = self.FULL.scan_days[:2]
        sub = slice_schedule(self.FULL, days)
        assert sub.scan_days == days
        assert set(sub.ech_days) == set(days) & set(self.FULL.ech_days)
        assert sub.day_step == self.FULL.day_step
        assert sub.ech_sample == self.FULL.ech_sample

    def test_unknown_day_rejected(self):
        with pytest.raises(ValueError):
            slice_schedule(self.FULL, (datetime.date(1999, 1, 1),))

    def test_dnssec_threshold_owned_by_exactly_one_slice(self):
        schedule = build_schedule(**LATE_KWARGS)
        resolved = next(
            d for d in schedule.scan_days if d >= timeline.DNSSEC_SNAPSHOT
        )
        slices = [
            slice_schedule(schedule, schedule.scan_days[i : i + 2])
            for i in range(0, len(schedule.scan_days), 2)
        ]
        owners = [s for s in slices if s.dnssec_threshold is not None]
        assert len(owners) == 1
        assert resolved in owners[0].scan_days
        assert owners[0].dnssec_threshold == resolved

    def test_threshold_past_window_disables(self):
        schedule = build_schedule(**ECH_KWARGS)  # window ends before the snapshot day
        sub = slice_schedule(schedule, schedule.scan_days)
        assert sub.dnssec_threshold is None


class TestEquivalence:
    """The headline guarantee, on both study windows."""

    def test_ech_window_collection_equals_one_shot(self, one_shot_ech, tmp_path):
        collected = _collector(tmp_path / "ckpt").collect()
        assert collected == one_shot_ech
        assert collected.ech_observations  # window exercises the hourly scan

    def test_late_window_collection_equals_one_shot(self, one_shot_late, tmp_path):
        collected = _collector(
            tmp_path / "ckpt", workers=3, kwargs=LATE_KWARGS
        ).collect()
        assert collected == one_shot_late
        assert collected.dnssec_snapshot, "window must cover the snapshot day"
        assert any(s.connectivity for s in collected.snapshots.values())
        assert any(s.ns_observations for s in collected.snapshots.values())

    def test_watchlist_carries_across_slices(self, one_shot_late, tmp_path):
        """The seen_https carry: a one-day-per-increment partition keeps
        the deactivation watchlist identical to the one-shot run."""
        collected = _collector(
            tmp_path / "ckpt", workers=2, days_per_increment=1, kwargs=LATE_KWARGS
        ).collect()
        assert collected == one_shot_late

    def test_run_stats_accumulate_across_increments(self, tmp_path):
        collected = _collector(tmp_path / "ckpt").collect()
        assert collected.run_stats is not None
        assert collected.run_stats.dns_queries > 0
        # More than any single slice could account for: a one-slice
        # collection of just the first two days must count fewer queries.
        first_days = _collector(
            tmp_path / "small",
            days_per_increment=2,
            kwargs=dict(ECH_KWARGS, end=datetime.date(2023, 7, 21)),
        ).collect()
        assert collected.run_stats.dns_queries > first_days.run_stats.dns_queries


def _cf_ns_hosts_without_ips(dataset):
    return {
        date: sorted(
            host for host, obs in snapshot.ns_observations.items()
            if host.endswith("cf-ns.com") and not obs.ips
        )
        for date, snapshot in sorted(dataset.snapshots.items())
        if snapshot.ns_observations
    }


# cf-ns.com is both a measured domain and the NS suffix of a Cloudflare
# name-server farm in seed 2's 250-domain world. The NS-IP scan a
# continuous collection runs as a per-slice stage finds ns1-ns4.cf-ns.com
# without addresses on some NS days, where the one-shot scan (with the
# answer cache on or off) resolves them to 162.159.1.1 on all three.
# The one-shot answer is the right one. The benchmark pins the
# continuous result of the second spec, so the fix moves that digest.
NS_SUFFIX_SPECS = {
    "object-one-slice": (
        StudySpec(SimConfig(population=250, seed="2"), day_step=70, with_ech_hourly=False),
        100,
    ),
    "wire-loss-two-day-slices": (
        StudySpec(
            SimConfig(population=250, seed="2", wire_mode=True),
            day_step=70,
            ech_sample=10,
            scenario=FaultSchedule(
                name="cloudflare-loss",
                specs=(
                    FaultSpec(
                        kind="packet_loss",
                        ip=PROVIDERS["cloudflare"].server_ip,
                        rate=0.2,
                        start=datetime.date(2023, 9, 1),
                        end=datetime.date(2024, 1, 31),
                    ),
                ),
            ),
        ),
        2,
    ),
}


class TestNsSuffixStageDivergence:
    """The staged NS-IP scan of a continuous collection disagrees with the
    inline one-shot scan about the cf-ns.com name servers."""

    @pytest.fixture(scope="class", params=sorted(NS_SUFFIX_SPECS))
    def shape(self, request, tmp_path_factory):
        spec, days_per_increment = NS_SUFFIX_SPECS[request.param]
        root = tmp_path_factory.mktemp(request.param)
        one_shot = Study(spec, ExecutionPlan(cache_dir=str(root / "one"))).run()
        return spec, days_per_increment, root, one_shot

    def test_one_shot_resolves_every_cf_ns_host(self, shape):
        one_shot = shape[3]
        missing = _cf_ns_hosts_without_ips(one_shot)
        assert len(missing) == 3  # the three NS-IP scan days
        assert missing == {date: [] for date in missing}

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="continuous NS-IP stage leaves ns1-ns4.cf-ns.com without IPs",
    )
    def test_continuous_equals_one_shot(self, shape):
        spec, days_per_increment, root, one_shot = shape
        continuous = Study(
            spec,
            ExecutionPlan(
                cache_dir=str(root / "cont"),
                continuous=True,
                checkpoint_dir=str(root / "ckpt"),
                days_per_increment=days_per_increment,
            ),
        ).run()
        assert _cf_ns_hosts_without_ips(continuous) == _cf_ns_hosts_without_ips(one_shot)
        assert continuous == one_shot


class TestAxisComposition:
    """merge_shard_datasets (same days) and fold_slice (disjoint days)
    commute: folding shards first or days first lands on the same value."""

    @pytest.fixture(scope="class")
    def parts_matrix(self):
        """parts[k][i]: day-slice k scanned over domain-shard i, with the
        seen_https carry a one-shot run would have accumulated."""
        schedule = build_schedule(**ECH_KWARGS)
        slices = [schedule.scan_days[i : i + 2] for i in range(0, len(schedule.scan_days), 2)]
        runner = ParallelCampaignRunner(
            CONFIG, workers=2, schedule=schedule, keep_alive=True
        )
        with runner:
            parts, seen = [], set()
            for slice_days in slices:
                sched = slice_schedule(schedule, slice_days)
                row = [
                    runner.run_shard(sched, index, seen_https=frozenset(seen))
                    for index in range(2)
                ]
                for part in row:
                    seen.update(part.apexes_with_https())
                parts.append(row)
            return schedule, slices, parts, runner

    def test_shards_then_days_equals_days_then_shards(self, parts_matrix, one_shot_ech):
        schedule, slices, parts, runner = parts_matrix
        # Axis order 1: merge same-day shards, then fold day-slices.
        shards_first = None
        for row, slice_days in zip(parts, slices):
            slice_dataset = merge_shard_datasets(row)
            slice_dataset = runner.finish_slice(
                slice_dataset, slice_schedule(schedule, slice_days)
            )
            shards_first = fold_slice(shards_first, slice_dataset)
        # Axis order 2: fold each shard's day-slices, then merge shards
        # (post-merge stages once, over the whole window).
        by_shard = []
        for index in range(2):
            longitudinal = None
            for row in parts:
                longitudinal = fold_slice(longitudinal, row[index])
            by_shard.append(longitudinal)
        days_first = runner.finish_slice(merge_shard_datasets(by_shard), schedule)
        assert shards_first == days_first
        assert shards_first == one_shot_ech


class TestResume:
    def test_interrupt_leaves_checkpoint_and_raises(self, tmp_path):
        collector = _collector(tmp_path / "ckpt")
        with pytest.raises(CollectionInterrupted) as info:
            collector.collect(max_increments=2)
        assert info.value.executed == 2
        assert info.value.remaining == collector.total_increments - 2
        journal = (tmp_path / "ckpt" / "journal.jsonl").read_text().splitlines()
        assert len(journal) == 2

    def test_resume_after_crash_equals_one_shot(self, one_shot_ech, tmp_path):
        with pytest.raises(CollectionInterrupted):
            _collector(tmp_path / "ckpt").collect(max_increments=2)
        resumed = _collector(tmp_path / "ckpt").collect()
        assert resumed == one_shot_ech
        # Completed increments were NOT re-run: the journal holds exactly
        # one line per increment across both sessions.
        journal = (tmp_path / "ckpt" / "journal.jsonl").read_text().splitlines()
        assert len(journal) == _collector(tmp_path / "other").total_increments
        # ... and the checkpoint's merged dataset is the full result.
        assert load_checkpoint_dataset(str(tmp_path / "ckpt")) == one_shot_ech

    def test_resume_storm_equals_one_shot(self, one_shot_ech, tmp_path):
        """Kill after every single increment; each session resumes."""
        final = None
        for _ in range(_collector(tmp_path / "x").total_increments + 1):
            try:
                final = _collector(tmp_path / "ckpt").collect(max_increments=1)
                break
            except CollectionInterrupted:
                continue
        assert final == one_shot_ech

    def test_resume_mid_scenario_equals_one_shot(self, tmp_path):
        """Kill the collection inside the fault window; the resumed
        session must re-install the schedule on its checked-out worlds
        and land value-equal to the one-shot scenario run."""
        one_shot = run_campaign(World(CONFIG), scenario=CHAOS, **ECH_KWARGS)
        assert one_shot.run_stats.timeouts > 0, "schedule must actually bite"
        with pytest.raises(CollectionInterrupted):
            _collector(tmp_path / "ckpt", scenario=CHAOS).collect(max_increments=2)
        resumed = _collector(tmp_path / "ckpt", scenario=CHAOS).collect()
        assert resumed == one_shot
        assert resumed.run_stats.timeouts > 0
        assert load_checkpoint_dataset(str(tmp_path / "ckpt")) == one_shot

    def test_corrupt_part_is_rerun_not_trusted(self, one_shot_ech, tmp_path):
        with pytest.raises(CollectionInterrupted):
            _collector(tmp_path / "ckpt").collect(max_increments=1)
        parts_dir = tmp_path / "ckpt" / "parts"
        [part] = list(parts_dir.iterdir())
        part.write_bytes(b"torn by a crash mid-write")
        resumed = _collector(tmp_path / "ckpt").collect()
        assert resumed == one_shot_ech

    def test_bit_flipped_merged_fold_is_rebuilt(self, tmp_path):
        first = _collector(tmp_path / "ckpt", kwargs=TINY_KWARGS).collect()
        merged = tmp_path / "ckpt" / "merged.pkl.gz"
        blob = bytearray(merged.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        merged.write_bytes(bytes(blob))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            collector = _collector(tmp_path / "ckpt", kwargs=TINY_KWARGS)
            rebuilt = collector.collect()
        # One warning, naming the lost fold and every slice folded into
        # it; none for the parts the fold consumed and deleted.
        [warning] = caught
        assert warning.category is RuntimeWarning
        message = str(warning.message)
        assert message.startswith(f"ignoring unreadable merged dataset {merged}: ")
        slices = list(range(len(collector.slices)))
        assert message.endswith(f"the slices folded into it re-run: {slices}")
        assert rebuilt == first
        assert load_checkpoint_dataset(str(tmp_path / "ckpt")) == first

    def test_interrupted_session_reads_the_fold_once(self, tmp_path, monkeypatch):
        with pytest.raises(CollectionInterrupted):
            _collector(tmp_path / "ckpt").collect(max_increments=2)  # folds slice 0
        loads = []
        load_merged = CheckpointStore.load_merged

        def counting_load(store):
            loads.append(store.directory)
            return load_merged(store)

        monkeypatch.setattr(CheckpointStore, "load_merged", counting_load)
        collector = _collector(tmp_path / "ckpt")
        with pytest.raises(CollectionInterrupted) as info:
            collector.collect(max_increments=1)
        assert len(loads) == 1
        monkeypatch.undo()
        assert info.value.executed == 1
        assert info.value.remaining == collector.total_increments - 3
        assert info.value.remaining == len(collector.pending_increments())

    def test_completed_checkpoint_returns_without_rescanning(self, tmp_path):
        collector = _collector(tmp_path / "ckpt", kwargs=TINY_KWARGS)
        first = collector.collect()
        again = _collector(tmp_path / "ckpt", kwargs=TINY_KWARGS)
        assert again.pending_increments() == []
        assert again.collect() == first


class TestCheckpointIdentity:
    def _interrupt(self, tmp_path, **overrides):
        collector = _collector(tmp_path / "ckpt", kwargs=TINY_KWARGS, **overrides)
        with pytest.raises(CollectionInterrupted):
            collector.collect(max_increments=1)

    def test_partitioning_mismatch_rejected(self, tmp_path):
        self._interrupt(tmp_path, days_per_increment=1)
        with pytest.raises(CheckpointError, match="slices"):
            _collector(tmp_path / "ckpt", days_per_increment=2, kwargs=TINY_KWARGS)

    def test_shard_count_mismatch_rejected(self, tmp_path):
        self._interrupt(tmp_path, workers=2)
        with pytest.raises(CheckpointError, match="workers"):
            _collector(tmp_path / "ckpt", workers=3, kwargs=TINY_KWARGS)

    def test_world_mismatch_rejected(self, tmp_path):
        self._interrupt(tmp_path)
        with pytest.raises(CheckpointError):
            ContinuousCollector(
                SimConfig(population=60),
                str(tmp_path / "ckpt"),
                workers=2,
                days_per_increment=1,
                **TINY_KWARGS,
            )

    def test_scenario_mismatch_rejected(self, tmp_path):
        """A checkpoint written under a chaos schedule names a different
        dataset than the fault-free collection (and vice versa)."""
        self._interrupt(tmp_path, scenario=CHAOS)
        with pytest.raises(CheckpointError, match="scenario"):
            _collector(tmp_path / "ckpt", kwargs=TINY_KWARGS)

    def test_pre_scenario_checkpoint_still_resumable(self, tmp_path):
        """Old checkpoints lack the "scenario" header key; a fault-free
        resume must accept them instead of demanding a restart."""
        self._interrupt(tmp_path)
        meta_path = tmp_path / "ckpt" / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta["scenario"] is None
        del meta["scenario"]
        meta_path.write_text(json.dumps(meta))
        resumed = _collector(tmp_path / "ckpt", kwargs=TINY_KWARGS)
        assert resumed.pending_increments()

    def test_version_mismatch_rejected(self, tmp_path):
        self._interrupt(tmp_path)
        meta_path = tmp_path / "ckpt" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 999
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CheckpointError, match="version"):
            _collector(tmp_path / "ckpt", kwargs=TINY_KWARGS)

    def test_headerless_leftover_state_rejected(self, tmp_path):
        """Deleting just meta.json (e.g. to silence a mismatch error)
        must not let a new collection silently adopt the old fold."""
        self._interrupt(tmp_path)
        os.unlink(tmp_path / "ckpt" / "meta.json")
        with pytest.raises(CheckpointError, match="no meta.json"):
            _collector(tmp_path / "ckpt", kwargs=TINY_KWARGS)

    def test_foreign_directory_rejected(self, tmp_path):
        (tmp_path / "ckpt").mkdir()
        (tmp_path / "ckpt" / "meta.json").write_text(json.dumps({"magic": "nope"}))
        with pytest.raises(CheckpointError, match="not a collection checkpoint"):
            _collector(tmp_path / "ckpt", kwargs=TINY_KWARGS)


class TestCacheTagIsolation:
    """Continuous checkpoints and cached one-shot datasets must never
    alias each other under the same cache key."""

    def test_continuous_knobs_change_the_tag(self):
        base = {"day_step": 14}
        assert canonical_cache_tag(base) != canonical_cache_tag(
            dict(base, continuous=True, days_per_increment=7)
        )
        assert canonical_cache_tag(
            dict(base, continuous=True, days_per_increment=7)
        ) != canonical_cache_tag(dict(base, continuous=True, days_per_increment=3))

    def test_study_keeps_separate_cache_entries(self, tmp_path):
        spec = StudySpec(
            SimConfig(population=60), **dict(TINY_KWARGS, end=datetime.date(2023, 7, 10))
        )
        with Study(spec, ExecutionPlan(cache_dir=str(tmp_path))) as study:
            one_shot = study.run()
        datasets = [p for p in tmp_path.iterdir() if p.name.endswith(".pkl.gz")]
        assert len(datasets) == 1
        plan = ExecutionPlan(cache_dir=str(tmp_path), continuous=True, days_per_increment=1)
        with Study(spec, plan) as study:
            continuous = study.run()
        assert continuous == one_shot
        datasets = [p for p in tmp_path.iterdir() if p.name.endswith(".pkl.gz")]
        assert len(datasets) == 2, "continuous run must not reuse the one-shot entry"
        # The checkpoint lands in its own key-scoped directory.
        checkpoints = tmp_path / "checkpoints"
        assert checkpoints.is_dir() and any(checkpoints.iterdir())
