"""Tests for the sharded scan pipeline and its merge machinery.

The load-bearing property is *equality*: a campaign sharded across
workers must produce a dataset indistinguishable from the sequential
run — same snapshots (including dict iteration order), same hourly ECH
rows in the same order, same DNSSEC snapshot.
"""

import datetime

import pytest

from repro.scanner import (
    Dataset,
    ParallelCampaignRunner,
    ShardPlan,
    canonical_cache_tag,
    merge_shard_datasets,
    run_campaign,
)
from repro.scanner.dataset import DailySnapshot
from repro.scanner.incremental import DatasetMergeError
from repro.simnet import SimConfig, World
from repro.study import ExecutionPlan, Study, StudySpec

POPULATION = 150
CONFIG = SimConfig(population=POPULATION)


class TestShardPlan:
    NAMES = [f"domain-{i:04d}.com" for i in range(200)]

    def test_partition_is_exact_cover(self):
        plan = ShardPlan(4, seed="s")
        parts = plan.partition(self.NAMES)
        assert len(parts) == 4
        flat = [name for part in parts for name in part]
        assert sorted(flat) == sorted(self.NAMES)
        assert all(parts), "hash partition should not leave a shard empty"

    def test_assignment_is_deterministic(self):
        first = ShardPlan(7, seed="s")
        second = ShardPlan(7, seed="s")
        assert [first.shard_of(n) for n in self.NAMES] == [
            second.shard_of(n) for n in self.NAMES
        ]

    def test_slice_matches_partition_and_keeps_order(self):
        plan = ShardPlan(3, seed="x")
        parts = plan.partition(self.NAMES)
        for index in range(3):
            assert plan.slice_of(self.NAMES, index) == parts[index]

    def test_seed_changes_assignment(self):
        a = ShardPlan(5, seed="a")
        b = ShardPlan(5, seed="b")
        assert [a.shard_of(n) for n in self.NAMES] != [b.shard_of(n) for n in self.NAMES]

    def test_single_shard(self):
        plan = ShardPlan(1, seed="s")
        assert plan.partition(self.NAMES) == [list(self.NAMES)]

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardPlan(0)


class TestEquivalence:
    """workers>1 must reproduce the sequential dataset exactly."""

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

    @pytest.fixture(scope="class")
    def ech_week_pair(self):
        sequential = run_campaign(World(CONFIG), **self.ECH_KWARGS)
        parallel = ParallelCampaignRunner(
            CONFIG, workers=4, **self.ECH_KWARGS
        ).run()
        return sequential, parallel

    @pytest.fixture(scope="class")
    def late_window_pair(self):
        """DNSSEC snapshot + connectivity window, three workers."""
        sequential = run_campaign(World(CONFIG), **self.LATE_KWARGS)
        parallel = ParallelCampaignRunner(
            CONFIG, workers=3, **self.LATE_KWARGS
        ).run()
        return sequential, parallel

    def test_snapshots_equal(self, ech_week_pair):
        sequential, parallel = ech_week_pair
        assert parallel.days() == sequential.days()
        for day in sequential.days():
            assert parallel.snapshots[day] == sequential.snapshots[day]

    def test_snapshot_iteration_order_matches(self, ech_week_pair):
        sequential, parallel = ech_week_pair
        for day in sequential.days():
            assert list(parallel.snapshots[day].apex) == list(sequential.snapshots[day].apex)
            assert list(parallel.snapshots[day].www) == list(sequential.snapshots[day].www)

    def test_ech_observations_equal_in_order(self, ech_week_pair):
        sequential, parallel = ech_week_pair
        assert sequential.ech_observations, "window must exercise the hourly scan"
        assert parallel.ech_observations == sequential.ech_observations

    def test_full_dataset_equal(self, ech_week_pair):
        sequential, parallel = ech_week_pair
        assert parallel == sequential

    def test_adoption_analysis_identical(self, ech_week_pair):
        from repro.analysis import adoption

        sequential, parallel = ech_week_pair
        seq_series = adoption.dynamic_adoption(sequential)
        par_series = adoption.dynamic_adoption(parallel)
        assert par_series["apex"].points == seq_series["apex"].points

    def test_ech_share_analysis_identical(self, ech_week_pair):
        from repro.analysis import ech_analysis

        sequential, parallel = ech_week_pair
        assert ech_analysis.fig13_ech_share(parallel) == ech_analysis.fig13_ech_share(
            sequential
        )

    def test_dnssec_snapshot_equal(self, late_window_pair):
        sequential, parallel = late_window_pair
        assert sequential.dnssec_snapshot, "window must cover the snapshot day"
        assert parallel.dnssec_snapshot_date == sequential.dnssec_snapshot_date
        assert parallel.dnssec_snapshot == sequential.dnssec_snapshot

    def test_connectivity_and_watchlist_equal(self, late_window_pair):
        sequential, parallel = late_window_pair
        assert parallel == sequential
        assert any(s.connectivity for s in sequential.snapshots.values())

    def test_ns_stage_populates_merged_snapshots(self, late_window_pair):
        """Stage 1 skips NS scans; the post-merge NS stage must fill
        them back in, identical to the sequential inline scan."""
        sequential, parallel = late_window_pair
        ns_days = [d for d in sequential.days() if sequential.snapshots[d].ns_observations]
        assert ns_days, "window must cover the NS-IP scan"
        for day in ns_days:
            assert (
                parallel.snapshots[day].ns_observations
                == sequential.snapshots[day].ns_observations
            )


class TestMergeShardDatasets:
    def _dataset(self, population=100, seed="s", days=(datetime.date(2023, 5, 8),)):
        dataset = Dataset(population, seed, 7)
        for day in days:
            dataset.add_snapshot(DailySnapshot(day, ("a.com", "b.com")))
        return dataset

    def test_empty_rejected(self):
        with pytest.raises(DatasetMergeError):
            merge_shard_datasets([])

    def test_world_mismatch_rejected(self):
        with pytest.raises(DatasetMergeError):
            merge_shard_datasets([self._dataset(seed="s"), self._dataset(seed="t")])

    def test_day_mismatch_rejected(self):
        other = self._dataset(days=(datetime.date(2023, 5, 15),))
        with pytest.raises(DatasetMergeError):
            merge_shard_datasets([self._dataset(), other])

    def test_ranked_list_mismatch_rejected(self):
        day = datetime.date(2023, 5, 8)
        first = self._dataset(days=(day,))
        second = Dataset(100, "s", 7)
        second.add_snapshot(DailySnapshot(day, ("c.com",)))
        with pytest.raises(DatasetMergeError):
            merge_shard_datasets([first, second])


class TestCacheTag:
    def test_stable_across_orderings(self):
        assert canonical_cache_tag({"a": 1, "b": "x"}) == canonical_cache_tag(
            {"b": "x", "a": 1}
        )

    def test_dates_serialize_to_iso(self):
        tag = canonical_cache_tag({"start": datetime.date(2023, 5, 8)})
        assert "2023-05-08" in tag

    def test_bool_and_int_do_not_collide(self):
        assert canonical_cache_tag({"k": True}) != canonical_cache_tag({"k": 1})

    def test_non_primitive_rejected(self):
        with pytest.raises(TypeError):
            canonical_cache_tag({"progress": print})
        with pytest.raises(TypeError):
            canonical_cache_tag({"days": [1, 2]})

    def test_workers_share_one_cache_entry(self, tmp_path):
        """The sharded run yields the same dataset, so any workers value
        must reuse (not rebuild) the cached sequential dataset."""
        kwargs = dict(
            day_step=14,
            start=datetime.date(2023, 5, 8),
            end=datetime.date(2023, 6, 5),
            with_ech_hourly=False,
            with_dnssec_snapshot=False,
        )
        spec = StudySpec(SimConfig(population=60), **kwargs)
        with Study(spec, ExecutionPlan(cache_dir=str(tmp_path))) as study:
            first = study.run()
        cached = list(tmp_path.iterdir())
        assert len(cached) == 1
        with Study(spec, ExecutionPlan(cache_dir=str(tmp_path), workers=4)) as study:
            again = study.run()
        assert again.loaded_from_cache
        assert list(tmp_path.iterdir()) == cached
        assert again == first
