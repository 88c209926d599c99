"""Tests for incremental dataset maintenance (the paper's longstanding-
framework mode)."""

import datetime

import pytest

from repro.scanner import Dataset, run_campaign
from repro.scanner.incremental import (
    DatasetMergeError,
    continuation_window,
    coverage_gaps,
    merge_datasets,
)
from repro.simnet import SimConfig, World, timeline


@pytest.fixture(scope="module")
def slices():
    """Two consecutive campaign slices over the same world config."""
    config = SimConfig(population=250)
    boundary = datetime.date(2023, 7, 10)
    first = run_campaign(
        World(config), day_step=14, end=boundary,
        with_ech_hourly=False, with_dnssec_snapshot=False,
    )
    second = run_campaign(
        World(config), day_step=14,
        start=boundary + datetime.timedelta(days=14),
        end=datetime.date(2023, 10, 30),
        with_ech_hourly=False, with_dnssec_snapshot=False,
    )
    return first, second


class TestMerge:
    def test_merge_concatenates_days(self, slices):
        first, second = slices
        merged = merge_datasets([first, second])
        assert merged.days() == sorted(first.days() + second.days())

    def test_merge_preserves_observations(self, slices):
        first, second = slices
        merged = merge_datasets([first, second])
        sample_day = first.days()[0]
        assert merged.snapshot(sample_day).apex_https_count == first.snapshot(sample_day).apex_https_count

    def test_overlap_rejected(self, slices):
        first, _second = slices
        with pytest.raises(DatasetMergeError):
            merge_datasets([first, first])

    def test_overlap_allowed_when_asked(self, slices):
        first, _second = slices
        merged = merge_datasets([first, first], allow_overlap=True)
        assert merged.days() == first.days()

    def test_world_mismatch_rejected(self, slices):
        first, _second = slices
        alien = run_campaign(
            World(SimConfig(population=120)), day_step=60,
            end=datetime.date(2023, 6, 1),
            with_ech_hourly=False, with_dnssec_snapshot=False,
        )
        with pytest.raises(DatasetMergeError):
            merge_datasets([first, alien])

    def test_empty_rejected(self):
        with pytest.raises(DatasetMergeError):
            merge_datasets([])

    def test_analyses_run_on_merged(self, slices):
        from repro.analysis import adoption

        merged = merge_datasets(list(slices))
        series = adoption.dynamic_adoption(merged)
        assert len(series["apex"].points) == len(merged.days())


class TestEchOverlapDedupe:
    """Regression: allow_overlap merges used to concatenate hourly ECH
    rows, so a re-scanned slice doubled every sighting and skewed the
    Fig. 13/14 shares."""

    @staticmethod
    def _dataset_with_ech(rows):
        from repro.scanner.records import EchObservation

        dataset = Dataset(250, "imc2024-dnshttps", 14)
        dataset.ech_observations = [EchObservation(*row) for row in rows]
        return dataset

    def test_rescan_does_not_duplicate_rows(self):
        first = self._dataset_with_ech([("a.com", 10, b"d1", "cf.com", 1)])
        rescan = self._dataset_with_ech([("a.com", 10, b"d1", "cf.com", 1)])
        merged = merge_datasets([first, rescan], allow_overlap=True)
        assert len(merged.ech_observations) == 1

    def test_later_slice_wins_on_same_key(self):
        first = self._dataset_with_ech([("a.com", 10, b"d1", "stale.example", 1)])
        rescan = self._dataset_with_ech([("a.com", 10, b"d1", "fresh.example", 2)])
        merged = merge_datasets([first, rescan], allow_overlap=True)
        assert len(merged.ech_observations) == 1
        assert merged.ech_observations[0].public_name == "fresh.example"
        assert merged.ech_observations[0].config_id == 2

    def test_distinct_sightings_all_kept(self):
        first = self._dataset_with_ech(
            [("a.com", 10, b"d1", "cf.com", 1), ("a.com", 11, b"d2", "cf.com", 2)]
        )
        second = self._dataset_with_ech([("b.com", 10, b"d1", "cf.com", 1)])
        merged = merge_datasets([first, second], allow_overlap=True)
        assert len(merged.ech_observations) == 3

    def test_disjoint_slices_unchanged(self, slices):
        first, second = slices
        merged = merge_datasets([first, second])
        assert merged.ech_observations == (
            first.ech_observations + second.ech_observations
        )


class TestRunStatsRollUp:
    """Regression: merge_datasets used to silently drop run_stats, so a
    long collection reported no transport or fault totals at all."""

    @staticmethod
    def _dataset_with_stats(stats):
        from repro.scanner import RunStats

        dataset = Dataset(250, "imc2024-dnshttps", 14)
        dataset.run_stats = None if stats is None else RunStats(**stats)
        return dataset

    def test_stats_sum_across_slices(self):
        merged = merge_datasets([
            self._dataset_with_stats({"dns_queries": 10, "tcp_connects": 2}),
            self._dataset_with_stats({"dns_queries": 5, "retries": 3}),
        ])
        assert merged.run_stats.dns_queries == 15
        assert merged.run_stats.tcp_connects == 2
        assert merged.run_stats.retries == 3

    def test_slices_without_stats_are_tolerated(self):
        merged = merge_datasets([
            self._dataset_with_stats(None),
            self._dataset_with_stats({"dns_queries": 7}),
            self._dataset_with_stats(None),
        ])
        assert merged.run_stats.dns_queries == 7

    def test_no_stats_anywhere_stays_none(self):
        merged = merge_datasets([
            self._dataset_with_stats(None), self._dataset_with_stats(None)
        ])
        assert merged.run_stats is None

    def test_live_slices_roll_up(self, slices):
        first, second = slices
        merged = merge_datasets([first, second])
        assert merged.run_stats is not None
        assert (
            merged.run_stats.dns_queries
            == first.run_stats.dns_queries + second.run_stats.dns_queries
        )


class TestContinuation:
    def test_window_after_last_day(self, slices):
        first, _second = slices
        nxt = continuation_window(first)
        assert nxt == first.days()[-1] + datetime.timedelta(days=14)

    def test_gapless_coverage(self, slices):
        first, _second = slices
        assert coverage_gaps(first) == []

    def test_detects_gap(self, slices):
        first, second = slices
        merged = merge_datasets([first, second])
        # The slice boundary skips one cadence slot.
        gaps = coverage_gaps(merged, expected_step=14)
        assert len(gaps) >= 0  # structural sanity; precise gap below
        holey = merge_datasets([first, second])
        del holey.snapshots[holey.days()[1]]
        assert holey.days()[0] + datetime.timedelta(days=14) in coverage_gaps(
            holey, expected_step=14
        )
