"""Incremental / longitudinal dataset maintenance.

The paper's artifact plan is "a longstanding framework that continuously
collects and releases HTTPS data periodically". This module supports
that mode of operation: campaigns run in slices (e.g. one per week),
each producing a Dataset, which are then merged into one longitudinal
dataset for analysis — with consistency checks so slices from different
worlds cannot be silently mixed.

Architecture of a continuous collection (see
:mod:`~repro.scanner.collector` for the driver):

* **Increments.** The study window partitions into *day-slices* (chunks
  of consecutive scan days, planned by
  :func:`~repro.scanner.campaign.slice_schedule`) and the domain space
  into *shards* (:class:`~repro.scanner.pipeline.ShardPlan`); one unit
  of arriving work is the pair (day-slice × domain-shard). Each
  increment runs through the same sharded machinery a one-shot
  pipeline run uses, with the cross-day ``seen_https`` watchlist state
  carried in from the already-folded days
  (:meth:`~repro.scanner.dataset.Dataset.apexes_with_https`).

* **Folds.** Results compose along both merge axes: same-day shard
  parts fold with
  :func:`~repro.scanner.pipeline.merge_shard_datasets`, and each
  completed day-slice folds into the growing longitudinal dataset with
  :func:`fold_slice` here (the disjoint-days axis, built on
  :meth:`~repro.scanner.dataset.Dataset.extend`). The two axes commute:
  shards-then-days and days-then-shards produce value-equal datasets,
  and either equals the one-shot ``run_campaign`` result. ``run_stats``
  totals accumulate across every increment and post-merge stage.

* **Checkpoints.** The collector journals each completed increment and
  persists the current merged dataset to a versioned on-disk checkpoint,
  so an interrupted collection resumes exactly where it stopped instead
  of restarting (and a checkpoint written by a different code version,
  config, or partitioning is rejected, never silently reused).
"""

from __future__ import annotations

import datetime
from typing import List, Optional, Sequence

from .dataset import Dataset


class DatasetMergeError(ValueError):
    """Incompatible or overlapping dataset slices."""


def merge_datasets(slices: Sequence[Dataset], allow_overlap: bool = False) -> Dataset:
    """Merge campaign *slices* into one longitudinal dataset.

    Slices must come from the same simulated world (population + seed).
    Overlapping scan days are rejected unless *allow_overlap* — in which
    case later slices win (re-scans supersede). Per-slice ``run_stats``
    (when recorded) sum onto the merged dataset, so a long collection
    reports its transport and fault totals rather than dropping them.
    """
    if not slices:
        raise DatasetMergeError("nothing to merge")
    first = slices[0]
    merged = Dataset(first.population, first.seed, first.day_step)
    for dataset in slices:
        try:
            merged.extend(dataset, allow_overlap=allow_overlap)
        except ValueError as exc:
            raise DatasetMergeError(str(exc)) from exc
    merged.day_step = _effective_step(merged)
    return merged


def fold_slice(longitudinal: Optional[Dataset], part: Dataset) -> Dataset:
    """Fold a newly completed day-slice into the growing longitudinal
    dataset (in place) and return it.

    The continuous collector's disjoint-days fold: like
    :func:`merge_datasets` (same machinery —
    :meth:`~repro.scanner.dataset.Dataset.extend`) but the campaign
    cadence ``day_step`` is preserved rather than recomputed from
    observed gaps, so the finished fold is value-equal to the one-shot
    ``run_campaign`` dataset (whose ``day_step`` is the configured one
    even though the hourly-ECH week inserts daily scan days).
    """
    if longitudinal is None:
        return part
    try:
        return longitudinal.extend(part)
    except ValueError as exc:
        raise DatasetMergeError(str(exc)) from exc


def _effective_step(dataset: Dataset) -> int:
    days = dataset.days()
    if len(days) < 2:
        return dataset.day_step or 1
    gaps = [(b - a).days for a, b in zip(days, days[1:])]
    return max(1, min(gaps))


def continuation_window(
    dataset: Dataset, day_step: Optional[int] = None
) -> Optional[datetime.date]:
    """The first scan day a continuation campaign should cover, or None
    when the dataset is empty (start from the study beginning)."""
    days = dataset.days()
    if not days:
        return None
    step = day_step or dataset.day_step or 1
    return days[-1] + datetime.timedelta(days=step)


def coverage_gaps(dataset: Dataset, expected_step: Optional[int] = None) -> List[datetime.date]:
    """Scan days missing from an expected regular cadence (release QA)."""
    days = dataset.days()
    if len(days) < 2:
        return []
    step = expected_step or _effective_step(dataset)
    missing: List[datetime.date] = []
    current = days[0]
    have = set(days)
    while current <= days[-1]:
        if current not in have:
            missing.append(current)
        current += datetime.timedelta(days=step)
    return missing
