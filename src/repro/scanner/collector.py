"""Continuous-collection driver: incremental, resumable longitudinal
campaigns over arriving day-slices × domain-shards.

The paper's artifact plan is "a longstanding framework that continuously
collects and releases HTTPS data periodically". A one-shot
``run_campaign`` (or pipeline run) scans the whole study window in one
sitting; this module instead treats the campaign as a **stream of
arriving work increments** and folds each one into a growing
longitudinal dataset the moment it completes:

* the study calendar partitions into *day-slices* — chunks of
  consecutive scan days, each planned independently by
  :func:`~repro.scanner.campaign.slice_schedule` (which resolves the
  DNSSEC-snapshot threshold to the one slice owning its concrete day);
* the domain space partitions into *shards* by the pipeline's
  :class:`~repro.scanner.pipeline.ShardPlan`;
* one **increment** is the pair (day-slice × domain-shard), executed
  through the existing sharded machinery
  (:meth:`~repro.scanner.pipeline.ParallelCampaignRunner.run_shard`,
  whose worker pool and per-process idle worlds stay warm across
  increments);
* completed increments fold along **both merge axes**: same-day shard
  parts via :func:`~repro.scanner.pipeline.merge_shard_datasets` (after
  the slice's post-merge NS-IP and hourly-ECH stages), and finished
  day-slices via :func:`~repro.scanner.incremental.fold_slice` (the
  disjoint-days axis, built on
  :meth:`~repro.scanner.dataset.Dataset.extend`).

Cross-day state is the one thing increments cannot recompute locally:
the deactivation watchlist follows apexes that published HTTPS on *any*
earlier day. That state is exactly the union of ``snapshot.apex`` keys
over the already-folded days
(:meth:`~repro.scanner.dataset.Dataset.apexes_with_https`), so each
increment receives it as the ``seen_https`` carry-in and the fold stays
value-equal to a one-shot run.

**Checkpointing.** Every completed increment's part dataset is persisted
and journalled under the checkpoint directory, and every completed
day-slice updates the merged longitudinal dataset (atomically, as every
:meth:`~repro.scanner.dataset.Dataset.save` writes); an interrupted
collection therefore resumes exactly where it stopped instead of
restarting. The checkpoint is versioned and
identity-checked: a checkpoint written by a different code version,
world config, shard count, or increment partitioning raises
:class:`CheckpointError` rather than silently mixing incompatible
state.

Headline guarantee (locked in by ``tests/test_collector.py``): a
continuous run over **any** partitioning of the study window, resumed
or not, produces a dataset value-equal to the one-shot ``run_campaign``
result, with ``run_stats`` totals accumulated across all increments.

Checkpoint directory layout::

    meta.json       identity header (version, code fingerprint, world
                    tag, schedule, shard count, slice partitioning)
    journal.jsonl   append-only journal of completed increments
    parts/          per-increment datasets of the in-progress slice
    merged.pkl.gz   the longitudinal dataset folded so far
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
import warnings
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..simnet.config import SimConfig
from ..simnet.faults import FaultSchedule
from ..simnet.snapshot import code_fingerprint, world_tag
from .campaign import build_schedule, slice_schedule
from .dataset import Dataset, DatasetFileError
from .incremental import fold_slice
from .pipeline import ParallelCampaignRunner, merge_shard_datasets

CHECKPOINT_VERSION = 1

_MAGIC = "repro-continuous-checkpoint"
_META = "meta.json"
_JOURNAL = "journal.jsonl"
_MERGED = "merged.pkl.gz"
_PARTS = "parts"


class CheckpointError(Exception):
    """A checkpoint directory is incompatible with this collection (laid
    down by different code, config, shard count, or partitioning)."""


class CollectionInterrupted(RuntimeError):
    """Raised when ``max_increments`` stops a collection mid-stream.

    The checkpoint holds everything completed so far; a later
    :meth:`ContinuousCollector.collect` with the same arguments resumes
    from it."""

    def __init__(self, executed: int, remaining: int):
        self.executed = executed
        self.remaining = remaining
        super().__init__(
            f"collection interrupted after {executed} increment(s); "
            f"{remaining} still pending — rerun with the same arguments "
            "to resume from the checkpoint"
        )


@dataclasses.dataclass(frozen=True)
class Increment:
    """One unit of arriving work: a day-slice scanned over one shard."""

    slice_index: int
    shard_index: int
    days: Tuple[datetime.date, ...]


class CheckpointStore:
    """The on-disk state of one continuous collection.

    Opening the store either initialises a fresh checkpoint (writing the
    identity header) or validates an existing one against the expected
    identity — any mismatch raises :class:`CheckpointError`, so a
    checkpoint can never silently resume under different code, config,
    shard count, or partitioning. Part files are only trusted via the
    journal *and* a successful load: a file truncated by a crash
    mid-write simply causes its increment to re-run.
    """

    def __init__(self, directory: str, meta: Dict):
        self.directory = directory
        self.parts_dir = os.path.join(directory, _PARTS)
        os.makedirs(self.parts_dir, exist_ok=True)
        self._meta_path = os.path.join(directory, _META)
        self._journal_path = os.path.join(directory, _JOURNAL)
        self._merged_path = os.path.join(directory, _MERGED)
        self._validate_or_init(meta)
        self._journal: Dict[Tuple[int, int], str] = {}
        self._load_journal()
        # Slices whose fold was lost (see load_merged); they re-run.
        self._lost_slices: Set[int] = set()

    # -- identity ----------------------------------------------------------

    def _validate_or_init(self, meta: Dict) -> None:
        if not os.path.exists(self._meta_path):
            # A directory holding collection state but no identity header
            # is unverifiable — adopting it (e.g. after someone deleted
            # only meta.json to silence a mismatch error) would fold
            # foreign data into this collection without any check.
            leftovers = any(
                os.path.exists(p) for p in (self._journal_path, self._merged_path)
            ) or bool(os.listdir(self.parts_dir))
            if leftovers:
                raise CheckpointError(
                    f"{self.directory} holds collection state but no "
                    "meta.json identity header; remove the whole "
                    "checkpoint directory to restart"
                )
            tmp = f"{self._meta_path}.tmp.{os.getpid()}"
            with open(tmp, "w") as handle:
                json.dump(meta, handle, indent=1, sort_keys=True)
            os.replace(tmp, self._meta_path)
            return
        try:
            with open(self._meta_path) as handle:
                found = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint header {self._meta_path}: {exc}"
            ) from exc
        if not isinstance(found, dict) or found.get("magic") != _MAGIC:
            raise CheckpointError(f"{self.directory} is not a collection checkpoint")
        if found.get("version") != meta["version"]:
            raise CheckpointError(
                f"checkpoint version {found.get('version')!r} != "
                f"{meta['version']} under {self.directory}"
            )
        if found.get("code") != meta["code"]:
            raise CheckpointError(
                f"checkpoint under {self.directory} was written by different "
                "repro code (stale); remove it to restart the collection"
            )
        for key in sorted(meta):
            if found.get(key) != meta[key]:
                raise CheckpointError(
                    f"checkpoint mismatch on {key!r} under {self.directory}: "
                    f"resumed collection expects {meta[key]!r}, "
                    f"checkpoint has {found.get(key)!r}"
                )

    # -- journal & parts ---------------------------------------------------

    def _load_journal(self) -> None:
        if not os.path.exists(self._journal_path):
            return
        with open(self._journal_path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:  # torn final line from a crash
                    continue
                self._journal[(entry["slice"], entry["shard"])] = entry["part"]

    def _part_path(self, slice_index: int, shard_index: int) -> str:
        return os.path.join(
            self.parts_dir, f"s{slice_index:04d}_w{shard_index:02d}.pkl.gz"
        )

    def load_part(self, slice_index: int, shard_index: int) -> Optional[Dataset]:
        """The journalled part for this increment, or None when it has
        not completed (or its file cannot be trusted — then it reruns)."""
        rel = self._journal.get((slice_index, shard_index))
        if rel is None:
            return None
        path = os.path.join(self.directory, rel)
        try:
            return Dataset.load(path)
        except (OSError, DatasetFileError) as exc:  # missing/corrupt part: treat as not done
            # The journal promised this file; say why the increment is
            # re-running instead of silently repeating the work.
            warnings.warn(
                f"re-running increment (slice {slice_index}, shard "
                f"{shard_index}): journalled part {path} is unreadable: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def has_part(self, slice_index: int, shard_index: int) -> bool:
        """Cheap completion probe: journalled and on disk. Counting-only
        callers use this instead of :meth:`load_part` so they don't
        re-unpickle every part; the load in the collect loop remains the
        trust check (a corrupt file still reruns its increment)."""
        rel = self._journal.get((slice_index, shard_index))
        return rel is not None and os.path.exists(os.path.join(self.directory, rel))

    def record_increment(
        self, increment: Increment, part: Dataset
    ) -> None:
        """Persist one completed increment: part dataset first, journal
        line second (so the journal never references a missing file)."""
        path = self._part_path(increment.slice_index, increment.shard_index)
        part.save(path)
        rel = os.path.relpath(path, self.directory)
        stats = part.run_stats
        entry = {
            "slice": increment.slice_index,
            "shard": increment.shard_index,
            "days": [d.isoformat() for d in increment.days],
            "part": rel,
            "stats": None if stats is None else dataclasses.asdict(stats),
        }
        with open(self._journal_path, "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._journal[(increment.slice_index, increment.shard_index)] = rel

    def drop_slice_parts(self, slice_index: int, shards: int) -> None:
        """Best-effort cleanup of a folded slice's part files (their data
        now lives in the merged dataset)."""
        for shard_index in range(shards):
            path = self._part_path(slice_index, shard_index)
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- merged dataset ----------------------------------------------------

    def load_merged(self) -> Optional[Dataset]:
        try:
            return Dataset.load(self._merged_path)
        except FileNotFoundError:  # fresh checkpoint: no fold yet
            return None
        except (OSError, DatasetFileError) as exc:
            # Journalled parts whose files are gone were folded into the
            # lost dataset and then dropped (drop_slice_parts): forget
            # them, so their slices re-run without a warning per part.
            lost = [
                key for key, rel in self._journal.items()
                if not os.path.exists(os.path.join(self.directory, rel))
            ]
            for key in lost:
                del self._journal[key]
            self._lost_slices.update(slice_index for slice_index, _ in lost)
            warnings.warn(
                f"ignoring unreadable merged dataset {self._merged_path}: {exc}; "
                f"the slices folded into it re-run: {sorted(self._lost_slices)}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def save_merged(self, dataset: Dataset) -> None:
        """Update the longitudinal dataset. The save is atomic: a crash
        mid-write leaves the previous fold intact, never a torn file."""
        dataset.save(self._merged_path)


class ContinuousCollector:
    """Incrementally collect a campaign as (day-slice × domain-shard)
    increments, checkpointing after every one.

    ``collect()`` executes every pending increment (optionally capped by
    ``max_increments``, which raises :class:`CollectionInterrupted` with
    the checkpoint intact) and returns the finished longitudinal
    :class:`Dataset` — value-equal to the one-shot ``run_campaign``
    result over the same window, whatever the partitioning and however
    often the collection was interrupted and resumed.

    *days_per_increment* sets how many consecutive scan days one
    day-slice covers; *workers* is both the domain-shard count and the
    worker-pool width (shard count is checkpoint identity: a resume must
    use the same value). The runner's pool and each process's idle
    world stay warm across increments, so per-increment warm-up is a
    world checkout, not a rebuild.
    """

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        checkpoint_dir: str = ".cache/checkpoints/default",
        workers: int = 1,
        day_step: int = 7,
        start: Optional[datetime.date] = None,
        end: Optional[datetime.date] = None,
        ech_sample: int = 200,
        with_ech_hourly: bool = True,
        with_dnssec_snapshot: bool = True,
        days_per_increment: int = 7,
        keep_alive: bool = False,
        scenario: Optional[FaultSchedule] = None,
    ):
        if days_per_increment < 1:
            raise ValueError("need at least one scan day per increment")
        self.config = config if config is not None else SimConfig()
        self.checkpoint_dir = checkpoint_dir
        self.keep_alive = bool(keep_alive)
        self.scenario = scenario
        self.workers = max(1, int(workers))
        self.days_per_increment = int(days_per_increment)
        self.schedule = build_schedule(
            day_step=day_step,
            start=start,
            end=end,
            ech_sample=ech_sample,
            with_ech_hourly=with_ech_hourly,
            with_dnssec_snapshot=with_dnssec_snapshot,
        )
        days = self.schedule.scan_days
        self.slices: Tuple[Tuple[datetime.date, ...], ...] = tuple(
            tuple(days[i : i + self.days_per_increment])
            for i in range(0, len(days), self.days_per_increment)
        )
        self._slice_schedules = tuple(
            slice_schedule(self.schedule, slice_days) for slice_days in self.slices
        )
        self.runner = ParallelCampaignRunner(
            self.config,
            workers=self.workers,
            schedule=self.schedule,
            keep_alive=True,
            scenario=scenario,
        )
        self.store = CheckpointStore(checkpoint_dir, self._meta())
        self.total_increments = len(self.slices) * self.workers

    def _meta(self) -> Dict:
        """The checkpoint identity header: everything that must match for
        a resume to be sound. The answer fast path stays out: it is a
        property of each world, not of the collection, and never changes
        the dataset."""
        return {
            "magic": _MAGIC,
            "version": CHECKPOINT_VERSION,
            "code": code_fingerprint(),
            "world": world_tag(self.config),
            "population": self.config.population,
            "seed": self.config.seed,
            "workers": self.workers,
            "schedule": {
                "day_step": self.schedule.day_step,
                "scan_days": [d.isoformat() for d in self.schedule.scan_days],
                "ech_days": [d.isoformat() for d in self.schedule.ech_days],
                "ech_sample": self.schedule.ech_sample,
                "dnssec_threshold": (
                    None
                    if self.schedule.dnssec_threshold is None
                    else self.schedule.dnssec_threshold.isoformat()
                ),
            },
            "slices": [[d.isoformat() for d in s] for s in self.slices],
            # The fault scenario shapes every observation, so a resume
            # must replay the increments under the same schedule (None
            # for a fault-free collection — the historical header shape,
            # so pre-scenario checkpoints stay resumable).
            "scenario": (
                None if self.scenario is None or not self.scenario
                else self.scenario.canonical_tag()
            ),
        }

    # -- public API --------------------------------------------------------

    def pending_increments(self) -> List[Increment]:
        """Increments not yet completed (journalled), in execution order."""
        return self._pending(self.store.load_merged())

    def _pending(self, merged: Optional[Dataset]) -> List[Increment]:
        """:meth:`pending_increments` against the fold *merged*."""
        folded = set() if merged is None else set(merged.snapshots)
        pending: List[Increment] = []
        for k, slice_days in enumerate(self.slices):
            if folded.issuperset(slice_days):
                continue
            for i in range(self.workers):
                if not self.store.has_part(k, i):
                    pending.append(Increment(k, i, slice_days))
        return pending

    def collect(
        self,
        progress: Optional[Callable[[str], None]] = None,
        max_increments: Optional[int] = None,
    ) -> Dataset:
        """Run every pending increment, folding and checkpointing as they
        complete, and return the finished longitudinal dataset.

        With ``keep_alive=True`` the runner's warm worker pool survives
        the call (interrupt-and-resume loops — e.g. a
        :class:`~repro.study.Study` session — reuse it); the owner then
        calls :meth:`close`."""
        try:
            return self._collect(progress, max_increments)
        finally:
            if not self.keep_alive:
                self.runner.close()

    def close(self) -> None:
        """Release the runner's worker pool (collect() does this itself;
        needed only when driving increments through lower-level calls)."""
        self.runner.close()

    def __enter__(self) -> "ContinuousCollector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _collect(self, progress, max_increments) -> Dataset:
        merged = self.store.load_merged()
        executed = 0
        for k, slice_days in enumerate(self.slices):
            sched = self._slice_schedules[k]
            if merged is not None and set(merged.snapshots).issuperset(slice_days):
                # Folded in an earlier session; parts may linger if that
                # session crashed between the fold and the cleanup.
                self.store.drop_slice_parts(k, self.workers)
                continue
            # The deactivation-watchlist carry: apexes that published
            # HTTPS on any already-folded day. Same-slice shard parts
            # cannot contribute (their domains are disjoint).
            seen = frozenset() if merged is None else frozenset(merged.apexes_with_https())
            by_shard: Dict[int, Dataset] = {}
            pending: List[int] = []
            for i in range(self.workers):
                part = self.store.load_part(k, i)
                if part is None:
                    pending.append(i)
                else:
                    by_shard[i] = part
            # Run as many pending increments as the budget allows — all
            # of them concurrently on the warm pool — journalling each
            # part the moment it completes.
            runnable = pending
            if max_increments is not None:
                runnable = pending[: max(0, max_increments - executed)]
            for i, part in self.runner.run_shards(sched, runnable, seen_https=seen):
                self.store.record_increment(Increment(k, i, slice_days), part)
                executed += 1
                by_shard[i] = part
                if progress is not None:
                    progress(
                        f"increment slice {k + 1}/{len(self.slices)} "
                        f"shard {i + 1}/{self.workers} done "
                        f"({slice_days[0]}..{slice_days[-1]})"
                    )
            if len(runnable) < len(pending):
                raise CollectionInterrupted(executed, len(self._pending(merged)))
            slice_dataset = merge_shard_datasets(
                [by_shard[i] for i in range(self.workers)]
            )
            slice_dataset = self.runner.finish_slice(slice_dataset, sched, progress)
            merged = fold_slice(merged, slice_dataset)
            self.store.save_merged(merged)
            self.store.drop_slice_parts(k, self.workers)
            if progress is not None:
                progress(
                    f"slice {k + 1}/{len(self.slices)} folded "
                    f"({len(merged.snapshots)}/{len(self.schedule.scan_days)} "
                    f"days collected)"
                )
        if merged is None:  # empty schedule: nothing to collect
            merged = Dataset(
                self.config.population, self.config.seed, self.schedule.day_step
            )
        if progress is not None and merged.run_stats is not None:
            progress(f"collection summary: {merged.run_stats.summary()}")
        return merged


def has_checkpoint(checkpoint_dir: str) -> bool:
    """Whether *checkpoint_dir* holds an initialised collection
    checkpoint (its identity header exists). Read-only probes use this
    to avoid constructing a :class:`CheckpointStore`, which would lay
    down a fresh header as a side effect."""
    return os.path.exists(os.path.join(checkpoint_dir, _META))


def load_checkpoint_dataset(checkpoint_dir: str) -> Dataset:
    """The longitudinal dataset folded so far under *checkpoint_dir*
    (complete or not). Release tooling and the CI resume smoke load
    their result this way without reconstructing a collector. Raises
    ``OSError`` when no fold has happened yet and
    :class:`~repro.scanner.dataset.DatasetFileError` when the fold is
    corrupt."""
    return Dataset.load(os.path.join(checkpoint_dir, _MERGED))
