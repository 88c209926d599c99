"""Sharded scan pipeline: the campaign decomposed across workers.

The sequential :func:`~repro.scanner.campaign.run_campaign` walks every
ranked name through one :class:`~repro.simnet.world.World`. Worlds are
deterministic functions of (:class:`~repro.simnet.config.SimConfig`,
seed), so the campaign parallelises cleanly: partition the domain space
into N shards, let each worker rebuild its own world and scan only its
slice of every day's ranked list, then merge the per-shard snapshots.

Sharding is by *domain*, never by day: cross-day state (the
``seen_https`` set driving the deactivation watchlist) follows a domain
through the whole study, so each worker must own its domains' full
history. Two properties make the merged dataset *equal* to (not merely
statistically like) the sequential one:

* every observation is deterministic per (name, day/hour) — resolver
  caches expire well within the scan cadence (``default_ttl`` 300 s vs
  daily/hourly steps), so a fresh world answers exactly like a
  long-running one;
* merge order is canonical — per-day dicts are rebuilt in ranked-list
  order and hourly ECH rows in (hour, name) order, which is precisely
  the order a single sequential pass emits them in.

The hourly ECH rescan (§4.4.2) needs the *global* day snapshot to pick
its targets (first ``ech_sample`` ECH-bearing apexes by name), so it
runs as a second stage after the daily-scan merge, itself sharded by the
same plan.

Worker transport counters (``Network.dns_query_count`` etc.) are
summed across all stages into ``run_stats`` on the merged dataset.

Workers are processes (``concurrent.futures.ProcessPoolExecutor``), or
the calling process itself at one worker. Every stage task checks a
world out of its process's idle pool
(:func:`~repro.simnet.snapshot.checkout_world`) and checks it back in,
reset, when done, so a persistent pool process builds its world once
and reuses it across stages and increments. A reset world answers
bit-for-bit like a fresh one, so reuse preserves value equality.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import datetime
import hashlib
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..simnet import timeline
from ..simnet.config import SimConfig
from ..simnet.faults import FaultSchedule
from ..simnet.snapshot import checkin_world, checkout_world
from ..simnet.world import World
from .campaign import (
    CampaignSchedule,
    RunStats,
    build_schedule,
    ech_targets,
    ns_hostnames_of,
    run_scheduled,
    scan_ech_hour,
    scan_nameserver_set,
)
from .dataset import DailySnapshot, Dataset
from .engine import ScanEngine
from .incremental import DatasetMergeError
from .records import EchObservation, NameServerObservation


class ShardPlan:
    """Deterministic partition of the domain space into N shards.

    Assignment hashes the (seed, name) pair, so it is stable across
    processes, runs, and daily Tranco churn — a domain always lands in
    the same shard no matter which day's list it appears on.
    """

    def __init__(self, shards: int, seed: str = ""):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.shards = shards
        self.seed = seed

    def shard_of(self, name: str) -> int:
        if self.shards == 1:
            return 0
        digest = hashlib.sha256(f"{self.seed}|{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big") % self.shards

    def slice_of(self, names: Iterable[str], index: int) -> List[str]:
        """The sub-list of *names* owned by shard *index* (order kept)."""
        return [name for name in names if self.shard_of(name) == index]

    def partition(self, names: Iterable[str]) -> List[List[str]]:
        """Split *names* into per-shard lists (order kept within each)."""
        parts: List[List[str]] = [[] for _ in range(self.shards)]
        for name in names:
            parts[self.shard_of(name)].append(name)
        return parts


# ---------------------------------------------------------------------------
# worker entry points (module-level so process pools can pickle them)
# ---------------------------------------------------------------------------


def _scan_shard(
    config: SimConfig, schedule: CampaignSchedule, shards: int, index: int,
    seen_https: FrozenSet[str] = frozenset(),
    scenario: Optional[FaultSchedule] = None,
) -> Dataset:
    """Stage 1: run the daily-scan schedule over one domain shard.

    *seen_https* is the deactivation-watchlist carry-in for day-slice
    increments (apexes that already published HTTPS on earlier, already
    folded days); a whole-window run passes the empty set."""
    world = checkout_world(config)
    try:
        plan = ShardPlan(shards, config.seed)
        names = {p.name for p in world.profiles if plan.shard_of(p.name) == index}
        # Hourly ECH and the NS-IP scan run post-merge: the former needs the
        # merged day snapshot to pick targets, and popular name servers
        # appear in every shard, so scanning them here would repeat the work
        # N times.
        quiet = dataclasses.replace(schedule, ech_days=())
        return run_scheduled(
            world, quiet, names=names, scan_nameservers=False,
            seen_https=seen_https, scenario=scenario,
        )
    finally:
        checkin_world(world)


def _scan_ns_shard(
    config: SimConfig,
    day_hostnames: Tuple[Tuple[datetime.date, Tuple[str, ...]], ...],
    scenario: Optional[FaultSchedule] = None,
) -> Tuple[List[Tuple[datetime.date, str, NameServerObservation]], RunStats]:
    """Post-merge NS stage: resolve + WHOIS-attribute name servers."""
    world = checkout_world(config)
    try:
        world.install_faults(scenario)
        engine = ScanEngine(world)
        results: List[Tuple[datetime.date, str, NameServerObservation]] = []
        for date, hostnames in sorted(day_hostnames):
            world.set_time(date)
            for hostname, observation in scan_nameserver_set(engine, hostnames):
                results.append((date, hostname, observation))
        return results, RunStats.of_world(world)
    finally:
        checkin_world(world)


def _scan_ech_shard(
    config: SimConfig,
    day_targets: Tuple[Tuple[datetime.date, Tuple[str, ...]], ...],
    scenario: Optional[FaultSchedule] = None,
) -> Tuple[List[EchObservation], RunStats]:
    """Stage 2: hourly ECH rescans for this shard's targets per day."""
    world = checkout_world(config)
    try:
        world.install_faults(scenario)
        engine = ScanEngine(world)
        observations: List[EchObservation] = []
        for date, targets in sorted(day_targets):
            names = [world.profile_by_name(t).apex for t in targets]
            for hour in range(24):
                world.set_time(date, hour)
                absolute_hour = timeline.day_index(date) * 24 + hour
                observations.extend(scan_ech_hour(engine, names, absolute_hour))
        return observations, RunStats.of_world(world)
    finally:
        checkin_world(world)


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------


def merge_shard_datasets(parts: Sequence[Dataset]) -> Dataset:
    """Merge per-shard datasets covering the *same days* over disjoint
    name-slices (the domain-sharded counterpart of
    :func:`~repro.scanner.incremental.merge_datasets`, which merges
    disjoint day-slices of the full name space)."""
    if not parts:
        raise DatasetMergeError("nothing to merge")
    first = parts[0]
    for part in parts[1:]:
        if (part.population, part.seed) != (first.population, first.seed):
            raise DatasetMergeError(
                "cannot merge shards from different worlds: "
                f"{(part.population, part.seed)} vs {(first.population, first.seed)}"
            )
        if part.days() != first.days():
            raise DatasetMergeError("shard datasets cover different scan days")
    merged = Dataset(first.population, first.seed, first.day_step)
    for day in first.days():
        try:
            merged.add_snapshot(
                DailySnapshot.merge_shards([part.snapshots[day] for part in parts])
            )
        except ValueError as exc:
            raise DatasetMergeError(str(exc)) from exc
    merged.ech_observations = _canonical_ech_order(
        observation for part in parts for observation in part.ech_observations
    )
    # Worker transport counters die with the worker processes unless the
    # merge carries them over; sum whatever the parts recorded.
    part_stats = [s for s in (getattr(p, "run_stats", None) for p in parts) if s is not None]
    if part_stats:
        merged.run_stats = sum(part_stats[1:], part_stats[0])
    dates = {p.dnssec_snapshot_date for p in parts if p.dnssec_snapshot_date is not None}
    if len(dates) > 1:
        raise DatasetMergeError(f"shards disagree on the DNSSEC snapshot day: {dates}")
    if dates:
        date = dates.pop()
        combined: Dict[str, tuple] = {}
        for part in parts:
            combined.update(part.dnssec_snapshot)
        ranked = (
            merged.snapshots[date].ranked_names
            if date in merged.snapshots
            else tuple(sorted(combined))
        )
        merged.dnssec_snapshot = {n: combined[n] for n in ranked if n in combined}
        merged.dnssec_snapshot_date = date
    return merged


def _canonical_ech_order(observations: Iterable[EchObservation]) -> List[EchObservation]:
    """Sort hourly ECH rows the way a sequential pass emits them: days
    and hours ascending, targets in name order within each hour."""
    return sorted(observations, key=lambda o: (o.hour, o.name))


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


class ParallelCampaignRunner:
    """Run the measurement campaign sharded across worker processes.

    Produces a :class:`Dataset` equal to ``run_campaign`` on the same
    config (see module docstring for why). At ``workers=1`` every stage
    runs inline in the calling process; otherwise on a process pool.

    The runner is reusable across schedules: its worker pool is created
    lazily and persists between calls, so consecutive increments of a
    continuous collection (:mod:`~repro.scanner.collector`) reuse warm
    worker processes — each keeping its built world in its idle pool —
    instead of paying pool spin-up and world warm-up per increment.
    ``run()`` keeps its one-shot contract (the pool is torn down
    afterwards) unless ``keep_alive=True``; callers driving increments
    through :meth:`run_shard` / :meth:`finish_slice` /
    :meth:`run_schedule` own the lifetime and call :meth:`close` (or use
    the runner as a context manager).
    """

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        workers: int = 2,
        day_step: int = 7,
        start: Optional[datetime.date] = None,
        end: Optional[datetime.date] = None,
        ech_sample: int = 200,
        with_ech_hourly: bool = True,
        with_dnssec_snapshot: bool = True,
        schedule: Optional[CampaignSchedule] = None,
        keep_alive: bool = False,
        scenario: Optional[FaultSchedule] = None,
    ):
        self.config = config if config is not None else SimConfig()
        self.workers = max(1, int(workers))
        self.keep_alive = bool(keep_alive)
        self.scenario = scenario
        self.schedule = schedule if schedule is not None else build_schedule(
            day_step=day_step,
            start=start,
            end=end,
            ech_sample=ech_sample,
            with_ech_hourly=with_ech_hourly,
            with_dnssec_snapshot=with_dnssec_snapshot,
        )
        self.plan = ShardPlan(self.workers, self.config.seed)
        # Filled by run()/run_schedule(): transport and cache counters
        # summed over every worker in every stage (they are otherwise
        # lost at worker exit).
        self.run_stats: Optional[RunStats] = None
        self._pool_instance = None

    # -- public API --------------------------------------------------------

    def run(self, progress: Optional[Callable[[str], None]] = None) -> Dataset:
        try:
            return self.run_schedule(self.schedule, progress=progress)
        finally:
            if not self.keep_alive:
                self.close()

    def run_schedule(
        self,
        schedule: CampaignSchedule,
        progress: Optional[Callable[[str], None]] = None,
        seen_https: FrozenSet[str] = frozenset(),
    ) -> Dataset:
        """Execute an arbitrary (sub-)schedule through the sharded
        three-stage machinery and return the merged dataset.

        The worker pool stays warm afterwards — this is the increment
        executor the continuous collector loops over (``run()`` wraps it
        for the one-shot whole-campaign case)."""
        if self.workers == 1:
            # A throwaway world, not a pooled one: a one-shot run has no
            # later stage to hand it to, and parking it would pin it for
            # the process lifetime.
            dataset = run_scheduled(
                World(self.config), schedule,
                progress=progress, seen_https=seen_https,
                scenario=self.scenario,
            )
            self.run_stats = dataset.run_stats
            return dataset
        shards = self._execute(
            [
                (
                    _scan_shard,
                    (
                        self.config, schedule, self.workers, index,
                        seen_https, self.scenario,
                    ),
                )
                for index in range(self.workers)
            ],
            progress,
            "daily scans",
        )
        dataset = merge_shard_datasets(shards)
        dataset = self.finish_slice(dataset, schedule, progress=progress)
        self.run_stats = dataset.run_stats
        if progress is not None:
            progress(f"run summary: {dataset.run_stats.summary()}")
        return dataset

    def run_shard(
        self,
        schedule: CampaignSchedule,
        index: int,
        seen_https: FrozenSet[str] = frozenset(),
    ) -> Dataset:
        """Stage 1 for a single (schedule × shard) increment: the daily
        scans of shard *index* over *schedule*'s days, ECH/NS stages
        deferred to :meth:`finish_slice`."""
        [(_, part)] = self.run_shards(schedule, (index,), seen_https=seen_https)
        return part

    def run_shards(
        self,
        schedule: CampaignSchedule,
        indices: Sequence[int],
        seen_https: FrozenSet[str] = frozenset(),
    ) -> Iterator[Tuple[int, Dataset]]:
        """Stage 1 for several shards of *schedule* at once, saturating
        the persistent pool (serial submission would leave N-1 workers
        idle through the dominant stage). Yields (index, part) pairs in
        completion order, so callers that checkpoint per increment can
        journal each part the moment it lands."""
        seen = frozenset(seen_https)
        args = {
            index: (
                self.config, schedule, self.workers, index,
                seen, self.scenario,
            )
            for index in indices
        }
        if self.workers == 1:
            for index, task in args.items():
                yield index, _scan_shard(*task)
            return
        futures = {
            self._pool().submit(_scan_shard, *task): index
            for index, task in args.items()
        }
        for future in concurrent.futures.as_completed(futures):
            yield futures[future], future.result()

    def finish_slice(
        self,
        dataset: Dataset,
        schedule: CampaignSchedule,
        progress: Optional[Callable[[str], None]] = None,
    ) -> Dataset:
        """Post-merge stages for one day-slice: the NS-IP scan and the
        hourly ECH rescan, both of which need the slice's *merged* day
        snapshots (target selection is global per day). Accumulates the
        stage workers' transport counters onto ``dataset.run_stats``."""
        stats = getattr(dataset, "run_stats", None) or RunStats()
        stats = stats + self._run_ns_stage(dataset, schedule, progress)
        if schedule.ech_days:
            stats = stats + self._run_ech_stage(dataset, schedule, progress)
        dataset.run_stats = stats
        return dataset

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        if self._pool_instance is not None:
            self._pool_instance.shutdown()
            self._pool_instance = None

    def __enter__(self) -> "ParallelCampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _pool(self):
        """The persistent worker pool, created on first use."""
        if self._pool_instance is None:
            self._pool_instance = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers
            )
        return self._pool_instance

    def _execute(self, tasks, progress, label: str) -> list:
        """Run (fn, args) *tasks* — on the persistent pool, or inline
        when there is nothing to parallelise over (one worker)."""
        if self.workers == 1:
            return [fn(*args) for fn, args in tasks]
        futures = [self._pool().submit(fn, *args) for fn, args in tasks]
        if progress is not None:
            done = 0
            for _ in concurrent.futures.as_completed(futures):
                done += 1
                progress(f"{label}: shard {done}/{len(futures)} complete")
        return [future.result() for future in futures]

    def _run_ns_stage(
        self, dataset: Dataset, schedule: CampaignSchedule, progress
    ) -> RunStats:
        """Scan each NS-IP-window day's name servers once over the merged
        snapshots (stage 1 skips them — popular name servers appear in
        every shard and would be scanned N times), sharded by hostname."""
        per_shard: List[Dict[datetime.date, List[str]]] = [
            {} for _ in range(self.workers)
        ]
        for date in schedule.scan_days:
            if date < timeline.NS_IP_WHOIS_SCAN_START:
                continue
            snapshot = dataset.snapshots.get(date)
            if snapshot is None:
                continue
            for hostname in sorted(ns_hostnames_of(snapshot)):
                per_shard[self.plan.shard_of(hostname)].setdefault(date, []).append(
                    hostname
                )
        tasks = []
        for day_hostnames in per_shard:
            if not day_hostnames:
                continue
            frozen = tuple(
                (date, tuple(hostnames))
                for date, hostnames in sorted(day_hostnames.items())
            )
            tasks.append(
                (
                    _scan_ns_shard,
                    (self.config, frozen, self.scenario),
                )
            )
        if not tasks:
            return RunStats()
        results = self._execute(tasks, progress, "NS-IP scans")
        by_day: Dict[datetime.date, Dict[str, NameServerObservation]] = {}
        stage_stats = RunStats()
        for result, stats in results:
            stage_stats = stage_stats + stats
            for date, hostname, observation in result:
                by_day.setdefault(date, {})[hostname] = observation
        for date, observations in by_day.items():
            dataset.snapshots[date].ns_observations = {
                hostname: observations[hostname] for hostname in sorted(observations)
            }
        return stage_stats

    def _run_ech_stage(
        self, dataset: Dataset, schedule: CampaignSchedule, progress
    ) -> RunStats:
        """Select hourly-rescan targets from the merged day snapshots
        (the same global rule the sequential runner applies), shard them
        by owner, and scan."""
        per_shard: List[Dict[datetime.date, List[str]]] = [
            {} for _ in range(self.workers)
        ]
        for date in schedule.ech_days:
            snapshot = dataset.snapshots.get(date)
            if snapshot is None:
                continue
            for name in ech_targets(snapshot, schedule.ech_sample):
                per_shard[self.plan.shard_of(name)].setdefault(date, []).append(name)
        tasks = []
        for day_targets in per_shard:
            if not day_targets:
                continue
            frozen = tuple(
                (date, tuple(names)) for date, names in sorted(day_targets.items())
            )
            tasks.append(
                (
                    _scan_ech_shard,
                    (self.config, frozen, self.scenario),
                )
            )
        if not tasks:
            return RunStats()
        results = self._execute(tasks, progress, "hourly ECH")
        stage_stats = RunStats()
        for _, stats in results:
            stage_stats = stage_stats + stats
        new_rows = _canonical_ech_order(
            observation for result, _ in results for observation in result
        )
        dataset.ech_observations = new_rows
        return stage_stats
