"""The measurement dataset: snapshots collected by a scan campaign.

Mirrors the paper's data layout (Table 1): daily domain scans, the
SOA/NS window, the NS-IP/WHOIS window, hourly ECH scans, the
connectivity experiment, and the DNSSEC validation snapshot.

File format (the dataset cache, checkpoint parts, the merged fold and
release snapshots all go through :meth:`Dataset.save`/:meth:`Dataset.load`):
one gzip member holding a protocol-4 pickle of the :class:`Dataset`.

* Every object in the pickle is stored as a field tuple, never as a
  slot-name -> value dict: the records and :class:`DailySnapshot` as
  their class and constructor fields, the :class:`Dataset` as its state
  tuple (``_STATE``, which leaves out ``loaded_from_cache``). Values the
  scanner shares (see :mod:`~repro.scanner.records`) are written once.
* The encoding is canonical: loading a file and saving the result gives
  the same bytes. Pickle restores which values are shared, and no slot
  name is written that a value string could alias (``kind="apex"`` is
  the very object of the ``apex`` slot name).
* Files with the older slot-state encoding still load: the record
  classes keep pickle's default restore, and ``DailySnapshot`` and
  ``Dataset`` accept the old state in ``__setstate__``.
* The gzip level is ``_LEVEL``: the lowest level whose file is within 5%
  of level 9's size, chosen from the sweep in
  ``bench_results/BENCH_dataset_codec.json``.
* The gzip header's mtime is zero, so saving a dataset twice gives the
  same file.
* Pickling and unpickling run with the cyclic collector paused
  (:func:`~repro.gcutils.paused_gc`).
* The write is atomic: the bytes go to a temporary file in the target
  directory, which then replaces the target (``os.replace``). A crash
  mid-save leaves the previous file as it was.
* The load decompresses the whole file, which checks the gzip CRC-32
  and length trailer, before unpickling anything. A file that does not
  decode to a :class:`Dataset` (bit rot, truncation, a foreign pickle)
  raises :class:`DatasetFileError`; a missing file raises
  ``FileNotFoundError``. No corrupt file loads as some other dataset.
"""

from __future__ import annotations

import contextlib
import datetime
import gzip
import hashlib
import os
import pickle
import zlib
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..gcutils import paused_gc
from ..simnet import timeline
from .records import (
    ConnectivityProbe,
    DomainObservation,
    EchObservation,
    NameServerObservation,
    _SlotsEqualityMixin,
)

_PICKLE_PROTOCOL = 4
_LEVEL = 5


class DatasetFileError(Exception):
    """A dataset file exists but does not decode to a :class:`Dataset`."""


class DailySnapshot(_SlotsEqualityMixin):
    """Everything observed on one scan day.

    Compares by value (slot-wise), like the record classes it holds."""

    __slots__ = (
        "date",
        "ranked_names",
        "apex",
        "www",
        "apex_https_count",
        "www_https_count",
        "ns_observations",
        "connectivity",
        "watchlist_ns",
    )

    def __init__(self, date: datetime.date, ranked_names: Tuple[str, ...]):
        self.date = date
        self.ranked_names = ranked_names
        # Observations are stored only for names where an HTTPS record was
        # seen (all analyses of non-adopters are aggregate counts).
        self.apex: Dict[str, DomainObservation] = {}
        self.www: Dict[str, DomainObservation] = {}
        self.apex_https_count = 0
        self.www_https_count = 0
        self.ns_observations: Dict[str, NameServerObservation] = {}
        self.connectivity: List[ConnectivityProbe] = []
        # NS sets of domains that previously published HTTPS but do not
        # today (deactivation follow-up; () means no NS records at all).
        self.watchlist_ns: Dict[str, Tuple[str, ...]] = {}

    def __reduce__(self):
        # The constructor takes (date, ranked_names); the other slots
        # travel as a field tuple, in slot order.
        fields = self._fields(self)
        return self.__class__, fields[:2], fields[2:]

    def __setstate__(self, state) -> None:
        # An older writer's state is (None, {slot: value}).
        items = state[1].items() if state[0] is None else zip(self.__slots__[2:], state)
        for slot, value in items:
            setattr(self, slot, value)

    @property
    def list_size(self) -> int:
        return len(self.ranked_names)

    def rank_of(self, name: str) -> Optional[int]:
        try:
            return self.ranked_names.index(name) + 1
        except ValueError:
            return None

    def apex_https_rate(self) -> float:
        return self.apex_https_count / max(1, self.list_size)

    def www_https_rate(self) -> float:
        return self.www_https_count / max(1, self.list_size)

    # -- shard support -------------------------------------------------------

    @classmethod
    def merge_shards(cls, parts: Sequence["DailySnapshot"]) -> "DailySnapshot":
        """Merge same-day snapshots whose observations cover disjoint
        name-slices (the pipeline's per-shard outputs).

        Every part must carry the same date and full ranked list; merged
        dicts/lists are rebuilt in ranked-list order so the result is
        indistinguishable from a sequential single-pass scan.
        """
        if not parts:
            raise ValueError("nothing to merge")
        first = parts[0]
        for part in parts[1:]:
            if part.date != first.date or part.ranked_names != first.ranked_names:
                raise ValueError(
                    f"shard snapshots disagree on the ranked list for {first.date}"
                )
        apex: Dict[str, DomainObservation] = {}
        www: Dict[str, DomainObservation] = {}
        ns_observations: Dict[str, NameServerObservation] = {}
        watchlist: Dict[str, Tuple[str, ...]] = {}
        connectivity: List[ConnectivityProbe] = []
        for part in parts:
            apex.update(part.apex)
            www.update(part.www)
            ns_observations.update(part.ns_observations)
            watchlist.update(part.watchlist_ns)
            connectivity.extend(part.connectivity)
        merged = cls(first.date, first.ranked_names)
        rank = {name: i for i, name in enumerate(first.ranked_names)}
        merged.apex = {n: apex[n] for n in first.ranked_names if n in apex}
        # www observations are keyed by the scanned hostname (www.<apex>).
        merged.www = {
            key: www[key]
            for key in (f"www.{n}" for n in first.ranked_names)
            if key in www
        }
        merged.apex_https_count = len(merged.apex)
        merged.www_https_count = len(merged.www)
        merged.ns_observations = {h: ns_observations[h] for h in sorted(ns_observations)}
        merged.connectivity = sorted(
            connectivity, key=lambda probe: rank.get(probe.name, len(rank))
        )
        merged.watchlist_ns = {n: watchlist[n] for n in first.ranked_names if n in watchlist}
        return merged


class Dataset:
    """A full campaign's worth of snapshots."""

    def __init__(self, population: int, seed: str, day_step: int):
        self.population = population
        self.seed = seed
        self.day_step = day_step
        self.snapshots: Dict[datetime.date, DailySnapshot] = {}
        self.ech_observations: List[EchObservation] = []
        # name -> (has_https, signed, validation_state, ns_names, registrar)
        self.dnssec_snapshot: Dict[str, tuple] = {}
        self.dnssec_snapshot_date: Optional[datetime.date] = None
        # Diagnostic transport and cache counters for the run that built
        # this dataset (a campaign.RunStats); deliberately excluded from
        # __eq__ — serial and sharded runs produce equal
        # datasets but different counter values.
        self.run_stats = None
        # True when this instance came from Dataset.load rather than a
        # live campaign run (so run_stats describes the originating run,
        # not the current invocation). Set by load(); not persisted.
        self.loaded_from_cache = False

    # What a file holds, in order: everything but loaded_from_cache.
    _STATE = (
        "population",
        "seed",
        "day_step",
        "snapshots",
        "ech_observations",
        "dnssec_snapshot",
        "dnssec_snapshot_date",
        "run_stats",
    )

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, key) for key in self._STATE)

    def __setstate__(self, state) -> None:
        # An older writer's state is the instance __dict__.
        items = state.items() if isinstance(state, dict) else zip(self._STATE, state)
        for key, value in items:
            setattr(self, key, value)
        self.loaded_from_cache = False

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.population, self.seed, self.day_step)
            == (other.population, other.seed, other.day_step)
            and self.snapshots == other.snapshots
            and self.ech_observations == other.ech_observations
            and self.dnssec_snapshot == other.dnssec_snapshot
            and self.dnssec_snapshot_date == other.dnssec_snapshot_date
        )

    # -- access ------------------------------------------------------------

    def days(self) -> List[datetime.date]:
        return sorted(self.snapshots)

    def days_between(
        self, start: Optional[datetime.date] = None, end: Optional[datetime.date] = None
    ) -> List[datetime.date]:
        return [
            d for d in self.days()
            if (start is None or d >= start) and (end is None or d <= end)
        ]

    def snapshot(self, date: datetime.date) -> DailySnapshot:
        return self.snapshots[date]

    def add_snapshot(self, snapshot: DailySnapshot) -> None:
        self.snapshots[snapshot.date] = snapshot

    def extend(self, other: "Dataset", allow_overlap: bool = False) -> "Dataset":
        """Fold *other* — a campaign slice over the same world — into
        this dataset in place and return self.

        This is the disjoint-days merge axis (what
        :func:`~repro.scanner.incremental.merge_datasets` folds over):
        snapshots concatenate (overlapping days rejected unless
        *allow_overlap*, in which case the later slice supersedes),
        hourly ECH rows dedupe by (name, hour, config), the latest
        DNSSEC snapshot wins, and ``run_stats`` accumulate so a
        longitudinal collection reports transport and fault totals
        across all of its increments. ``day_step`` is deliberately left
        alone: the continuous collector folds slices of one campaign
        cadence, and recomputing it from observed gaps would diverge
        from the one-shot dataset (callers that want the observed
        cadence use :func:`~repro.scanner.incremental.merge_datasets`).
        """
        if (other.population, other.seed) != (self.population, self.seed):
            raise ValueError(
                "cannot merge datasets from different worlds: "
                f"{(other.population, other.seed)} vs {(self.population, self.seed)}"
            )
        for day, snapshot in other.snapshots.items():
            if day in self.snapshots and not allow_overlap:
                raise ValueError(f"scan day {day} present in more than one slice")
            self.snapshots[day] = snapshot
        if other.ech_observations:
            # Dedupe hourly ECH rows across re-scanned slices: a (name,
            # hour, config) sighting appears once no matter how many
            # slices covered that hour, later slices superseding.
            by_key = {
                (o.name, o.hour, o.config_digest): o for o in self.ech_observations
            }
            for observation in other.ech_observations:
                key = (observation.name, observation.hour, observation.config_digest)
                by_key[key] = observation
            self.ech_observations = list(by_key.values())
        if other.dnssec_snapshot:
            if (
                self.dnssec_snapshot_date is None
                or other.dnssec_snapshot_date > self.dnssec_snapshot_date
            ):
                self.dnssec_snapshot = other.dnssec_snapshot
                self.dnssec_snapshot_date = other.dnssec_snapshot_date
        if other.run_stats is not None:
            self.run_stats = (
                other.run_stats
                if self.run_stats is None
                else self.run_stats + other.run_stats
            )
        return self

    def apexes_with_https(self) -> set:
        """Apexes that published HTTPS on at least one scan day.

        This is exactly the ``seen_https`` deactivation-watchlist state a
        campaign accumulates while scanning these days, so a continuation
        run over later day-slices passes it to
        :func:`~repro.scanner.campaign.run_scheduled` as its carry-in.
        """
        seen: set = set()
        for snapshot in self.snapshots.values():
            seen.update(snapshot.apex)
        return seen

    # -- overlapping-domain machinery (§4.1) ---------------------------------

    def overlapping_domains(self, phase: int) -> FrozenSet[str]:
        """Domains present in the list on *every* scan day of the phase."""
        days = [d for d in self.days() if timeline.phase_of(d) == phase]
        if not days:
            return frozenset()
        result: Optional[set] = None
        for day in days:
            names = set(self.snapshots[day].ranked_names)
            result = names if result is None else (result & names)
        return frozenset(result or ())

    def union_domains(self, phase: Optional[int] = None) -> FrozenSet[str]:
        result: set = set()
        for day in self.days():
            if phase is None or timeline.phase_of(day) == phase:
                result.update(self.snapshots[day].ranked_names)
        return frozenset(result)

    # -- persistence -----------------------------------------------------------

    def save(self, path: str) -> None:
        """Write this dataset to *path* atomically (see the module
        docstring for the format)."""
        # The pickler's memo keeps every temporary it builds (reduce
        # tuples, slot-state dicts) alive until it returns, and all of it
        # is freed by refcount then; collection passes meanwhile would
        # only re-walk it.
        with paused_gc():
            payload = pickle.dumps(self, protocol=_PICKLE_PROTOCOL)
        blob = gzip.compress(payload, compresslevel=_LEVEL, mtime=0)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "Dataset":
        """Read the dataset at *path*. Raises ``FileNotFoundError`` when
        there is no file and :class:`DatasetFileError` when the file does
        not decode to a dataset."""
        with open(path, "rb") as handle:
            blob = handle.read()
        try:
            payload = gzip.decompress(blob)
        except (OSError, EOFError, zlib.error) as exc:
            raise DatasetFileError(f"{path} is not an intact gzip file: {exc!r}") from exc
        try:
            # A dataset is a large graph of small objects, all reachable
            # from the result; collection passes during the unpickle
            # would only re-walk the half-built graph.
            with paused_gc():
                dataset = pickle.loads(payload)
        except Exception as exc:  # a foreign or stale pickle can raise any type
            raise DatasetFileError(f"{path} does not unpickle: {exc!r}") from exc
        if not isinstance(dataset, cls):
            raise DatasetFileError(f"{path} does not contain a Dataset")
        dataset.loaded_from_cache = True
        return dataset


def _dataset_key(population: int, seed: str, day_step: int, tag: str) -> str:
    """The shared cache-key digest behind :func:`cache_path` and
    :func:`checkpoint_dir_path` (one derivation, so the two namespaces
    cannot drift apart)."""
    return hashlib.sha256(f"{population}|{seed}|{day_step}|{tag}".encode()).hexdigest()[:16]


def cache_path(cache_dir: str, population: int, seed: str, day_step: int, tag: str = "") -> str:
    key = _dataset_key(population, seed, day_step, tag)
    return os.path.join(cache_dir, f"dataset_{population}_{day_step}_{key}.pkl.gz")


def checkpoint_dir_path(
    cache_dir: str, population: int, seed: str, day_step: int, tag: str = ""
) -> str:
    """Default checkpoint directory for a continuous collection.

    Keyed like :func:`cache_path` but under ``checkpoints/`` with a
    distinct name shape, so a half-finished checkpoint can never alias a
    cached one-shot dataset file (the *tag* additionally carries the
    continuous-mode knobs — see
    :meth:`~repro.study.StudySpec.cache_tag`)."""
    key = _dataset_key(population, seed, day_step, tag)
    return os.path.join(cache_dir, "checkpoints", f"campaign_{population}_{day_step}_{key}")
