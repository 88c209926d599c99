"""Unified Study API: declarative StudySpec/ExecutionPlan facade over the
measurement campaign machinery.

Library callers and ``repro-scan`` flags both describe a study through
three objects:

* :class:`StudySpec` — **what** is measured. The world
  :class:`~repro.simnet.config.SimConfig` plus the schedule knobs
  (``day_step``, window overrides, ``ech_sample``, feature toggles).
  These fields define dataset *identity* and are the single source of
  the canonical cache tag: two studies with equal specs share a cached
  dataset, and nothing outside the spec may influence the tag.

* :class:`ExecutionPlan` — **how** it runs. Workers,
  cache/checkpoint/release directories, and the continuous
  partitioning. Every plan knob is guaranteed not to change the
  resulting dataset (the continuous knobs do join the cache
  *key*, so a half-finished checkpoint can never alias a one-shot cache
  entry — but the finished dataset is value-equal either way).

* :class:`Study` — the compiled session. Owns the persistent
  :class:`~repro.scanner.pipeline.ParallelCampaignRunner` pool and the
  continuous-collection checkpoint lifecycle, and exposes ``run()``,
  ``resume()``, ``dataset()``, ``export(dir)``, ``release(tag)``, and
  ``close()`` (also usable as a context manager).

Where each knob lives::

    knob                                  home
    ------------------------------------  --------------------------------
    config                                StudySpec.config
    day_step                              StudySpec.day_step
    start / end                           StudySpec.start / StudySpec.end
    ech_sample                            StudySpec.ech_sample
    with_ech_hourly                       StudySpec.with_ech_hourly
    with_dnssec_snapshot                  StudySpec.with_dnssec_snapshot
    cache_dir                             ExecutionPlan.cache_dir
    workers                               ExecutionPlan.workers
    continuous                            ExecutionPlan.continuous
    checkpoint_dir                        ExecutionPlan.checkpoint_dir
    days_per_increment                    ExecutionPlan.days_per_increment
    max_increments                        ExecutionPlan.max_increments
    release_dir                           ExecutionPlan.release_dir
    progress output                       Study.run(progress=...)

Every run executes with cyclic GC paused
(:func:`~repro.gcutils.paused_gc`): the world is an immortal object
graph, and full-heap passes over it only cost time.

Nothing here reads the environment: a dataset's identity is a function
of the :class:`StudySpec` alone. Unknown field names raise
``TypeError`` at construction, so a misspelled option can never be
silently cache-keyed. Cache paths keep the pre-facade key construction
byte for byte (pinned by the golden-tag tests), so existing ``.cache``
entries keep hitting.

**Releases.** :meth:`Study.release` completes the paper's "collect and
release periodically" loop: it snapshots the study's merged dataset and
every figure CSV (:func:`~repro.reporting.export.export_figure_data`)
under ``<release_dir>/<tag>/`` and writes a ``manifest.json`` carrying
coverage QA (missing scan days + cadence gaps from
:func:`~repro.scanner.incremental.coverage_gaps`) and per-file SHA-256
digests; :func:`validate_release` re-checks a release directory against
its manifest. Exposed on the CLI as ``repro-scan --release TAG``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import warnings
from typing import Callable, Dict, List, Mapping, Optional

from .gcutils import paused_gc
from .scanner import campaign
from .scanner.collector import ContinuousCollector, has_checkpoint
from .scanner.dataset import Dataset, DatasetFileError, cache_path, checkpoint_dir_path
from .scanner.incremental import coverage_gaps
from .scanner.pipeline import ParallelCampaignRunner
from .simnet.config import SimConfig
from .simnet.faults import FaultSchedule

RELEASE_VERSION = 1

_RELEASE_MAGIC = "repro-study-release"
_MANIFEST = "manifest.json"
_RELEASE_DATASET = "dataset.pkl.gz"
_FIGURES_SUBDIR = "figures"
_DEFAULT_CACHE_DIR = ".cache"


class StudyError(RuntimeError):
    """A Study operation that cannot proceed (no dataset collected yet,
    incomplete release, invalid release directory, ...)."""


class _Unset:
    """Sentinel for schedule fields the spec leaves at the campaign
    default. Distinct from ``None`` so an *explicitly* passed ``None``
    (a legal override value) still reaches the cache tag exactly as the
    old kwarg surface recorded it."""

    def __repr__(self) -> str:  # keeps StudySpec reprs readable
        return "UNSET"


UNSET = _Unset()

# Spec fields forwarded to build_schedule()/the cache tag when set.
_SCHEDULE_FIELDS = (
    "start", "end", "ech_sample", "with_ech_hourly", "with_dnssec_snapshot",
)

# Spec fields whose identity is carried outside cache_tag() itself.
# codelint's TAG01 rule enforces that every StudySpec field is either in
# _SCHEDULE_FIELDS, read by cache_tag(), or listed here with the reason
# — so a new field can never silently alias cache entries.
_TAG_EXEMPT = {
    "day_step": "cache_path() embeds day_step in the cache filename, so "
                "two specs differing in day_step already name different "
                "cache entries",
}


@dataclasses.dataclass(frozen=True)
class StudySpec:
    """What a study measures: the world plus the scan schedule.

    Equal specs name the same dataset — every field here (and nothing
    else) feeds the canonical cache tag. ``config=None`` means the
    default ``SimConfig()``. Schedule fields left ``UNSET`` use the
    campaign defaults and stay out of the tag, matching how the old
    kwarg surface only keyed on arguments actually passed.
    """

    config: Optional[SimConfig] = None
    day_step: int = 7
    start: object = UNSET  # datetime.date
    end: object = UNSET  # datetime.date
    ech_sample: object = UNSET  # int
    with_ech_hourly: object = UNSET  # bool
    with_dnssec_snapshot: object = UNSET  # bool
    # Chaos scenario: a declarative fault schedule injected into the
    # world for the whole run (None/empty = the fault-free study). Part
    # of dataset identity — the faults shape every observation — so it
    # joins the cache tag via its canonical string form.
    scenario: Optional[FaultSchedule] = None

    def __post_init__(self):
        if self.config is None:
            object.__setattr__(self, "config", SimConfig())
        if not isinstance(self.config, SimConfig):
            raise TypeError(f"config must be a SimConfig, got {self.config!r}")
        if self.scenario is not None and not isinstance(self.scenario, FaultSchedule):
            raise TypeError(
                f"scenario must be a FaultSchedule, got {self.scenario!r}"
            )
        if not isinstance(self.day_step, int) or isinstance(self.day_step, bool):
            raise TypeError(f"day_step must be an int, got {self.day_step!r}")
        if self.day_step < 1:
            raise ValueError("day_step must be >= 1")
        # Every override must be tag-able (primitives/dates only);
        # rejecting here surfaces bad values at construction instead of
        # deep inside a cache-path computation.
        campaign.canonical_cache_tag(self.schedule_overrides())

    def schedule_overrides(self) -> Dict[str, object]:
        """The schedule fields this spec explicitly sets (identity-
        relevant kwargs beyond ``day_step``)."""
        return {
            name: getattr(self, name)
            for name in _SCHEDULE_FIELDS
            if getattr(self, name) is not UNSET
        }

    def build_schedule(self) -> "campaign.CampaignSchedule":
        """Resolve the spec into the concrete campaign scan plan."""
        return campaign.build_schedule(
            day_step=self.day_step, **self.schedule_overrides()
        )

    def cache_tag(self, extra: Optional[Mapping[str, object]] = None) -> str:
        """The canonical dataset-identity tag for this spec.

        *extra* lets the execution layer append key-separating knobs
        (the continuous partitioning) without owning a second tag
        derivation — this method remains the single source. The
        construction is byte-identical to the pre-facade cache key,
        so existing cache entries survive.
        """
        tag_kwargs = self.schedule_overrides()
        # An empty schedule is the fault-free study: it stays out of the
        # tag so the key is byte-identical to the pre-scenario construction
        # (existing cache entries keep hitting).
        if self.scenario is not None and self.scenario:
            tag_kwargs["scenario"] = self.scenario.canonical_tag()
        if extra:
            tag_kwargs.update(extra)
        return (
            campaign.canonical_cache_tag(tag_kwargs)
            + "|"
            + repr(dataclasses.astuple(self.config))
        )


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """How a study runs: knobs guaranteed not to change the dataset.

    ``workers`` shards the campaign across that many worker processes
    (one runs inline); ``continuous`` +
    ``days_per_increment``/``max_increments``/``checkpoint_dir`` run the
    campaign as resumable (day-slice × domain-shard) increments against
    an on-disk checkpoint. The finished dataset is value-equal under
    every combination; only the continuous partitioning joins the cache
    key, so checkpoints never alias one-shot cache entries. The answer
    fast path is not a plan knob: every
    :class:`~repro.simnet.world.World` is built with it armed.
    """

    workers: int = 1
    cache_dir: str = _DEFAULT_CACHE_DIR
    continuous: bool = False
    checkpoint_dir: Optional[str] = None
    days_per_increment: int = 7
    max_increments: Optional[int] = None
    release_dir: str = "releases"

    def __post_init__(self):
        # Clamp like the runner/collector always have (workers=0 ran
        # serially on the old surface; keep that contract). The
        # continuous knobs are coerced to int so a string from a command
        # line can never fork the cache/checkpoint key (str:'3' vs int:3).
        object.__setattr__(self, "workers", max(1, int(self.workers)))
        object.__setattr__(self, "days_per_increment", int(self.days_per_increment))
        if self.max_increments is not None:
            object.__setattr__(self, "max_increments", int(self.max_increments))
        if self.days_per_increment < 1:
            raise ValueError("need at least one scan day per increment")
        if self.max_increments is not None and self.max_increments < 0:
            raise ValueError("max_increments must be >= 0")
        if not self.continuous:
            stray = [
                name for name, given in (
                    ("checkpoint_dir", self.checkpoint_dir is not None),
                    ("days_per_increment", self.days_per_increment != 7),
                    ("max_increments", self.max_increments is not None),
                ) if given
            ]
            if stray:
                # Silently dropping these would lose the resumable /
                # bounded-increment contract the caller asked for.
                raise ValueError(f"{', '.join(stray)} require continuous=True")


class Study:
    """A compiled measurement-study session.

    Construction is cheap (no worlds are built, no checkpoint is
    touched); the first ``run()``/``resume()`` materialises whatever the
    plan needs. The worker pool (and, for continuous plans, the
    collector with its warm per-process idle worlds) persists
    across calls until :meth:`close` — interrupt-and-resume loops reuse
    it instead of paying spin-up per attempt.
    """

    def __init__(self, spec: StudySpec, plan: Optional[ExecutionPlan] = None):
        if not isinstance(spec, StudySpec):
            raise TypeError(f"spec must be a StudySpec, got {spec!r}")
        if plan is not None and not isinstance(plan, ExecutionPlan):
            raise TypeError(f"plan must be an ExecutionPlan, got {plan!r}")
        self.spec = spec
        self.plan = plan if plan is not None else ExecutionPlan()
        self.schedule = spec.build_schedule()
        self._dataset: Optional[Dataset] = None
        self._runner: Optional[ParallelCampaignRunner] = None
        self._collector: Optional[ContinuousCollector] = None

    # -- identity ----------------------------------------------------------

    @property
    def cache_tag(self) -> str:
        """The dataset cache key: the spec's tag, plus the continuous
        partitioning when the plan collects incrementally (a checkpoint
        must never alias a one-shot cache entry)."""
        extra = None
        if self.plan.continuous:
            extra = {
                "continuous": True,
                "days_per_increment": self.plan.days_per_increment,
            }
        return self.spec.cache_tag(extra)

    @property
    def cache_path(self) -> str:
        config = self.spec.config
        return cache_path(
            self.plan.cache_dir, config.population, config.seed,
            self.spec.day_step, tag=self.cache_tag,
        )

    @property
    def checkpoint_dir(self) -> Optional[str]:
        """The continuous-collection checkpoint directory (None for
        one-shot plans)."""
        if not self.plan.continuous:
            return None
        if self.plan.checkpoint_dir is not None:
            return self.plan.checkpoint_dir
        config = self.spec.config
        return checkpoint_dir_path(
            self.plan.cache_dir, config.population, config.seed,
            self.spec.day_step, tag=self.cache_tag,
        )

    # -- running -----------------------------------------------------------

    def run(self, progress: Optional[Callable[[str], None]] = None) -> Dataset:
        """Return the study's dataset: a cache hit when one exists,
        otherwise a (possibly checkpoint-resuming) campaign execution.

        Continuous plans honour ``plan.max_increments`` — the run raises
        :class:`~repro.scanner.collector.CollectionInterrupted` once the
        budget is spent, with the checkpoint holding everything
        completed so far (:meth:`resume` finishes the job)."""
        return self._run_to(self.plan.max_increments, progress)

    def resume(
        self,
        progress: Optional[Callable[[str], None]] = None,
        max_increments: Optional[int] = None,
    ) -> Dataset:
        """Continue an interrupted collection to completion (or pass
        *max_increments* to spend another bounded budget). Identical to
        :meth:`run` except the plan's increment budget is ignored, so a
        ``run()``/``resume()`` pair expresses "collect a bit now, finish
        later" without rebuilding the session."""
        return self._run_to(max_increments, progress)

    def dataset(self) -> Dataset:
        """The study's dataset without running anything: the in-memory
        result of an earlier ``run()``, else the cache file, else — for
        continuous plans — the checkpoint's merged (possibly partial)
        longitudinal fold. Raises :class:`StudyError` when the study has
        not collected anything yet, and
        :class:`~repro.scanner.collector.CheckpointError` when the
        checkpoint belongs to a different study (same identity check a
        run would apply — a foreign fold is never silently returned)."""
        if self._dataset is not None:
            return self._dataset
        cached = self._load_cached()
        if cached is not None:
            self._dataset = cached
            return cached
        if self.plan.continuous and has_checkpoint(self.checkpoint_dir):
            # Through the collector's store, not a bare file read: the
            # checkpoint identity is validated (CheckpointError on a
            # mismatched world/schedule/partitioning) and a corrupt
            # merged fold warns instead of silently reading as absent.
            # The has_checkpoint guard keeps this probe read-only — a
            # never-run study must not lay down an identity header that
            # a later (possibly upgraded) run() would trip over.
            partial = self._collector_session().store.load_merged()
            if partial is not None:
                self._dataset = partial
                return partial
        raise StudyError(
            "study has no dataset yet (no cache entry"
            + (", no checkpoint fold" if self.plan.continuous else "")
            + "); call run() first"
        )

    # -- outputs -----------------------------------------------------------

    def export(self, directory: str) -> List[str]:
        """Write every figure's underlying CSV/JSON under *directory*
        (see :func:`~repro.reporting.export.export_figure_data`)."""
        from .reporting.export import export_figure_data

        return export_figure_data(self.dataset(), directory)

    def release(self, tag: str, require_complete: bool = True) -> str:
        """Cut release *tag*: snapshot the dataset and figure CSVs under
        ``<plan.release_dir>/<tag>/`` with a QA manifest; returns the
        release directory.

        The manifest records coverage QA — scan days missing against the
        spec's schedule and cadence gaps
        (:func:`~repro.scanner.incremental.coverage_gaps`) — plus
        per-file SHA-256 digests for :func:`validate_release`. With
        *require_complete* (the default) an incomplete collection
        refuses to release; pass ``False`` to snapshot a partial
        checkpoint fold anyway (the manifest says so)."""
        if not tag or os.sep in tag or "/" in tag or tag in (".", ".."):
            raise ValueError(f"invalid release tag {tag!r}")
        dataset = self.dataset()
        missing = sorted(set(self.schedule.scan_days) - set(dataset.snapshots))
        if missing and require_complete:
            raise StudyError(
                f"cannot release {tag!r}: collection is missing "
                f"{len(missing)} scheduled scan day(s) "
                f"({missing[0]}..{missing[-1]}); resume() it to completion "
                "or pass require_complete=False"
            )
        directory = os.path.join(self.plan.release_dir, tag)
        manifest_path = os.path.join(directory, _MANIFEST)
        if os.path.exists(manifest_path):
            raise StudyError(f"release {tag!r} already exists under {directory}")
        os.makedirs(directory, exist_ok=True)
        dataset_path = os.path.join(directory, _RELEASE_DATASET)
        dataset.save(dataset_path)
        from .reporting.export import export_figure_data

        figure_paths = export_figure_data(
            dataset, os.path.join(directory, _FIGURES_SUBDIR)
        )
        files = {
            os.path.relpath(path, directory).replace(os.sep, "/"): _sha256(path)
            for path in [dataset_path] + list(figure_paths)
        }
        config = self.spec.config
        manifest = {
            "magic": _RELEASE_MAGIC,
            "version": RELEASE_VERSION,
            "tag": tag,
            "study": {
                "population": config.population,
                "seed": config.seed,
                "day_step": self.spec.day_step,
                "cache_tag": self.cache_tag,
            },
            "scan_days": {
                "count": len(dataset.snapshots),
                "first": min(dataset.snapshots).isoformat() if dataset.snapshots else None,
                "last": max(dataset.snapshots).isoformat() if dataset.snapshots else None,
            },
            "complete": not missing,
            "missing_days": [d.isoformat() for d in missing],
            "coverage_gaps": [
                d.isoformat()
                for d in coverage_gaps(dataset, expected_step=self.spec.day_step)
            ],
            "ech_observations": len(dataset.ech_observations),
            "dnssec_snapshot_date": (
                None
                if dataset.dnssec_snapshot_date is None
                else dataset.dnssec_snapshot_date.isoformat()
            ),
            "files": files,
        }
        tmp = f"{manifest_path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
        os.replace(tmp, manifest_path)
        return directory

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the worker pools (idempotent); the session can run
        again afterwards (pools are rebuilt lazily)."""
        if self._collector is not None:
            self._collector.close()
            self._collector = None
        if self._runner is not None:
            self._runner.close()
            self._runner = None

    def __enter__(self) -> "Study":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _run_to(self, max_increments, progress) -> Dataset:
        # A one-shot session's in-memory dataset is always complete, so
        # repeat run() calls skip re-unpickling the cache file. (A
        # continuous session's may be a partial checkpoint fold picked
        # up by dataset(), so those re-check the disk state.)
        if self._dataset is not None and not self.plan.continuous:
            return self._dataset
        cached = self._load_cached()
        if cached is not None:
            self._dataset = cached
            return cached
        with paused_gc():
            dataset = self._execute(max_increments, progress)
        self._dataset = dataset
        try:
            dataset.save(self.cache_path)
        except OSError:  # pragma: no cover - cache dir not writable
            pass
        return dataset

    def _execute(self, max_increments, progress) -> Dataset:
        if self.plan.continuous:
            return self._collector_session().collect(
                progress=progress, max_increments=max_increments
            )
        # The runner owns every one-shot path, including workers == 1
        # (inline serial execution) — one warm-up implementation, not a
        # fork of it here.
        return self._runner_session().run_schedule(self.schedule, progress=progress)

    def _runner_session(self) -> ParallelCampaignRunner:
        if self._runner is None:
            self._runner = ParallelCampaignRunner(
                self.spec.config,
                workers=self.plan.workers,
                schedule=self.schedule,
                keep_alive=True,
                scenario=self.spec.scenario,
            )
        return self._runner

    def _collector_session(self) -> ContinuousCollector:
        if self._collector is None:
            self._collector = ContinuousCollector(
                self.spec.config,
                self.checkpoint_dir,
                workers=self.plan.workers,
                day_step=self.spec.day_step,
                days_per_increment=self.plan.days_per_increment,
                keep_alive=True,
                scenario=self.spec.scenario,
                **self.spec.schedule_overrides(),
            )
        return self._collector

    def _load_cached(self) -> Optional[Dataset]:
        path = self.cache_path
        try:
            return Dataset.load(path)
        except FileNotFoundError:
            return None
        except (OSError, DatasetFileError) as exc:
            # A cache file that exists but will not load is worth a word
            # before the silent (expensive) rebuild overwrites it.
            warnings.warn(
                f"ignoring unreadable dataset cache {path}: {exc}",
                RuntimeWarning,
                stacklevel=3,
            )
            return None


# ---------------------------------------------------------------------------
# release validation
# ---------------------------------------------------------------------------


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def validate_release(directory: str) -> Dict:
    """Check a release directory against its manifest and return the
    manifest: every listed file must exist with a matching SHA-256
    digest, and the dataset snapshot must load and agree with the
    manifest's identity/coverage numbers. Raises :class:`StudyError` on
    any mismatch."""
    manifest_path = os.path.join(directory, _MANIFEST)
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise StudyError(f"unreadable release manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("magic") != _RELEASE_MAGIC:
        raise StudyError(f"{directory} is not a study release")
    if manifest.get("version") != RELEASE_VERSION:
        raise StudyError(
            f"release version {manifest.get('version')!r} != {RELEASE_VERSION} "
            f"under {directory}"
        )
    files = manifest.get("files")
    if not isinstance(files, dict) or _RELEASE_DATASET not in files:
        raise StudyError(f"release under {directory} lists no dataset snapshot")
    for rel, expected in sorted(files.items()):
        path = os.path.join(directory, rel.replace("/", os.sep))
        if not os.path.exists(path):
            raise StudyError(f"release file missing: {path}")
        actual = _sha256(path)
        if actual != expected:
            raise StudyError(
                f"release file corrupt: {path} (sha256 {actual} != manifest {expected})"
            )
    dataset = Dataset.load(os.path.join(directory, _RELEASE_DATASET))
    study_meta = manifest.get("study", {})
    if (dataset.population, dataset.seed) != (
        study_meta.get("population"), study_meta.get("seed"),
    ):
        raise StudyError(
            f"release dataset world {(dataset.population, dataset.seed)} does not "
            f"match the manifest under {directory}"
        )
    if len(dataset.snapshots) != manifest.get("scan_days", {}).get("count"):
        raise StudyError(
            f"release dataset holds {len(dataset.snapshots)} scan days but the "
            f"manifest under {directory} claims "
            f"{manifest.get('scan_days', {}).get('count')}"
        )
    return manifest
