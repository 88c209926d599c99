"""Tests for the unified Study API (:mod:`repro.study`).

The load-bearing guarantees: the canonical cache tag is pinned (the
facade cannot orphan pre-existing ``.cache`` entries — golden-tag test),
a second ``Study`` over the same spec reuses the first one's cache entry
or checkpoint, typo'd knobs raise ``TypeError`` instead of being
silently cache-keyed, corrupt caches warn before rebuilding, and the
continuous lifecycle (run → interrupt → ``resume()`` → ``release()``)
produces a validated release of a dataset value-equal to the one-shot
campaign.
"""

import datetime
import gzip
import os
import pickle
import warnings

import pytest

from repro.scanner import (
    CheckpointError,
    CollectionInterrupted,
    canonical_cache_tag,
    run_campaign,
)
from repro.simnet import SimConfig, World
from repro.study import (
    UNSET,
    ExecutionPlan,
    Study,
    StudyError,
    StudySpec,
    validate_release,
)

import dataclasses

CONFIG = SimConfig(population=120)
# Small but complete: at day_step 60 the default study window still
# exercises the hourly ECH week, the DNSSEC snapshot, NS-IP scans, and
# connectivity probes.
FULL_SPEC = StudySpec(CONFIG, day_step=60, ech_sample=3)

TINY_CONFIG = SimConfig(population=60)
TINY = dict(
    day_step=60,
    start=datetime.date(2023, 5, 8),
    end=datetime.date(2023, 9, 30),
    with_ech_hourly=False,
    with_dnssec_snapshot=False,
)


@pytest.fixture(scope="module")
def one_shot_full():
    return run_campaign(World(CONFIG), day_step=60, ech_sample=3)


# ---------------------------------------------------------------------------
# cache-tag identity
# ---------------------------------------------------------------------------

# The exact tag + cache filename the pre-facade campaign function
# produced for (SimConfig(population=60), day_step=14) with no schedule
# overrides. If either assertion below ever fails, existing .cache
# entries (and continuous checkpoints) have been orphaned — that is a
# breaking change, not a refactor.
GOLDEN_TAG = (
    "|(60, 'imc2024-dnshttps', 2, 0.58, 0.1, 0.35, 0.95, 0.245, 0.33, 500, "
    "0.0006, 0.95, 0.015, 0.0013, 20.0, 0.004, 0.28, 0.2, 0.88, 0.1, 0.0116, "
    "0.0069, 0.006, 0.0008, 0.02, 0.002, 0.9, 0.073, 0.061, 0.505, 0.859, "
    "0.762, 240, 1.26, 0.33, 300, 60, False)"
)
GOLDEN_CACHE_NAME = "dataset_60_14_eb7b56fe114f4fda.pkl.gz"


class TestCacheTagGolden:
    def test_default_spec_tag_is_pinned(self):
        assert StudySpec(TINY_CONFIG, day_step=14).cache_tag() == GOLDEN_TAG

    def test_cache_filename_is_pinned(self, tmp_path):
        study = Study(
            StudySpec(TINY_CONFIG, day_step=14), ExecutionPlan(cache_dir=str(tmp_path))
        )
        assert os.path.basename(study.cache_path) == GOLDEN_CACHE_NAME

    def test_tag_matches_pre_facade_formula(self):
        spec = StudySpec(TINY_CONFIG, **TINY)
        overrides = {k: v for k, v in TINY.items() if k != "day_step"}
        expected = (
            canonical_cache_tag(overrides)
            + "|"
            + repr(dataclasses.astuple(TINY_CONFIG))
        )
        assert spec.cache_tag() == expected

    def test_continuous_tag_matches_pre_facade_formula(self, tmp_path):
        spec = StudySpec(TINY_CONFIG, **TINY)
        study = Study(
            spec,
            ExecutionPlan(
                cache_dir=str(tmp_path), continuous=True, days_per_increment=3
            ),
        )
        overrides = {k: v for k, v in TINY.items() if k != "day_step"}
        overrides.update(continuous=True, days_per_increment=3)
        expected = (
            canonical_cache_tag(overrides)
            + "|"
            + repr(dataclasses.astuple(TINY_CONFIG))
        )
        assert study.cache_tag == expected

    def test_unset_fields_stay_out_of_the_tag(self):
        """Only explicitly set schedule fields join the tag — exactly
        how the old surface keyed on the kwargs actually passed."""
        spec = StudySpec(TINY_CONFIG)
        assert spec.start is UNSET
        assert spec.cache_tag().startswith("|(")  # empty canonical part
        explicit = StudySpec(TINY_CONFIG, ech_sample=200)  # the default value
        assert explicit.cache_tag() != spec.cache_tag()

    def test_plan_knobs_do_not_touch_one_shot_tags(self, tmp_path):
        spec = StudySpec(TINY_CONFIG, **TINY)
        plain = Study(spec, ExecutionPlan(cache_dir=str(tmp_path)))
        tuned = Study(
            spec,
            ExecutionPlan(cache_dir=str(tmp_path), workers=4),
        )
        assert plain.cache_path == tuned.cache_path

    def test_environment_cannot_move_identity(self, monkeypatch):
        """A spec without a config means SimConfig(), whatever variables
        the process happens to carry."""
        monkeypatch.setenv("REPRO_POPULATION", "77")
        monkeypatch.setenv("REPRO_SEED", "other")
        monkeypatch.setenv("POPULATION", "5")
        spec = StudySpec()
        assert spec.config == SimConfig()
        assert spec.cache_tag() == StudySpec(SimConfig()).cache_tag()


# ---------------------------------------------------------------------------
# field validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_spec_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            StudySpec(TINY_CONFIG, dya_step=7)

    def test_plan_rejects_unknown_fields(self):
        # A typo, then the retired knobs: a plan naming one fails loudly.
        for field in (
            {"wrokers": 2},
            {"snapshot_dir": "worlds"},
            {"executor": "thread"},
            {"gc_policy": "pause"},
            {"answer_cache": False},
        ):
            with pytest.raises(TypeError):
                ExecutionPlan(**field)

    def test_spec_rejects_bad_values(self):
        with pytest.raises(ValueError):
            StudySpec(TINY_CONFIG, day_step=0)
        with pytest.raises(TypeError):
            StudySpec(TINY_CONFIG, day_step="7")
        with pytest.raises(TypeError):
            StudySpec(config="not a SimConfig")
        with pytest.raises(TypeError):  # non-primitive overrides can't tag
            StudySpec(TINY_CONFIG, start=[2023, 5, 8])

    def test_plan_clamps_degenerate_workers(self):
        """workers=0 ran serially on the old surface (the runner and
        collector clamp with max(1, ...)); the plan keeps that contract
        instead of rejecting `--workers 0`."""
        assert ExecutionPlan(workers=0).workers == 1
        assert ExecutionPlan(workers=-3).workers == 1

    def test_plan_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExecutionPlan(continuous=True, days_per_increment=0)
        with pytest.raises(ValueError):
            ExecutionPlan(continuous=True, max_increments=-1)

    def test_plan_coerces_continuous_knobs_to_int(self):
        """Strings from a command line or a config file must not fork
        the cache/checkpoint key (str:'3' vs int:3 would tag
        differently)."""
        plan = ExecutionPlan(continuous=True, days_per_increment="3", max_increments="2")
        assert plan.days_per_increment == 3
        assert plan.max_increments == 2

    def test_plan_rejects_continuous_knobs_without_continuous(self):
        """Silently dropping these would lose the resumable contract."""
        with pytest.raises(ValueError, match="require continuous=True"):
            ExecutionPlan(checkpoint_dir="ckpt")
        with pytest.raises(ValueError, match="require continuous=True"):
            ExecutionPlan(days_per_increment=3)
        with pytest.raises(ValueError, match="require continuous=True"):
            ExecutionPlan(max_increments=2)

    def test_study_rejects_bare_configs(self):
        with pytest.raises(TypeError):
            Study(TINY_CONFIG)


# ---------------------------------------------------------------------------
# cache reuse across sessions
# ---------------------------------------------------------------------------


class TestCacheReuse:
    def test_one_shot_dataset_and_cache_path(self, tmp_path):
        spec = StudySpec(TINY_CONFIG, **TINY)
        with Study(spec, ExecutionPlan(cache_dir=str(tmp_path))) as study:
            first = study.run()
        [cache_file] = list(tmp_path.iterdir())
        assert first == run_campaign(World(TINY_CONFIG), **TINY)
        with Study(spec, ExecutionPlan(cache_dir=str(tmp_path))) as study:
            assert study.cache_path == str(cache_file)
            dataset = study.run()
        assert dataset == first
        assert dataset.loaded_from_cache, "study must reuse the first run's cache entry"
        assert list(tmp_path.iterdir()) == [cache_file]

    def test_continuous_key_and_checkpoint_path(self, tmp_path):
        spec = StudySpec(TINY_CONFIG, **TINY)
        plan = ExecutionPlan(
            cache_dir=str(tmp_path), continuous=True, days_per_increment=1
        )
        with Study(spec, plan) as study:
            first = study.run()
        with Study(spec, plan) as study:
            # Byte-identical continuous keys: the study points at the
            # exact checkpoint directory the first run laid down ...
            assert os.path.isdir(study.checkpoint_dir)
            # ... and at a cache entry separate from the one-shot key.
            one_shot_path = Study(
                spec, ExecutionPlan(cache_dir=str(tmp_path))
            ).cache_path
            assert study.cache_path != one_shot_path
            dataset = study.run()
        assert dataset == first
        assert dataset.loaded_from_cache


# ---------------------------------------------------------------------------
# cache robustness
# ---------------------------------------------------------------------------


class TestCacheRobustness:
    def _study(self, tmp_path):
        return Study(
            StudySpec(TINY_CONFIG, **TINY), ExecutionPlan(cache_dir=str(tmp_path))
        )

    def test_corrupt_cache_warns_and_rebuilds(self, tmp_path):
        study = self._study(tmp_path)
        with open(study.cache_path, "wb") as handle:
            handle.write(b"definitely not a gzipped dataset")
        with pytest.warns(RuntimeWarning, match="unreadable dataset cache"):
            dataset = study.run()
        assert not dataset.loaded_from_cache
        assert self._study(tmp_path).run().loaded_from_cache  # rebuild healed it

    def test_bit_flipped_cache_warns_and_rebuilds(self, tmp_path):
        first = self._study(tmp_path).run()
        study = self._study(tmp_path)
        with open(study.cache_path, "r+b") as handle:
            blob = bytearray(handle.read())
            blob[len(blob) // 2] ^= 0x01
            handle.seek(0)
            handle.write(blob)
        with pytest.warns(RuntimeWarning, match="unreadable dataset cache"):
            rebuilt = study.run()
        assert not rebuilt.loaded_from_cache
        assert rebuilt == first
        assert self._study(tmp_path).run().loaded_from_cache  # rebuild healed it

    def test_wrong_payload_type_warns(self, tmp_path):
        study = self._study(tmp_path)
        with gzip.open(study.cache_path, "wb") as handle:
            pickle.dump({"not": "a dataset"}, handle)
        with pytest.warns(RuntimeWarning, match="unreadable dataset cache"):
            study.run()

    def test_missing_cache_is_silent(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            self._study(tmp_path).run()


# ---------------------------------------------------------------------------
# session lifecycle: run → interrupt → resume → release
# ---------------------------------------------------------------------------


class TestLifecycle:
    @pytest.fixture()
    def study(self, tmp_path):
        plan = ExecutionPlan(
            continuous=True,
            workers=2,
            days_per_increment=5,
            max_increments=2,
            cache_dir=str(tmp_path / "cache"),
            release_dir=str(tmp_path / "releases"),
        )
        with Study(FULL_SPEC, plan) as session:
            yield session

    def test_run_interrupt_resume_release(self, study, one_shot_full):
        with pytest.raises(CollectionInterrupted):
            study.run()  # plan.max_increments caps the first session
        # The partial fold is visible, but not releasable by default.
        partial = study.dataset()
        assert set(partial.snapshots) < set(one_shot_full.snapshots)
        with pytest.raises(StudyError, match="missing"):
            study.release("v1")
        # resume() reuses the session's warm collector/pool ...
        collector = study._collector
        resumed = study.resume()
        assert study._collector is collector
        # ... and lands on the one-shot dataset.
        assert resumed == one_shot_full
        assert study.dataset() is resumed

        directory = study.release("v1")
        manifest = validate_release(directory)
        assert manifest["tag"] == "v1"
        assert manifest["complete"] is True
        assert manifest["missing_days"] == []
        assert manifest["coverage_gaps"] == []
        assert manifest["study"]["population"] == CONFIG.population
        assert manifest["study"]["cache_tag"] == study.cache_tag
        assert manifest["ech_observations"] == len(resumed.ech_observations)
        with pytest.raises(StudyError, match="already exists"):
            study.release("v1")

    def test_dataset_refuses_a_foreign_checkpoint(self, tmp_path):
        """dataset() goes through the checkpoint identity check — a
        mismatched study must get CheckpointError, never a silent read
        of another world's fold."""
        checkpoint = str(tmp_path / "ckpt")
        plan = ExecutionPlan(
            continuous=True, checkpoint_dir=checkpoint,
            days_per_increment=1, max_increments=1,
            cache_dir=str(tmp_path / "cache-a"),
        )
        with Study(StudySpec(TINY_CONFIG, **TINY), plan) as owner:
            with pytest.raises(CollectionInterrupted):
                owner.run()
        foreign = Study(
            StudySpec(SimConfig(population=70), **TINY),
            dataclasses.replace(plan, cache_dir=str(tmp_path / "cache-b")),
        )
        with pytest.raises(CheckpointError):
            foreign.dataset()

    def test_dataset_probe_leaves_no_checkpoint_state(self, tmp_path):
        """A read-only dataset() probe on a never-run continuous study
        must not initialise the checkpoint (a header written today would
        hard-block a run() after the next code change)."""
        plan = ExecutionPlan(
            continuous=True, checkpoint_dir=str(tmp_path / "ckpt"),
            cache_dir=str(tmp_path / "cache"),
        )
        study = Study(StudySpec(TINY_CONFIG, **TINY), plan)
        with pytest.raises(StudyError, match="no dataset yet"):
            study.dataset()
        assert not os.path.exists(tmp_path / "ckpt" / "meta.json")

    def test_dataset_before_any_collection_raises(self, tmp_path):
        study = Study(
            StudySpec(TINY_CONFIG, **TINY), ExecutionPlan(cache_dir=str(tmp_path))
        )
        with pytest.raises(StudyError, match="no dataset yet"):
            study.dataset()

    def test_release_requires_a_sane_tag(self, tmp_path):
        study = Study(
            StudySpec(TINY_CONFIG, **TINY), ExecutionPlan(cache_dir=str(tmp_path))
        )
        for bad in ("", "a/b", "..", "."):
            with pytest.raises(ValueError):
                study.release(bad)


class TestExportAndRelease:
    """Export/release mechanics against the rich session dataset (the
    same full-featured campaign the reporting tests exercise)."""

    @pytest.fixture()
    def study(self, sim_config, dataset, tmp_path):
        # The spec that produced the shared conftest dataset; priming
        # its cache entry makes the dataset this study's own.
        spec = StudySpec(sim_config, day_step=21, ech_sample=40)
        session = Study(
            spec,
            ExecutionPlan(
                cache_dir=str(tmp_path / "cache"),
                release_dir=str(tmp_path / "releases"),
            ),
        )
        dataset.save(session.cache_path)
        return session

    def test_export_writes_figure_files(self, study, tmp_path):
        written = study.export(str(tmp_path / "figures"))
        names = {os.path.basename(path) for path in written}
        assert {"fig2_adoption.csv", "fig11_hints.csv", "fig13_ech_share.csv",
                "fig5_signed.csv", "fig4_rotation.json"} <= names

    def test_release_is_complete_and_validates(self, study, dataset):
        directory = study.release("v2024.03")
        manifest = validate_release(directory)
        assert manifest["complete"] is True
        assert manifest["scan_days"]["count"] == len(dataset.days())
        assert manifest["dnssec_snapshot_date"] is not None
        assert "figures/fig2_adoption.csv" in manifest["files"]

    def test_tampered_release_fails_validation(self, study):
        directory = study.release("v-tamper")
        target = os.path.join(directory, "figures", "fig2_adoption.csv")
        with open(target, "a") as handle:
            handle.write("tampered\n")
        with pytest.raises(StudyError, match="corrupt"):
            validate_release(directory)

    def test_missing_release_file_fails_validation(self, study):
        directory = study.release("v-missing")
        os.unlink(os.path.join(directory, "dataset.pkl.gz"))
        with pytest.raises(StudyError, match="missing"):
            validate_release(directory)

    def test_foreign_directory_fails_validation(self, tmp_path):
        with pytest.raises(StudyError, match="unreadable release manifest"):
            validate_release(str(tmp_path))
