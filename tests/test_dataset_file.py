"""Tests for the dataset file format (:meth:`Dataset.save`/:meth:`Dataset.load`).

The load-bearing guarantee: a damaged dataset file either raises
:class:`DatasetFileError` or loads as a dataset equal to the one saved —
never as some other dataset. Plus: saves are atomic and deterministic,
a loaded file saves back to the same bytes, and files written by older
writers (streamed, or with slot-state records) still load.
"""

import dataclasses
import datetime
import gzip
import os
import pickle
import random
import threading

import pytest

from repro.scanner import Dataset, DatasetFileError, run_campaign
from repro.scanner import dataset as dataset_module
from repro.scanner.campaign import RunStats
from repro.simnet import SimConfig, World

FIXTURES = os.path.join(os.path.dirname(__file__), "dataset_fixtures")

TINY = dict(
    day_step=60,
    start=datetime.date(2023, 5, 8),
    end=datetime.date(2023, 9, 30),
    with_ech_hourly=False,
    with_dnssec_snapshot=False,
)


@pytest.fixture(scope="module")
def dataset():
    return run_campaign(World(SimConfig(population=120)), **TINY)


@pytest.fixture()
def saved(dataset, tmp_path):
    path = str(tmp_path / "ds.pkl.gz")
    dataset.save(path)
    return path


def _damaged_copies(blob, seed=16, flips=400, cuts=40):
    """(label, bytes) pairs: seeded single-bit flips anywhere in *blob*,
    seeded truncations, and two appended tails."""
    rng = random.Random(seed)
    for _ in range(flips):
        pos, bit = rng.randrange(len(blob)), rng.randrange(8)
        damaged = bytearray(blob)
        damaged[pos] ^= 1 << bit
        yield f"flip byte {pos} bit {bit}", bytes(damaged)
    for _ in range(cuts):
        cut = rng.randrange(len(blob))
        yield f"truncate to {cut} bytes", blob[:cut]
    yield "trailing NUL padding", blob + b"\0" * 8
    yield "trailing garbage", blob + b"garbage"


class TestRoundTrip:
    def test_equal_datasets_give_equal_files(self, dataset, saved, tmp_path):
        again = str(tmp_path / "again.pkl.gz")
        dataset.save(again)
        with open(saved, "rb") as first, open(again, "rb") as second:
            blob = first.read()
            assert blob == second.read()
        assert blob[4:8] == b"\0\0\0\0"  # gzip header mtime

    def test_streamed_file_from_older_writer_loads(self, dataset, tmp_path):
        path = str(tmp_path / "old.pkl.gz")
        with gzip.open(path, "wb") as handle:
            pickle.dump(dataset, handle, protocol=4)
        assert Dataset.load(path) == dataset

    def test_resave_of_a_loaded_file_is_byte_identical(self, saved, tmp_path):
        again = str(tmp_path / "again.pkl.gz")
        loaded = Dataset.load(saved)
        assert loaded.loaded_from_cache
        loaded.save(again)
        with open(saved, "rb") as first, open(again, "rb") as second:
            assert first.read() == second.read()
        assert not pickle.loads(pickle.dumps(loaded)).loaded_from_cache


class TestOlderFormat:
    def test_slot_state_file_loads_equal_to_a_fresh_run(self):
        """``slot_state_p60.pkl.gz`` was written by the writer whose
        records pickled as slot-name -> value dicts (commit 3b6fb04)::

            mkdir old && git archive 3b6fb04 | tar -x -C old
            cd old && PYTHONPATH=src python -c "
            from repro.scanner import run_campaign
            from repro.simnet import SimConfig, World
            run_campaign(World(SimConfig(population=60)), day_step=45,
                         ech_sample=3).save('slot_state_p60.pkl.gz')"

        It holds every record class, run statistics and the flag that
        newer files no longer carry.

        The run statistics load exactly as recorded. Its writer armed the
        rendered-answer store in object mode too, so it counted
        ``answer_hits``/``answer_misses`` that a fresh object-mode run,
        which arms zone-body reuse only, reports as 0; every other
        counter still matches the fresh run."""
        loaded = Dataset.load(os.path.join(FIXTURES, "slot_state_p60.pkl.gz"))
        fresh = run_campaign(World(SimConfig(population=60)), day_step=45, ech_sample=3)
        assert loaded == fresh
        assert loaded.run_stats == RunStats(
            dns_queries=7820, tcp_connects=0, timeouts=0, retries=0,
            unreachables=0, answer_hits=6093, answer_misses=1727,
            answer_evictions=0, wire_byte_hits=0, zone_builds=508,
            zone_body_reuses=685,
        )
        tier_1 = {"answer_hits", "answer_misses"}
        for field in dataclasses.fields(RunStats):
            if field.name not in tier_1:
                assert getattr(loaded.run_stats, field.name) == getattr(
                    fresh.run_stats, field.name
                ), field.name
        assert loaded.loaded_from_cache
        snapshots = loaded.snapshots.values()
        assert loaded.ech_observations and loaded.dnssec_snapshot
        assert any(s.connectivity for s in snapshots)
        assert any(s.ns_observations for s in snapshots)
        assert any(s.watchlist_ns for s in snapshots)


class TestDamagedFiles:
    def test_damage_never_loads_a_different_dataset(self, dataset, saved, tmp_path):
        with open(saved, "rb") as handle:
            blob = handle.read()
        path = str(tmp_path / "damaged.pkl.gz")
        silent, raised, equal = [], 0, 0
        for label, damaged in _damaged_copies(blob):
            with open(path, "wb") as handle:
                handle.write(damaged)
            try:
                loaded = Dataset.load(path)
            except DatasetFileError:
                raised += 1
                continue
            if loaded == dataset:
                equal += 1
            else:
                silent.append(label)
        assert silent == []
        # Only header fields the decoder ignores (mtime, OS, ...) and
        # NUL padding may survive damage.
        assert raised > 0.9 * (raised + equal)

    def test_missing_file_is_not_a_file_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Dataset.load(str(tmp_path / "absent.pkl.gz"))

    def test_foreign_pickle_is_a_file_error(self, tmp_path):
        path = str(tmp_path / "foreign.pkl.gz")
        with open(path, "wb") as handle:
            handle.write(gzip.compress(pickle.dumps({"not": "a dataset"})))
        with pytest.raises(DatasetFileError, match="does not contain a Dataset"):
            Dataset.load(path)


class TestAtomicSave:
    def test_failed_encode_keeps_previous_file(self, saved, tmp_path):
        with open(saved, "rb") as handle:
            before = handle.read()
        broken = Dataset(120, "x", 60)
        broken.run_stats = threading.Lock()  # unpicklable
        with pytest.raises(TypeError):
            broken.save(saved)
        with open(saved, "rb") as handle:
            assert handle.read() == before
        assert os.listdir(tmp_path) == ["ds.pkl.gz"]

    def test_failed_replace_leaves_no_temp_file(self, saved, tmp_path, monkeypatch):
        with open(saved, "rb") as handle:
            before = handle.read()

        def no_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(dataset_module.os, "replace", no_replace)
        with pytest.raises(OSError, match="disk full"):
            Dataset(120, "other", 60).save(saved)
        monkeypatch.undo()
        with open(saved, "rb") as handle:
            assert handle.read() == before
        assert os.listdir(tmp_path) == ["ds.pkl.gz"]
