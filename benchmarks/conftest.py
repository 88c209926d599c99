"""Benchmark fixtures.

The campaign dataset is built once (then disk-cached under ``.cache/``)
at 1/167 of Tranco scale by default; every benchmark times its *analysis*
against that dataset and emits a paper-vs-measured comparison under the
results directory (untracked ``.bench_results/`` by default; set
``REPRO_BENCH_RECORD=1`` to deliberately refresh the committed
``bench_results/`` files — see :mod:`_results`).

The dataset comes from a :class:`repro.study.Study`: the identity knobs
``REPRO_POPULATION`` (default 6000) and ``REPRO_DAY_STEP`` (default 7)
form the :class:`~repro.study.StudySpec`, and the plan is the default
serial one, ``ExecutionPlan(cache_dir=CACHE_DIR)``. The library itself
reads no environment variable.
"""

from __future__ import annotations

import os

import pytest

from _results import results_dir
from repro.simnet import SimConfig, World
from repro.study import ExecutionPlan, Study, StudySpec

BENCH_POPULATION = int(os.environ.get("REPRO_POPULATION", "6000"))
BENCH_DAY_STEP = int(os.environ.get("REPRO_DAY_STEP", "7"))
CACHE_DIR = os.path.join(os.path.dirname(__file__), "..", ".cache")
RESULTS_DIR = results_dir()


@pytest.fixture(scope="session")
def bench_config() -> SimConfig:
    return SimConfig(population=BENCH_POPULATION)


@pytest.fixture(scope="session")
def bench_dataset(bench_config):
    spec = StudySpec(bench_config, day_step=BENCH_DAY_STEP)
    with Study(spec, ExecutionPlan(cache_dir=CACHE_DIR)) as study:
        return study.run()


@pytest.fixture(scope="session")
def bench_world(bench_config):
    """A fresh world for benchmarks that query live (browser testbed uses
    its own isolated environment instead)."""
    return World(bench_config)


@pytest.fixture()
def report(request):
    """Write a rendered comparison to bench_results/<test>.txt and echo it."""

    def _write(text: str) -> None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        name = request.node.name.replace("/", "_")
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        print("\n" + text)

    return _write


def scale_note(config: SimConfig) -> str:
    return (
        f"simulated population {config.population} (Tranco 1M scaled "
        f"1/{round(1_000_000 / config.population)}); absolute counts scale accordingly"
    )
