"""Wall-clock comparison: one-shot pipeline run vs continuous collection.

Runs the same campaign three ways — a one-shot
``ParallelCampaignRunner`` run, a continuous collection (day-slice ×
domain-shard increments folded against an on-disk checkpoint in a
single ``collect()`` call), and a worst-case resume storm (one process
"killed" after *every* increment, so each increment pays a full
checkpoint reload) — verifies all three datasets are value-equal, and
records the timings in ``continuous_collect_walltime.txt`` under the
benchmark results directory (untracked ``.bench_results/`` unless
``REPRO_BENCH_RECORD=1`` — see ``_results.py``).

Not collected by pytest (no ``test_`` prefix) because it deliberately
rebuilds the campaign repeatedly without the cache; run it directly:

    PYTHONPATH=src python benchmarks/continuous_collect_walltime.py --population 2000

Exit status: 1 if any collected dataset is not equal to the one-shot
run (hard failure), 2 if the straight continuous run is slower than
--max-overhead times the one-shot run (soft failure: shared CI runners
are too noisy to gate on wall-clock).
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import tempfile
import time

from _results import results_path
from repro.scanner import (
    CollectionInterrupted,
    ContinuousCollector,
    ParallelCampaignRunner,
)
from repro.simnet import SimConfig

RESULTS_PATH = results_path("continuous_collect_walltime.txt")


def _timed(action):
    gc.collect()
    started = time.perf_counter()
    result = action()
    return time.perf_counter() - started, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--population", type=int, default=2000)
    parser.add_argument("--day-step", type=int, default=28)
    parser.add_argument("--ech-sample", type=int, default=60)
    parser.add_argument("--workers", type=int, default=2,
                        help="domain shards (and worker-pool width)")
    parser.add_argument("--increment-days", type=int, default=3,
                        help="scan days per day-slice increment")
    parser.add_argument("--max-overhead", type=float, default=1.5,
                        help="allowed continuous/one-shot wall-clock ratio")
    args = parser.parse_args()

    config = SimConfig(population=args.population)
    kwargs = dict(day_step=args.day_step, ech_sample=args.ech_sample)
    scratch = tempfile.mkdtemp(prefix="repro-cc-ckpt-")

    def one_shot():
        return ParallelCampaignRunner(config, workers=args.workers, **kwargs).run()

    def continuous():
        with ContinuousCollector(
            config, os.path.join(scratch, "straight"), workers=args.workers,
            days_per_increment=args.increment_days, **kwargs
        ) as collector:
            total = collector.total_increments
            return collector.collect(), total

    def resume_storm():
        """Interrupt after every single increment and resume from the
        checkpoint with a fresh collector — the worst case a long-lived
        collection can hit (every increment pays a checkpoint reload)."""
        checkpoint = os.path.join(scratch, "storm")
        sessions = 0
        while True:
            sessions += 1
            with ContinuousCollector(
                config, checkpoint, workers=args.workers,
                days_per_increment=args.increment_days, **kwargs
            ) as collector:
                try:
                    return collector.collect(max_increments=1), sessions
                except CollectionInterrupted:
                    continue

    try:
        oneshot_s, baseline = _timed(one_shot)
        continuous_s, (collected, increments) = _timed(continuous)
        storm_s, (resumed, sessions) = _timed(resume_storm)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    equal = collected == baseline and resumed == baseline
    overhead = continuous_s / oneshot_s if oneshot_s else float("inf")
    storm_overhead = storm_s / oneshot_s if oneshot_s else float("inf")
    stats = collected.run_stats

    lines = [
        "Continuous collection: wall-clock vs the one-shot pipeline run",
        f"  population {config.population}, day_step {args.day_step}, "
        f"ech_sample {args.ech_sample}, workers {args.workers} "
        "(process pool)",
        f"  host CPU cores available: {os.cpu_count()}",
        "",
        f"  one-shot ParallelCampaignRunner:        {oneshot_s:8.1f} s",
        f"  continuous ({increments} increments, one session): "
        f"{continuous_s:8.1f} s  ({overhead:.2f}x)",
        f"  resume storm ({sessions} sessions, killed per increment): "
        f"{storm_s:8.1f} s  ({storm_overhead:.2f}x)",
        f"  datasets equal (continuous, resumed vs one-shot): {equal}",
        f"  accumulated run stats: {stats.summary() if stats else 'n/a'}",
        "",
        "  Continuous mode pays per-increment checkpointing (part + fold",
        "  writes) and per-slice NS/ECH stage scheduling on top of the",
        "  one-shot pipeline; the warm worker pool and each process's idle",
        "  world amortise warm-up across increments, so the straight",
        "  run should stay within the overhead bound. The resume storm",
        "  additionally reloads the checkpoint every increment — its",
        "  number is the ceiling on what interruptions can cost.",
    ]
    text = "\n".join(lines)
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    with open(RESULTS_PATH, "w") as handle:
        handle.write(text + "\n")
    print(text)
    if not equal:
        return 1
    return 0 if overhead <= args.max_overhead else 2


if __name__ == "__main__":
    raise SystemExit(main())
