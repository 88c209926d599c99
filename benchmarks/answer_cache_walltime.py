"""Wall-clock comparison: the layered answer fast path on vs off.

Runs the same wire-mode campaign twice — once synthesizing and
encoding every upstream reply from scratch (a world disarmed with
``World.set_answer_cache(False)``) and once as built, with all three
fast-path tiers armed (rendered-answer memo, zone-body reuse, wire-byte
templates) — verifies the datasets are
value-equal AND the per-server query logs are byte-identical (the cache
must sit behind query accounting), and records both timings plus the
fast-path counters in ``answer_cache_walltime.txt`` under the benchmark
results directory (untracked ``.bench_results/`` unless
``REPRO_BENCH_RECORD=1`` — see ``_results.py``).

Not collected by pytest (no ``test_`` prefix) because it deliberately
rebuilds the campaign repeatedly without the study cache; run directly:

    PYTHONPATH=src python benchmarks/answer_cache_walltime.py --population 6000

Exit codes: 0 ok, 1 equivalence failure, 2 speedup below the floor.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import os
import time

from _results import results_path
from repro.scanner import run_campaign
from repro.simnet import SimConfig, World

RESULTS_PATH = results_path("answer_cache_walltime.txt")


def make_world(config: SimConfig, armed: bool) -> World:
    """A world as built (fast path armed) or disarmed for the reference."""
    world = World(config)
    if not armed:
        world.set_answer_cache(False)
    return world


def logged_world(config: SimConfig, armed: bool) -> World:
    world = make_world(config, armed)
    for server in world.network._dns_servers.values():
        if hasattr(server, "query_log"):
            server.log_queries = True
    return world


def drain_log_digests(world: World) -> dict:
    """ip → sha256 of that server's query log; logs freed after hashing
    so the equivalence phase at population 6000 stays in memory."""
    digests = {}
    for ip, server in sorted(world.network._dns_servers.items()):
        log = getattr(server, "query_log", None)
        if log is None:
            continue
        digest = hashlib.sha256()
        for name, rdtype in log:
            digest.update(name.encode())
            digest.update(rdtype.to_bytes(2, "big"))
        digests[ip] = (len(log), digest.hexdigest())
        log.clear()
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--population", type=int, default=6000)
    parser.add_argument("--day-step", type=int, default=7)
    parser.add_argument("--ech-sample", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed runs per mode (modes interleave round by "
                             "round so host drift hits both); best run recorded")
    parser.add_argument("--floor", type=float, default=1.25,
                        help="minimum acceptable speedup (exit 2 below it)")
    args = parser.parse_args()

    config = SimConfig(population=args.population, wire_mode=True)
    kwargs = dict(day_step=args.day_step, ech_sample=args.ech_sample)

    # Equivalence check first (untimed): value-equal datasets AND
    # identical per-server query logs — the fast path must be invisible
    # to everything except the clock.
    world = logged_world(config, armed=False)
    baseline = run_campaign(world, **kwargs)
    baseline_logs = drain_log_digests(world)
    del world
    world = logged_world(config, armed=True)
    cached = run_campaign(world, **kwargs)
    cached_logs = drain_log_digests(world)
    del world
    equal = cached == baseline
    logs_equal = cached_logs == baseline_logs
    stats = cached.run_stats
    upstream_queries = baseline.run_stats.dns_queries
    del baseline, cached  # keep the timed phase's memory profile flat

    def timed_once(armed: bool) -> float:
        gc.collect()
        started = time.perf_counter()
        run_campaign(make_world(config, armed), **kwargs)
        return time.perf_counter() - started

    off_s = on_s = None
    for _ in range(max(1, args.repeats)):
        elapsed = timed_once(armed=False)
        off_s = elapsed if off_s is None else min(off_s, elapsed)
        elapsed = timed_once(armed=True)
        on_s = elapsed if on_s is None else min(on_s, elapsed)
    speedup = off_s / on_s if on_s else float("inf")
    lookups = stats.answer_hits + stats.answer_misses
    hit_rate = stats.answer_hits / lookups if lookups else 0.0
    lines = [
        "Layered answer fast path: wall-clock comparison (wire mode)",
        f"  population {config.population}, day_step {args.day_step}, "
        f"ech_sample {args.ech_sample}, best of {max(1, args.repeats)}",
        f"  host CPU cores available: {os.cpu_count()}",
        "",
        f"  fast path off (disarmed world):     {off_s:8.1f} s "
        f"({upstream_queries} upstream queries)",
        f"  fast path on  (world as built):     {on_s:8.1f} s "
        f"({stats.dns_queries} upstream queries)",
        f"  speedup: {speedup:.2f}x (floor {args.floor:.2f}x)",
        f"  datasets value-equal: {equal}",
        f"  per-server query logs identical: {logs_equal} "
        f"({len(cached_logs)} servers compared by sha256)",
        "",
        f"  rendered-answer hits:   {stats.answer_hits}/{lookups} "
        f"({hit_rate:.1%} of lookups)",
        f"  cache evictions:        {stats.answer_evictions}",
        f"  wire-byte hits:         {stats.wire_byte_hits}",
        f"  zone bodies reused:     {stats.zone_body_reuses}/"
        f"{stats.zone_builds + stats.zone_body_reuses} builds avoided",
        "",
        "  Tier 1 (rendered answers) keys entries on zone identity",
        "  (uid, version) with per-entry SOA-serial and referral guards,",
        "  so answers survive day and ECH-generation changes instead of",
        "  being flushed each epoch; serial-only staleness is repaired",
        "  in place by patching the 4 serial bytes. Tier 2 (zone bodies)",
        "  skips rebuilding zones whose content fingerprint is unchanged",
        "  since the previous day. Tier 3 rides on the tier-1 entry: it",
        "  pins the encoded bytes and decoded client-side message, so a",
        "  repeated wire-mode answer skips the whole encode/decode pair",
        "  (queries get the same treatment via a parsed-query memo). The",
        "  equivalence guarantees above (value-equal datasets, identical",
        "  query logs) are what lets every world be built with it armed.",
    ]
    text = "\n".join(lines)
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    with open(RESULTS_PATH, "w") as handle:
        handle.write(text + "\n")
    print(text)
    if not equal or not logs_equal:
        return 1
    return 0 if speedup >= args.floor else 2


if __name__ == "__main__":
    raise SystemExit(main())
