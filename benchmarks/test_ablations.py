"""Ablation benches for the design choices DESIGN.md calls out:

* resolver caching — how much of the scan load the TTL cache absorbs;
* DNSSEC-validation memoization — chain-walk cost with a cold validator;
* wire mode — the cost of routing every message through the full codec.
"""

import datetime
import gc
import time

from repro.dnscore import rdtypes
from repro.dnssec.validation import ChainValidator
from repro.gcutils import paused_gc
from repro.reporting import render_table
from repro.resolver.recursive import RecursiveResolver
from repro.simnet import SimConfig, World, timeline

_DATE = datetime.date(2023, 9, 15)


def _fresh_world(wire_mode: bool = False, population: int = 600) -> World:
    world = World(SimConfig(population=population, wire_mode=wire_mode))
    world.set_time(_DATE)
    return world


def _timed(batch, *args) -> float:
    """Wall time of ``batch(*args)``, collected first and timed with the
    cyclic GC paused: a full collection over the suite's heap costs more
    than a whole batch, and where it lands depends on allocations made
    before the test, not on what the batch does."""
    gc.collect()
    with paused_gc():
        start = time.perf_counter()
        batch(*args)
        return time.perf_counter() - start


def _scan_batch(world: World, use_cache: bool = True, batch: int = 60) -> int:
    profiles = [p for p in world.listed_profiles() if p.adopter][:batch]
    for resolver in (world.google_resolver, world.cloudflare_resolver):
        resolver.cache_enabled = use_cache
        resolver.flush_cache()
    queries_before = world.network.dns_query_count
    for profile in profiles:
        world.stub.query_https(profile.apex)
        world.stub.query_https(profile.www)
        world.stub.query_a(profile.apex)
    return world.network.dns_query_count - queries_before


def test_ablation_resolver_cache(benchmark, report):
    world = _fresh_world()
    with_cache = _scan_batch(world, use_cache=True)
    without_cache = _scan_batch(world, use_cache=False)
    benchmark.pedantic(_scan_batch, args=(world, True), rounds=3, iterations=1)
    report(
        render_table(
            "Ablation: resolver TTL cache (queries on the wire for a 60-domain batch)",
            ["configuration", "upstream queries"],
            [("cache enabled", with_cache), ("cache disabled", without_cache)],
            note="the cache absorbs the repeated root/TLD walks of a daily scan",
        )
    )
    assert without_cache > with_cache * 1.5
    # Restore for other benches sharing the fixture (none — fresh world).


def test_ablation_validator_memoization(benchmark, report):
    world = _fresh_world()
    profiles = [p for p in world.listed_profiles() if p.adopter][:40]
    now = timeline.epoch_seconds(_DATE)
    # Warm the world's per-day zone cache so the comparison isolates the
    # validator, not lazy zone construction.
    warmup = ChainValidator(world.validator_source)
    for profile in profiles:
        warmup.validate(profile.apex, rdtypes.HTTPS, now)

    def validate_batch(fresh_each_time: bool) -> None:
        validator = ChainValidator(world.validator_source)
        for profile in profiles:
            if fresh_each_time:
                validator = ChainValidator(world.validator_source)
            validator.validate(profile.apex, rdtypes.HTTPS, now)

    memoized = _timed(validate_batch, False)
    cold = _timed(validate_batch, True)
    benchmark.pedantic(validate_batch, args=(False,), rounds=3, iterations=1)
    report(
        render_table(
            "Ablation: zone-key memoization in the chain validator (40 validations)",
            ["configuration", "seconds"],
            [("shared validator (memoized)", f"{memoized:.4f}"),
             ("fresh validator per query", f"{cold:.4f}")],
            note="root/TLD DNSKEY verification dominates without memoization",
        )
    )
    assert cold > memoized


def test_ablation_wire_mode(benchmark, report):
    fast_world = _fresh_world(wire_mode=False)
    wire_world = _fresh_world(wire_mode=True)
    # Fill the process-wide memos (DNSSEC signatures, parsed names) first:
    # otherwise whichever world is timed first pays for them alone and
    # the second one looks cheaper by that much, codec or not.
    _scan_batch(_fresh_world(wire_mode=False))

    fast = _timed(_scan_batch, fast_world)
    wire = _timed(_scan_batch, wire_world)
    benchmark.pedantic(_scan_batch, args=(fast_world,), rounds=3, iterations=1)
    report(
        render_table(
            "Ablation: full wire codec on every message (60-domain batch)",
            ["configuration", "seconds"],
            [("object fast path", f"{fast:.4f}"), ("wire mode", f"{wire:.4f}")],
            note=(
                "wire mode encodes+parses every query/response (4 codec passes "
                "per exchange); campaigns default to the object path, fidelity "
                "tests to wire mode"
            ),
        )
    )
    assert wire > fast
