"""Traced run: spans and counts around the public functions of each layer.

:func:`install` wraps layer entry points of an imported ``repro`` from
outside the program. A *span* wrapper times a call and records it under
(name, parent span name); a *count* wrapper only counts it under the same
key. Aggregating per (name, parent) keeps memory bounded however long the
run. A span's self time is its duration minus the durations of the spans
it directly contains (calls nest on one thread, so children never
overlap).

The wrappers are write-only: they read arguments and results and never
change them. A module-level function is replaced in every loaded
``repro`` module that holds it, so a name bound with ``from ... import``
is wrapped as well; methods are replaced on their class. A call site the
wrapping still misses shows up in :func:`reconcile`, which compares the
trace's own counts with the program's ``RunStats`` counters.
"""

from __future__ import annotations

import functools
import os
import sys
import time


class Recorder:
    """Aggregated spans and counts, keyed by (name, parent span name)."""

    def __init__(self):
        self.stack: list = []  # frames: [name, child_seconds]
        # (name, parent) -> [calls, inclusive_s, self_s, bytes]
        self.spans: dict = {}
        # (name, parent) -> calls, for untimed counters and outcomes
        self.counts: dict = {}
        self.cache_entries = 0

    def count(self, name: str, parent=None) -> None:
        key = (name, parent)
        self.counts[key] = self.counts.get(key, 0) + 1

    def add_bytes(self, name: str, parent, n: int) -> None:
        self.spans[(name, parent)][3] += n

    # -- totals ----------------------------------------------------------

    def calls(self, name: str, parent=...) -> int:
        return sum(
            v[0] for (n, p), v in self.spans.items()
            if n == name and (parent is ... or p == parent)
        )

    def self_s(self, name: str) -> float:
        return sum(v[2] for (n, _), v in self.spans.items() if n == name)

    def inclusive_s(self, name: str) -> float:
        return sum(v[1] for (n, _), v in self.spans.items() if n == name)

    def span_bytes(self, name: str, parent=...) -> int:
        return sum(
            v[3] for (n, p), v in self.spans.items()
            if n == name and (parent is ... or p == parent)
        )

    def counted(self, name: str, parent=...) -> int:
        return sum(
            v for (n, p), v in self.counts.items()
            if n == name and (parent is ... or p == parent)
        )

    def tallies(self) -> dict:
        """Every span and counter name with its call count (for phase
        deltas)."""
        out: dict = {}
        for (name, _), value in self.spans.items():
            out[name] = out.get(name, 0) + value[0]
        for (name, _), value in self.counts.items():
            out[name] = out.get(name, 0) + value
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                [name, parent, v[0], v[1], v[2], v[3]]
                for (name, parent), v in sorted(self.spans.items(), key=str)
            ],
            "counts": [
                [name, parent, v] for (name, parent), v in sorted(self.counts.items(), key=str)
            ],
        }

    # -- wrappers --------------------------------------------------------

    def span(self, name: str, fn, on_exit=None):
        """Time every call of *fn*; ``on_exit(args, result, error, parent)``
        sees each call's outcome."""
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                key = (name, parent)
                entry = spans.get(key)
                if entry is None:
                    entry = spans[key] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if on_exit is not None:
                    on_exit(args, result, error, parent)

        return wrapper

    def counter(self, name: str, fn, on_exit=None):
        """Count every call of *fn* under the enclosing span."""
        stack = self.stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            key = (name, parent)
            counts[key] = counts.get(key, 0) + 1
            result = fn(*args, **kwargs)
            if on_exit is not None:
                on_exit(args, result, parent)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------


def _replace_function(module, attr: str, make) -> None:
    """Wrap module-level function *attr* everywhere it is bound."""
    original = getattr(module, attr)
    wrapped = make(original)
    for loaded in list(sys.modules.values()):
        name = getattr(loaded, "__name__", "") or ""
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapped)


def _replace_method(cls, attr: str, make) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install() -> Recorder:
    """Import the layers of ``repro``, wrap their entry points, and return
    the recorder that collects the spans."""
    import repro.reporting.export as export
    import repro.scanner.campaign as campaign
    import repro.scanner.collector as collector
    import repro.scanner.incremental as incremental
    import repro.scanner.pipeline as pipeline
    import repro.study as study
    from repro.dnscore.message import Message
    from repro.dnssec import keys, signing, validation
    from repro.resolver import authoritative, network, recursive
    from repro.scanner.dataset import Dataset
    from repro.scanner.engine import ScanEngine
    from repro.simnet import domains, world

    rec = Recorder()
    span, counter = rec.span, rec.counter

    # simnet.world: build, zones. A zone_of call that computed a body
    # fingerprint but built nothing reused the stored body.
    tally = {"fingerprint": 0, "build": 0}

    def fingerprint_seen(args, result, parent):
        tally["fingerprint"] += 1

    def build_seen(args, result, parent):
        tally["build"] += 1

    _replace_method(world.World, "__init__", lambda f: span("world.build", f))
    _replace_function(
        domains, "zone_body_fingerprint",
        lambda f: counter("world.zone_fingerprint", f, fingerprint_seen),
    )
    _replace_function(
        domains, "build_zone", lambda f: counter("world.zone_build", f, build_seen)
    )

    def zone_of(fn):
        timed = span("world.zone_of", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = (tally["fingerprint"], tally["build"])
            result = timed(*args, **kwargs)
            if tally["fingerprint"] != before[0] and tally["build"] == before[1]:
                rec.count("world.zone_reuse")
            return result

        return wrapper

    _replace_method(world.World, "zone_of", zone_of)

    # dnssec.signing / dnssec.validation
    _replace_function(signing, "sign_rrset", lambda f: span("dnssec.sign", f))
    _replace_method(signing.SignatureMemo, "sign", lambda f: counter("dnssec.memo_sign", f))
    _replace_method(keys.ZoneKey, "sign_blob", lambda f: counter("dnssec.sign_blob", f))
    _replace_method(
        validation.ChainValidator, "validate", lambda f: span("dnssec.validate", f)
    )

    # resolver.authoritative
    def lookup_seen(args, result, parent):
        rec.count("authoritative.answer_miss" if result is None else "authoritative.answer_hit")

    _replace_method(
        authoritative.AuthoritativeServer, "handle_query",
        lambda f: span("authoritative.handle_query", f),
    )
    _replace_method(
        authoritative.AnswerCache, "lookup",
        lambda f: counter("authoritative.lookup", f, lookup_seen),
    )
    _replace_method(
        authoritative.AnswerCache, "wire_roundtrip",
        lambda f: span("authoritative.wire_roundtrip", f),
    )

    # dnscore.message codec
    def encoded(args, result, error, parent):
        if error is None:
            rec.add_bytes("dnscore.to_wire", parent, len(result))

    def decoded(args, result, error, parent):
        if error is None:
            rec.add_bytes("dnscore.from_wire", parent, len(args[1]))

    _replace_method(Message, "to_wire", lambda f: span("dnscore.to_wire", f, encoded))
    _replace_method(Message, "from_wire", lambda f: span("dnscore.from_wire", f, decoded))

    # resolver.network: a send with attempt >= 1 is a retry of a timed-out
    # attempt (the resolver only re-sends after a QueryTimeout).
    query_timeout = network.QueryTimeout

    def sent(args, result, error, parent):
        attempt = args[3] if len(args) > 3 else 0
        if attempt:
            rec.count("network.retry")
        if isinstance(error, query_timeout):
            rec.count("network.timeout")

    _replace_method(
        network.Network, "send_dns_query", lambda f: span("network.send", f, sent)
    )

    # resolver.recursive
    _replace_method(
        recursive.RecursiveResolver, "resolve", lambda f: span("recursive.resolve", f)
    )

    # scanner.engine
    for method in ("scan_name", "scan_ech", "scan_nameserver", "probe_connectivity"):
        _replace_method(
            ScanEngine, method, lambda f, m=method: span(f"scanner.{m}", f)
        )

    # scanner.campaign; RunStats.of_world is where a run reads its world's
    # counters, so the answer cache is at its fullest there.
    def stats_read(args, result, parent):
        rec.cache_entries = max(rec.cache_entries, len(args[1].answer_cache))

    _replace_function(campaign, "run_scheduled", lambda f: span("campaign.run_scheduled", f))
    _replace_method(
        campaign.RunStats, "of_world", lambda f: counter("campaign.of_world", f, stats_read)
    )

    # scanner.collector / incremental / pipeline
    for method in ("record_increment", "save_merged"):
        _replace_method(
            collector.CheckpointStore, method, lambda f: span("collector.checkpoint", f)
        )
    _replace_function(incremental, "fold_slice", lambda f: span("incremental.fold_slice", f))
    _replace_function(
        pipeline, "merge_shard_datasets",
        lambda f: span("pipeline.merge_shard_datasets", f),
    )

    # scanner.dataset
    def saved(args, result, error, parent):
        if error is None:
            rec.add_bytes("dataset.save", parent, os.path.getsize(args[1]))

    _replace_method(Dataset, "save", lambda f: span("dataset.save", f, saved))
    _replace_method(Dataset, "load", lambda f: span("dataset.load", f))

    # reporting.export and study
    _replace_function(export, "export_figure_data", lambda f: span("reporting.export", f))
    _replace_method(study.Study, "release", lambda f: span("study.release", f))
    _replace_function(study, "validate_release", lambda f: span("study.validate_release", f))
    return rec


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

# name -> (unit, better). The per-layer metrics every traced run emits,
# grouped by layer with the end-to-end metric each should move and the
# workload where the layer does most / little of its work.
PER_LAYER = {
    # simnet.world build -> setup_s; alike on both workloads.
    "world.build_s": ("s", "lower"),
    # simnet.world zones -> campaign_s; ECH-week rebuilds on
    # collect_wire_loss, cross-day body reuse on daily.
    "world.zone_of.calls": ("count", "lower"),
    "world.zone_of.self_s": ("s", "lower"),
    "world.zone_builds": ("count", "lower"),
    "world.zone_body_reuses": ("count", "higher"),
    "world.zone_reuse_ratio": ("ratio", "higher"),
    # dnssec.signing -> campaign_s; re-signs of rebuilt zones.
    "dnssec.sign.calls": ("count", "lower"),
    "dnssec.sign.self_s": ("s", "lower"),
    "dnssec.sign_memo_hit_ratio": ("ratio", "higher"),
    # dnssec.validation -> campaign_s; alike on both workloads.
    "dnssec.validate.calls": ("count", "lower"),
    "dnssec.validate.self_s": ("s", "lower"),
    # resolver.authoritative -> campaign_s, peak_rss_mb; both workloads.
    "authoritative.handle_query.calls": ("count", "lower"),
    "authoritative.handle_query.self_s": ("s", "lower"),
    "authoritative.answer_hit_ratio": ("ratio", "higher"),
    "authoritative.answer_evictions": ("count", "lower"),
    "authoritative.cache_entries": ("count", "lower"),
    # dnscore.message codec -> campaign_s; collect_wire_loss only.
    "dnscore.to_wire.calls": ("count", "lower"),
    "dnscore.to_wire.self_s": ("s", "lower"),
    "dnscore.to_wire.bytes": ("bytes", "lower"),
    "dnscore.from_wire.calls": ("count", "lower"),
    "dnscore.from_wire.self_s": ("s", "lower"),
    "dnscore.from_wire.bytes": ("bytes", "lower"),
    "dnscore.wire_byte_hits": ("count", "higher"),
    # resolver.network -> campaign_s; timeouts on collect_wire_loss only.
    "network.send.calls": ("count", "lower"),
    "network.send.self_s": ("s", "lower"),
    "network.timeouts": ("count", "lower"),
    # resolver.recursive -> campaign_s; retries on collect_wire_loss only.
    "recursive.resolve.calls": ("count", "lower"),
    "recursive.resolve.self_s": ("s", "lower"),
    "recursive.queries_per_resolve": ("ratio", "lower"),
    "recursive.retries": ("count", "lower"),
    "recursive.timeouts": ("count", "lower"),
    # scanner.engine -> campaign_s; scan_ech on collect_wire_loss, more
    # NS-IP scans and probes on daily.
    "scanner.scan_name.calls": ("count", "lower"),
    "scanner.scan_name.self_s": ("s", "lower"),
    "scanner.scan_ech.calls": ("count", "lower"),
    "scanner.scan_ech.self_s": ("s", "lower"),
    "scanner.scan_nameserver.calls": ("count", "lower"),
    "scanner.scan_nameserver.self_s": ("s", "lower"),
    "scanner.probe_connectivity.calls": ("count", "lower"),
    "scanner.probe_connectivity.self_s": ("s", "lower"),
    # scanner.campaign -> campaign_s.
    "campaign.run_scheduled.self_s": ("s", "lower"),
    # scanner.collector / incremental / pipeline -> campaign_s;
    # collect_wire_loss only.
    "collector.checkpoint.self_s": ("s", "lower"),
    "collector.checkpoint_bytes": ("bytes", "lower"),
    "incremental.fold_slice.self_s": ("s", "lower"),
    "pipeline.merge_shard_datasets.self_s": ("s", "lower"),
    # scanner.dataset -> campaign_s, report_s; both, plus checkpoint saves
    # on collect_wire_loss.
    "dataset.save.self_s": ("s", "lower"),
    "dataset.save.bytes": ("bytes", "lower"),
    "dataset.load.self_s": ("s", "lower"),
    # reporting.export and study -> report_s; both workloads.
    "reporting.export.self_s": ("s", "lower"),
    "study.release.self_s": ("s", "lower"),
    "study.validate_release.self_s": ("s", "lower"),
    # traced campaign_s / untraced campaign_s; moves nothing.
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rec: Recorder, run_stats: dict) -> dict:
    """Every per-layer metric except ``trace.overhead_ratio`` (which needs
    the untraced run), from one traced study process."""
    out = {}
    builds = rec.calls("world.build")
    out["world.build_s"] = _ratio(rec.inclusive_s("world.build"), builds)
    out["world.zone_of.calls"] = rec.calls("world.zone_of")
    out["world.zone_of.self_s"] = rec.self_s("world.zone_of")
    zone_builds = rec.counted("world.zone_build", "world.zone_of")
    reuses = rec.counted("world.zone_reuse")
    out["world.zone_builds"] = zone_builds
    out["world.zone_body_reuses"] = reuses
    out["world.zone_reuse_ratio"] = _ratio(reuses, zone_builds + reuses)
    out["dnssec.sign.calls"] = rec.calls("dnssec.sign")
    out["dnssec.sign.self_s"] = rec.self_s("dnssec.sign")
    memo_signs = rec.counted("dnssec.memo_sign", "dnssec.sign")
    out["dnssec.sign_memo_hit_ratio"] = _ratio(
        memo_signs - rec.counted("dnssec.sign_blob", "dnssec.sign"), memo_signs
    )
    out["dnssec.validate.calls"] = rec.calls("dnssec.validate")
    out["dnssec.validate.self_s"] = rec.self_s("dnssec.validate")
    hits = rec.counted("authoritative.answer_hit")
    out["authoritative.handle_query.calls"] = rec.calls("authoritative.handle_query")
    out["authoritative.handle_query.self_s"] = rec.self_s("authoritative.handle_query")
    out["authoritative.answer_hit_ratio"] = _ratio(
        hits, hits + rec.counted("authoritative.answer_miss")
    )
    out["authoritative.answer_evictions"] = run_stats["answer_evictions"]
    out["authoritative.cache_entries"] = rec.cache_entries
    for codec in ("to_wire", "from_wire"):
        out[f"dnscore.{codec}.calls"] = rec.calls(f"dnscore.{codec}")
        out[f"dnscore.{codec}.self_s"] = rec.self_s(f"dnscore.{codec}")
        out[f"dnscore.{codec}.bytes"] = rec.span_bytes(f"dnscore.{codec}")
    out["dnscore.wire_byte_hits"] = rec.calls("authoritative.wire_roundtrip") - rec.calls(
        "dnscore.to_wire", "authoritative.wire_roundtrip"
    )
    sends = rec.calls("network.send")
    out["network.send.calls"] = sends
    out["network.send.self_s"] = rec.self_s("network.send")
    out["network.timeouts"] = rec.counted("network.timeout")
    resolves = rec.calls("recursive.resolve")
    out["recursive.resolve.calls"] = resolves
    out["recursive.resolve.self_s"] = rec.self_s("recursive.resolve")
    out["recursive.queries_per_resolve"] = _ratio(sends, resolves)
    out["recursive.retries"] = rec.counted("network.retry")
    out["recursive.timeouts"] = run_stats["timeouts"]
    for method in ("scan_name", "scan_ech", "scan_nameserver", "probe_connectivity"):
        out[f"scanner.{method}.calls"] = rec.calls(f"scanner.{method}")
        out[f"scanner.{method}.self_s"] = rec.self_s(f"scanner.{method}")
    out["campaign.run_scheduled.self_s"] = rec.self_s("campaign.run_scheduled")
    out["collector.checkpoint.self_s"] = rec.self_s("collector.checkpoint")
    out["collector.checkpoint_bytes"] = rec.span_bytes("dataset.save", "collector.checkpoint")
    out["incremental.fold_slice.self_s"] = rec.self_s("incremental.fold_slice")
    out["pipeline.merge_shard_datasets.self_s"] = rec.self_s("pipeline.merge_shard_datasets")
    out["dataset.save.self_s"] = rec.self_s("dataset.save")
    out["dataset.save.bytes"] = rec.span_bytes("dataset.save")
    out["dataset.load.self_s"] = rec.self_s("dataset.load")
    out["reporting.export.self_s"] = rec.self_s("reporting.export")
    out["study.release.self_s"] = rec.self_s("study.release")
    out["study.validate_release.self_s"] = rec.self_s("study.validate_release")
    return out


def reconcile(delta: dict, rec: Recorder, run_stats: dict) -> list:
    """Mismatches between the trace's counts over the campaign and the
    campaign's ``RunStats`` (an empty list means they reconcile).

    *delta* maps each span/counter name to its calls during the
    campaign; wire-byte hits come from the whole-process spans because
    only the campaign sends queries."""
    checks = [
        ("network.send.calls == dns_queries",
         delta.get("network.send", 0), run_stats["dns_queries"]),
        ("authoritative hits + misses == answer_hits + answer_misses",
         delta.get("authoritative.answer_hit", 0) + delta.get("authoritative.answer_miss", 0),
         run_stats["answer_hits"] + run_stats["answer_misses"]),
        ("zone builds == zone_builds",
         delta.get("world.zone_build", 0), run_stats["zone_builds"]),
        ("zone body reuses == zone_body_reuses",
         delta.get("world.zone_reuse", 0), run_stats["zone_body_reuses"]),
        ("recursive.retries == retries",
         delta.get("network.retry", 0), run_stats["retries"]),
        ("network.timeouts == timeouts",
         delta.get("network.timeout", 0), run_stats["timeouts"]),
        ("dnscore.wire_byte_hits == wire_byte_hits",
         rec.calls("authoritative.wire_roundtrip")
         - rec.calls("dnscore.to_wire", "authoritative.wire_roundtrip"),
         run_stats["wire_byte_hits"]),
    ]
    return [
        f"{label}: trace {traced} != RunStats {counted}"
        for label, traced, counted in checks
        if traced != counted
    ]
