#!/usr/bin/env python
"""Run a miniature version of the paper's server-side study (§4).

Builds a small simulated Internet, runs the daily scan campaign over the
full May 2023 – Mar 2024 window (sampled monthly so this finishes in
seconds), and prints the headline analyses: adoption (Fig 2), name
servers (Table 2), default-vs-custom configs (Table 4), the ECH disable
event (Fig 13), key-rotation cadence (Fig 4), and DNSSEC (Table 9).

The campaign is driven through the unified Study API
(:mod:`repro.study`): a declarative :class:`~repro.study.StudySpec`
names *what* is measured (world config + schedule — the dataset's cache
identity) and an :class:`~repro.study.ExecutionPlan` names *how* it runs
(workers, answer fast path, checkpointing — guaranteed not to change
the result).

Run:  python examples/measurement_study.py [population]

Pass ``--continuous`` to also walk through the paper's "longstanding
framework" mode: the same spec collected as arriving day-slice ×
domain-shard increments against an on-disk checkpoint, interrupted
mid-collection, resumed with ``Study.resume()``, checked value-equal to
the one-shot run, and published with ``Study.release()`` (dataset
snapshot + figure CSVs + validated QA manifest).

Pass ``--chaos`` to run a chaos scenario study: the committed fault
schedule ``examples/chaos_scenario.json`` (server outages, lame
delegations, timeouts, DNSSEC breakage, ECH key desync, stale hints —
see :mod:`repro.simnet.faults` for the JSON vocabulary) is injected via
``StudySpec(scenario=...)``, and the resulting anomalies are attributed
back to the injected faults vs the world's organic misbehaviour
(:mod:`repro.analysis.attribution`). The CLI equivalent is
``repro-scan scan --scenario examples/chaos_scenario.json``.
"""

import os
import sys
import tempfile

from repro.analysis import adoption, dnssec_analysis, ech_analysis, nameservers, parameters
from repro.reporting import render_comparison, render_series, render_table
from repro.scanner import CollectionInterrupted
from repro.simnet import SimConfig
from repro.study import ExecutionPlan, Study, StudySpec, validate_release


def continuous_walkthrough(spec: StudySpec, one_shot, workdir: str) -> None:
    """Collect the same spec incrementally: increments arrive, the
    collection is "killed" partway, ``resume()`` finishes it from the
    checkpoint, the folded result equals the one-shot dataset, and
    ``release()`` publishes it."""
    plan = ExecutionPlan(
        continuous=True,
        workers=2,                 # two domain shards on a warm process pool
        days_per_increment=3,      # three scan days per arriving day-slice
        max_increments=3,          # "crash" after three increments
        cache_dir=os.path.join(workdir, "cache-continuous"),
        checkpoint_dir=os.path.join(workdir, "checkpoint"),
        release_dir=os.path.join(workdir, "releases"),
    )
    print("\ncontinuous collection walkthrough")
    print(f"  checkpoint: {plan.checkpoint_dir}")

    # One Study session spans the interrupt and the resume: its worker
    # pool (and the workers' warm worlds) survives the "crash".
    with Study(spec, plan) as study:
        try:
            study.run(progress=lambda msg: print(f"  {msg}"))
        except CollectionInterrupted as exc:
            print(f"  simulated crash: {exc}")
        longitudinal = study.resume(progress=lambda msg: print(f"  {msg}"))
        print(f"  resumed and finished: {len(longitudinal.days())} scan days, "
              f"stats {longitudinal.run_stats.summary()}")
        print(f"  value-equal to the one-shot campaign: {longitudinal == one_shot}")

        release_dir = study.release("v2024.03")
        manifest = validate_release(release_dir)
        print(f"  released {manifest['tag']!r} to {release_dir}: "
              f"{len(manifest['files']) + 1} files, complete={manifest['complete']}, "
              f"coverage gaps={manifest['coverage_gaps'] or 'none'}")


def chaos_walkthrough(workdir: str) -> None:
    """Inject the committed example fault schedule into a small study
    and join the observed anomalies back against it: every in-window
    fault must account for something, everything unclaimed is organic."""
    from repro.analysis import attribution
    from repro.analysis.ech_analysis import table7_failover_split
    from repro.analysis.intermittent import intermittency_injected_split
    from repro.simnet.faults import FaultSchedule

    path = os.path.join(os.path.dirname(__file__), "chaos_scenario.json")
    scenario = FaultSchedule.load(path)
    # The schedule's targets are verified capable at this population: a
    # zone fault on a domain without the feature (e.g. DNSSEC breakage
    # on an unsigned zone) silently no-ops.
    spec = StudySpec(
        SimConfig(population=120), day_step=28, ech_sample=20, scenario=scenario
    )
    print("\nchaos scenario walkthrough")
    print(f"  schedule {scenario.name!r}: {len(scenario.specs)} scheduled faults")
    print("  (the scenario joins the cache tag: faulted datasets never "
          "alias the fault-free study)")
    with Study(spec, ExecutionPlan(cache_dir=os.path.join(workdir, "cache-chaos"))) as study:
        dataset = study.run()
    stats = dataset.run_stats
    print(f"  what the faults cost the clients: {stats.timeouts} timeouts, "
          f"{stats.retries} retries, {stats.unreachables} dead hosts")
    report = attribution.attribute(dataset, scenario, spec.config)
    print("  " + report.summary().replace("\n", "\n  "))
    print(f"  every in-window fault accounted for: {report.fully_attributed()}")
    flapping = intermittency_injected_split(dataset, scenario, spec.config)
    failover = table7_failover_split(dataset, scenario, spec.config)
    print(f"  §4.2.3 intermittent domains: {flapping.injected_domains} injected "
          f"/ {flapping.organic_domains} organic")
    print(f"  Table 7 stale-ECH domains: {failover.injected_domains} injected "
          f"/ {failover.organic_domains} organic")


def main() -> None:
    flags = {"--continuous", "--chaos"}
    argv = [a for a in sys.argv[1:] if a not in flags]
    with_continuous = "--continuous" in sys.argv[1:]
    with_chaos = "--chaos" in sys.argv[1:]
    population = int(argv[0]) if argv else 1200
    print(f"building a {population}-domain Internet and scanning it "
          "(May 2023 - Mar 2024, monthly samples + the hourly ECH week)...")
    spec = StudySpec(SimConfig(population=population), day_step=28, ech_sample=60)
    workdir = tempfile.mkdtemp(prefix="repro-study-")
    with Study(spec, ExecutionPlan(cache_dir=os.path.join(workdir, "cache"))) as study:
        dataset = study.run()
    print(f"done: {len(dataset.days())} scan days, "
          f"{dataset.run_stats.dns_queries} DNS queries, "
          f"{len(dataset.ech_observations)} hourly ECH sightings\n")

    summary = adoption.summarize(dataset)
    print(render_comparison(
        "Adoption (Figure 2)",
        [
            ("rate band", "20-27%", f"{summary.dynamic_apex_start:.1f}-{summary.dynamic_apex_end:.1f}%"),
            ("dynamic trend", "rising", "rising" if summary.dynamic_rising else "flat"),
        ],
    ))
    series = adoption.dynamic_adoption(dataset)["apex"]
    print()
    print(render_series("dynamic apex adoption %", series.points))

    stats = nameservers.table2_ns_shares(dataset)
    print()
    print(render_comparison(
        "Name servers (Table 2)",
        [("full-Cloudflare share", "99.89%", f"{stats.full_mean_pct:.2f}% (non-CF cohort oversampled x{spec.config.noncf_boost:.0f})")],
    ))

    table4 = parameters.table4_default_vs_custom(dataset)
    print()
    print(render_comparison(
        "Cloudflare config (Table 4)",
        [("default share", "~80%", f"{table4.default_pct:.1f}%")],
    ))

    event = ech_analysis.detect_disable_event(dataset)
    rotation = ech_analysis.fig4_rotation(dataset)
    print()
    print(render_comparison(
        "ECH (Figures 4, 13)",
        [
            ("share before Oct 5", "~70%", f"{event.pre_disable_mean_pct:.1f}%"),
            ("share after Oct 5", "0%", f"{event.post_disable_max_pct:.1f}%"),
            ("key rotation", "1.26 h", f"{rotation.overall_mean_hours:.2f} h"),
            ("client-facing server", "cloudflare-ech.com", ", ".join(rotation.public_names)),
        ],
    ))

    rows = dnssec_analysis.table9_validation(dataset)
    print()
    print(render_table(
        "DNSSEC validation (Table 9)",
        ["category", "signed", "secure %", "insecure %"],
        [(r.category, r.signed, f"{r.secure_pct:.1f}", f"{r.insecure_pct:.1f}") for r in rows],
        note="paper: with-HTTPS domains are insecure ~49% vs ~24% without",
    ))

    if with_continuous:
        continuous_walkthrough(spec, dataset, workdir)

    if with_chaos:
        chaos_walkthrough(workdir)


if __name__ == "__main__":
    main()
