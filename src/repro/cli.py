"""Command-line tools.

* ``repro-dig``    — dig-style queries against a simulated world
* ``repro-scan``   — run a scan campaign and print/export the analyses;
  subcommands ``lint-code`` (the :mod:`repro.devtools.codelint` AST
  invariant linter) and ``lint-zone`` (the §7 zone linter against
  simulated zones)
* ``repro-tables`` — regenerate the browser support tables (6 and 7)

All are thin wrappers over the library; they exist so the reproduction
can be driven without writing Python (mirroring zdns/dig workflows).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable, List, Optional

from .dnscore import Name, rdtypes
from .simnet import SimConfig, World, timeline


def _entry_point(run: Callable[[Optional[List[str]]], int]):
    """Make *run* end quietly with status 0 when its reader closes the
    pipe early (``repro-tables | head``). Applied to every console
    script and to :func:`main`."""

    @functools.wraps(run)
    def wrapper(argv: Optional[List[str]] = None) -> int:
        try:
            try:
                return run(argv)
            finally:
                # Flush here, also on SystemExit (--help), so a closed
                # pipe surfaces now and not at interpreter shutdown.
                sys.stdout.flush()
        except BrokenPipeError:
            # Nothing more can reach the reader; point stdout at devnull
            # so the interpreter's own final flush cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0

    return wrapper


def _parse_date(text: str):
    import datetime

    return datetime.date.fromisoformat(text)


# ---------------------------------------------------------------------------
# repro-dig
# ---------------------------------------------------------------------------

@_entry_point
def dig_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-dig",
        description="Query a name in the simulated Internet, dig-style.",
    )
    parser.add_argument("qname", help="domain name to query")
    parser.add_argument("qtype", nargs="?", default="HTTPS", help="record type (default HTTPS)")
    parser.add_argument("--date", type=_parse_date, default=timeline.STUDY_START,
                        help="simulation date (YYYY-MM-DD)")
    parser.add_argument("--population", type=int, default=2000)
    parser.add_argument("--resolver", choices=("google", "cloudflare"), default="google")
    args = parser.parse_args(argv)

    world = World(SimConfig(population=args.population))
    world.set_time(args.date)
    resolver = world.google_resolver if args.resolver == "google" else world.cloudflare_resolver
    try:
        rdtype = rdtypes.text_to_type(args.qtype)
    except ValueError as exc:
        parser.error(str(exc))
    name = Name.from_text(args.qname if args.qname.endswith(".") else args.qname + ".")
    response = resolver.resolve(name, rdtype)

    flags = []
    for label, value in (
        ("qr", response.is_response), ("aa", response.authoritative),
        ("rd", response.recursion_desired), ("ra", response.recursion_available),
        ("ad", response.authenticated_data),
    ):
        if value:
            flags.append(label)
    print(f";; ->>HEADER<<- rcode: {rdtypes.rcode_to_text(response.rcode)}, "
          f"flags: {' '.join(flags)}; date: {args.date}")
    print(f";; QUESTION\n;{name.to_text()} IN {rdtypes.type_to_text(rdtype)}")
    if response.answers:
        print(";; ANSWER")
        for rrset in response.answers:
            print(rrset.to_text())
    return 0 if response.rcode == rdtypes.NOERROR else 1


# ---------------------------------------------------------------------------
# repro-scan
# ---------------------------------------------------------------------------

@_entry_point
def scan_main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Lint subcommands ride on repro-scan (`repro-scan lint-code src/`,
    # `repro-scan lint-zone shop.example`) so the operational surface
    # stays one executable; everything else is the campaign runner.
    if argv[:1] == ["lint-code"]:
        return lint_code_main(argv[1:])
    if argv[:1] == ["lint-zone"]:
        return lint_zone_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-scan",
        description="Run the measurement campaign and print headline analyses "
                    "(subcommands: lint-code, lint-zone).",
    )
    parser.add_argument("--population", type=int, default=2000)
    parser.add_argument("--day-step", type=int, default=28)
    parser.add_argument("--ech-sample", type=int, default=60)
    parser.add_argument("--workers", type=int, default=1,
                        help="shard the campaign across N worker processes "
                             "(same dataset, less wall-clock on multi-core)")
    parser.add_argument("--continuous", action="store_true",
                        help="collect incrementally: day-slice × domain-shard "
                             "increments folded into a growing longitudinal "
                             "dataset with an on-disk checkpoint, so an "
                             "interrupted run resumes instead of restarting "
                             "(same dataset as a one-shot run)")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="checkpoint directory for --continuous (default: "
                             "a key-scoped directory under "
                             "<cache-dir>/checkpoints)")
    parser.add_argument("--increment-days", type=int, default=None, metavar="N",
                        help="scan days per day-slice increment in "
                             "--continuous mode (default 7)")
    parser.add_argument("--max-increments", type=int, default=None, metavar="N",
                        help="stop the continuous run after N increments "
                             "(exit status 3; the checkpoint resumes on the "
                             "next invocation)")
    parser.add_argument("--scenario", metavar="FILE", default=None,
                        help="inject a chaos scenario: a JSON fault schedule "
                             "(see repro.simnet.faults) applied to the world "
                             "for the whole campaign; prints an injected-fault "
                             "attribution report after the analyses")
    parser.add_argument("--export", metavar="DIR", help="write figure CSVs to DIR")
    parser.add_argument("--release", metavar="TAG", default=None,
                        help="after the campaign completes, cut release TAG: "
                             "dataset snapshot + figure CSVs + QA manifest "
                             "under <release-dir>/TAG (refuses to overwrite "
                             "an existing tag)")
    parser.add_argument("--release-dir", metavar="DIR", default=None,
                        help="root directory for --release (default: releases)")
    parser.add_argument("--cache-dir", default=".cache")
    args = parser.parse_args(argv)

    if not args.continuous:
        given = [
            flag for flag, value in (
                ("--checkpoint-dir", args.checkpoint_dir is not None),
                ("--increment-days", args.increment_days is not None),
                ("--max-increments", args.max_increments is not None),
            ) if value
        ]
        if given:
            parser.error(f"{', '.join(given)} requires --continuous")
    if args.release_dir is not None and args.release is None:
        parser.error("--release-dir requires --release")
    if args.release is not None and (
        not args.release or "/" in args.release or args.release in (".", "..")
    ):
        # Fail before the campaign runs, not after (Study.release would
        # reject the tag anyway, but hours too late).
        parser.error(f"invalid release tag {args.release!r}")

    from .analysis import adoption, ech_analysis, nameservers
    from .reporting import render_comparison
    from .scanner import CollectionInterrupted
    from .study import ExecutionPlan, Study, StudyError, StudySpec, validate_release

    scenario = None
    if args.scenario is not None:
        from .simnet.faults import FaultSchedule

        try:
            scenario = FaultSchedule.load(args.scenario)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            parser.error(f"cannot load scenario {args.scenario!r}: {exc}")

    spec = StudySpec(
        SimConfig(population=args.population),
        day_step=args.day_step,
        ech_sample=args.ech_sample,
        scenario=scenario,
    )
    plan = ExecutionPlan(
        workers=args.workers,
        cache_dir=args.cache_dir,
        continuous=args.continuous,
        checkpoint_dir=args.checkpoint_dir,
        days_per_increment=args.increment_days or 7,
        max_increments=args.max_increments,
        release_dir=args.release_dir or "releases",
    )
    with Study(spec, plan) as study:
        try:
            dataset = study.run()
        except CollectionInterrupted as exc:
            print(f"repro-scan: {exc}", file=sys.stderr)
            return 3
        summary = adoption.summarize(dataset)
        stats = nameservers.table2_ns_shares(dataset)
        event = ech_analysis.detect_disable_event(dataset)
        print(render_comparison(
            f"Campaign summary (population {args.population}, every {args.day_step} days)",
            [
                ("adoption band", "20-27%", f"{summary.dynamic_apex_start:.1f}-{summary.dynamic_apex_end:.1f}%"),
                ("full-Cloudflare NS share", "99.89%", f"{stats.full_mean_pct:.2f}%"),
                ("ECH before/after Oct 5", "~70% / 0%",
                 f"{event.pre_disable_mean_pct:.1f}% / {event.post_disable_max_pct:.1f}%"),
            ],
        ))
        stats = getattr(dataset, "run_stats", None)
        if stats is not None:
            if getattr(dataset, "loaded_from_cache", False):
                # A cache hit did no resolution work; the counters describe
                # the run that originally built the dataset.
                print(f"\nrun stats (cached dataset's originating run): {stats.summary()}")
            else:
                print(f"\nrun stats: {stats.summary()}")
        if scenario is not None and scenario:
            from .analysis import attribution

            report = attribution.attribute(dataset, scenario, spec.config)
            print(f"\nfault attribution ({scenario.name}):")
            print(report.summary())
        if args.export:
            written = study.export(args.export)
            print(f"\nwrote {len(written)} files to {args.export}:")
            for path in written:
                print(f"  {path}")
        if args.release:
            try:
                directory = study.release(args.release)
            except (StudyError, ValueError) as exc:
                # e.g. the tag already exists — a rerun of the same
                # resume command after the release was cut.
                print(f"repro-scan: {exc}", file=sys.stderr)
                return 4
            manifest = validate_release(directory)
            days = manifest["scan_days"]
            print(f"\nrelease {args.release!r} written to {directory} "
                  f"({len(manifest['files']) + 1} files, validated)")
            print(f"  scan days: {days['count']} ({days['first']}..{days['last']})"
                  f"{'' if manifest['complete'] else ' — INCOMPLETE'}")
            if manifest["coverage_gaps"]:
                print(f"  cadence gaps: {', '.join(manifest['coverage_gaps'])}")
    return 0


# ---------------------------------------------------------------------------
# repro-scan lint-code / lint-zone
# ---------------------------------------------------------------------------

def lint_code_main(argv: Optional[List[str]] = None) -> int:
    """The AST invariant linter (same as ``python -m repro.devtools.codelint``)."""
    from .devtools.codelint import main as codelint_main

    return codelint_main(argv)


def lint_zone_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-scan lint-zone",
        description="Lint simulated zones for the paper's §4 HTTPS-record "
                    "misconfigurations (repro.manage.linter).",
    )
    parser.add_argument("domains", nargs="*",
                        help="apex domains to lint (default: every domain "
                             "on the simulated Tranco list for --date)")
    parser.add_argument("--date", type=_parse_date, default=timeline.STUDY_START,
                        help="simulation date (YYYY-MM-DD)")
    parser.add_argument("--population", type=int, default=2000)
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    args = parser.parse_args(argv)

    from .devtools.codelint.findings import (
        Severity, render_json, render_text, severity_counts,
    )
    from .manage import lint_zone

    world = World(SimConfig(population=args.population))
    world.set_time(args.date)
    hour = world.absolute_hour()
    if args.domains:
        profiles = []
        for text in args.domains:
            profile = world.profile_by_name(text)
            if profile is None:
                parser.error(f"no such domain {text!r} in a population-"
                             f"{args.population} world")
            profiles.append(profile)
    else:
        profiles = world.listed_profiles(args.date)

    findings = []
    for profile in profiles:
        findings.extend(lint_zone(
            world.zone_of(profile), ech_manager=world.ech_manager,
            current_hour=hour,
        ))
    if args.format == "json":
        print(render_json(
            findings, date=args.date.isoformat(), zones=len(profiles),
        ))
    else:
        if findings:
            print(render_text(findings))
        counts = severity_counts(findings)
        summary = ", ".join(
            f"{count} {severity}" for severity, count in counts.items() if count
        ) or "clean"
        print(f"lint-zone: {len(profiles)} zone(s) on {args.date}: {summary}")
    return 1 if any(f.severity is Severity.ERROR for f in findings) else 0


# ---------------------------------------------------------------------------
# repro-tables
# ---------------------------------------------------------------------------

@_entry_point
def tables_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-tables",
        description="Regenerate the browser support tables (paper Tables 6-7).",
    )
    parser.add_argument("--table", choices=("6", "7", "both"), default="both")
    args = parser.parse_args(argv)

    from .browser import build_table6, build_table7

    if args.table in ("6", "both"):
        print(build_table6().render())
    if args.table in ("7", "both"):
        if args.table == "both":
            print()
        print(build_table7().render())
    return 0


@_entry_point
def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - dispatcher
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: repro {dig,scan,tables} ...", file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    if command == "dig":
        return dig_main(rest)
    if command == "scan":
        return scan_main(rest)
    if command == "tables":
        return tables_main(rest)
    if command == "lint-code":
        return lint_code_main(rest)
    if command == "lint-zone":
        return lint_zone_main(rest)
    print(f"unknown command {command!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
