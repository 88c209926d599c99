"""The codelint command line.

Run as ``python -m repro.devtools.codelint [paths...]`` or
``repro-scan lint-code [paths...]``.  Exit codes CI can gate on:

* ``0`` — no findings beyond the committed baseline
* ``1`` — new findings (printed, and in the JSON report)
* ``2`` — usage error / unreadable baseline / git failure

One invocation runs both scopes: the per-file rules walk every path,
then the project-scope rules (DET02/LAYER01/DEAD01) run once
over the full parsed tree.  ``--changed[=REF]`` narrows the *report* to
files changed versus a git ref while the project graph still covers the
whole tree, so cross-module findings stay sound; ``--stats`` surfaces
per-rule wall time so CI artifacts can catch rule-cost regressions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional, Set

from . import baseline as baseline_mod
from .engine import all_rules, run_lint
from .findings import Finding, render_json, render_text, severity_counts


def _default_paths() -> List[str]:
    return ["src"] if os.path.isdir("src") else ["."]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codelint",
        description="AST-based invariant linter for determinism, cache "
                    "identity, and pickle/hash stability.",
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/directories to lint (default: src/ if "
                             "present, else .)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format on stdout (default text)")
    parser.add_argument("--json-out", metavar="FILE", default=None,
                        help="additionally write the JSON report to FILE "
                             "(CI artifact)")
    parser.add_argument("--changed", nargs="?", const="HEAD", default=None,
                        metavar="REF",
                        help="report only findings in files changed vs the "
                             "given git ref (default HEAD when the flag is "
                             "bare); project-scope rules still analyse the "
                             "full tree")
    parser.add_argument("--stats", action="store_true",
                        help="append per-rule wall-time and finding counts "
                             "to the report")
    parser.add_argument("--stats-out", metavar="FILE", default=None,
                        help="write the per-rule stats as JSON to FILE "
                             "(CI artifact; implies collecting stats)")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="baseline file of grandfathered findings "
                             f"(default: {baseline_mod.DEFAULT_BASELINE} "
                             "when it exists)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file (every finding is new)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from this run's findings "
                             "and exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def _rule_catalogue() -> str:
    lines = []
    for rule in all_rules():
        scope = "project" if rule.project_scope else "file"
        lines.append(f"{rule.code} [{rule.severity.value}, {scope}] {rule.name}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def _git_lines(args: List[str]) -> List[str]:
    completed = subprocess.run(
        ["git"] + args, capture_output=True, text=True, check=True,
    )
    return [line.strip() for line in completed.stdout.splitlines() if line.strip()]


def _changed_paths(ref: str) -> Set[str]:
    """Real paths of files changed vs *ref*, plus untracked files (a
    brand-new module should lint before its first commit)."""
    top = _git_lines(["rev-parse", "--show-toplevel"])[0]
    names = _git_lines(["diff", "--name-only", ref, "--"])
    names += _git_lines(["ls-files", "--others", "--exclude-standard"])
    return {os.path.realpath(os.path.join(top, name)) for name in names}


def _render_stats_text(stats_payload) -> str:
    lines = [f"codelint stats: {stats_payload['files']} file(s)"]
    rules = stats_payload["rules"]
    width = max((len(code) for code in rules), default=4)
    for code in sorted(rules):
        entry = rules[code]
        lines.append(
            f"  {code:<{width}}  {entry['seconds']*1000:8.1f} ms  "
            f"{entry['findings']} finding(s)"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_rule_catalogue())
        return 0
    if args.no_baseline and (args.baseline or args.write_baseline):
        parser.error("--no-baseline conflicts with --baseline/--write-baseline")

    paths = args.paths or _default_paths()
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")

    run = run_lint(paths)
    findings = run.findings

    if args.changed is not None:
        try:
            changed = _changed_paths(args.changed)
        except (OSError, subprocess.CalledProcessError, IndexError) as exc:
            detail = ""
            if isinstance(exc, subprocess.CalledProcessError):
                detail = (exc.stderr or "").strip() or str(exc)
            else:
                detail = str(exc)
            print(f"codelint: --changed failed: {detail}", file=sys.stderr)
            return 2
        findings = [
            finding for finding in findings
            if os.path.realpath(finding.where) in changed
        ]

    baseline_path = args.baseline or baseline_mod.DEFAULT_BASELINE
    if args.write_baseline:
        counts = baseline_mod.write_baseline(baseline_path, findings)
        print(f"codelint: wrote {sum(counts.values())} finding(s) "
              f"({len(counts)} identities) to {baseline_path}")
        return 0

    grandfathered: List[Finding] = []
    if not args.no_baseline and (args.baseline or os.path.exists(baseline_path)):
        try:
            tolerated = baseline_mod.load_baseline(baseline_path)
        except baseline_mod.BaselineError as exc:
            print(f"codelint: {exc}", file=sys.stderr)
            return 2
        findings, grandfathered = baseline_mod.partition(findings, tolerated)

    stats_payload = run.stats_json()
    report_extra = {
        "baseline": {
            "path": baseline_path if grandfathered else None,
            "grandfathered": len(grandfathered),
        },
        "new": len(findings),
    }
    if args.changed is not None:
        report_extra["changed_vs"] = args.changed
    if args.stats or args.stats_out:
        report_extra["stats"] = stats_payload
    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as handle:
            json.dump(stats_payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(render_json(findings, **report_extra))
            handle.write("\n")
    if args.format == "json":
        print(render_json(findings, **report_extra))
    else:
        if findings:
            print(render_text(findings))
        counts = severity_counts(findings)
        summary = ", ".join(
            f"{count} {severity}" for severity, count in counts.items() if count
        ) or "clean"
        suffix = f" ({len(grandfathered)} baselined)" if grandfathered else ""
        print(f"codelint: {summary}{suffix}")
        if args.stats:
            print(_render_stats_text(stats_payload))
    return 1 if findings else 0
