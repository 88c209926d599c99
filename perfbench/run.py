"""Benchmark of the measurement study, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload daily --seed 1 --seconds 60 --trace 0

Each repetition runs in fresh processes with a fresh work directory under
``.perfbench_tmp/`` (dataset cache, checkpoint and releases), so the
dataset cache never hits and the repository's own ``.cache/``,
``releases/`` and ``bench_results/`` are never touched. ``REPRO_*``
variables are removed from the children's environment and
``PYTHONHASHSEED`` is pinned. All load comes from one process with
``ExecutionPlan(workers=1)``.

With ``--trace 0`` the run repeats (set-up probe, study) pairs while the
next one fits in ``--seconds`` (at least three pairs) and reports the
medians of the end-to-end metrics:

* ``setup_s`` — ``import repro`` plus ``World(config)``, in its own process;
* ``campaign_s`` — ``Study.run()`` from spec to complete dataset, including
  the dataset-cache write and, for ``collect_wire_loss``, every resumed
  session;
* ``report_s`` — ``Study.release(tag)`` plus ``validate_release(dir)``,
  four cycles per study process, median over all cycles of the run;
* ``peak_rss_mb`` — peak RSS of the study process;
* ``day_success_ratio`` — 1 - error_rate, where error_rate is failed scan
  days over scheduled scan days. A day fails if the run raised before
  finishing it or if its canonical digest differs from the reference.

With ``--trace 1`` the run alternates untraced and traced study processes
and reports the per-layer metrics of :mod:`layers` (medians over the
traced processes) plus ``trace.overhead_ratio``. The traced processes
must reproduce the untraced digests and their counts must reconcile
with ``RunStats``.

The reference digests are pinned in ``reference_digests.json`` for seeds
1 and 2 of every workload. For any other seed every repetition is
checked against the run's first one instead, and the output says so.
The last stdout line is the result object; the line before it holds the
provenance, the per-repetition raw values and the exact ``RunStats``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_tmp")
REFERENCE_FILE = os.path.join(HERE, "reference_digests.json")

# The whole run, children included, ends well inside 180 seconds.
RUN_BUDGET_S = 165.0
MIN_REPS = 3
MIN_TRACE_PAIRS = 2

END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "report_s": "s",
    "peak_rss_mb": "MB",
    "day_success_ratio": "ratio",
}


class BenchError(RuntimeError):
    """A repetition that produced no usable result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, deadline: float, env=None) -> dict:
    """Run ``rep.py`` with *argv*; return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "rep.py")] + argv,
            cwd=ROOT,
            env=child_env() if env is None else env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition timed out after {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(
            f"repetition exited {proc.returncode} without a result: "
            f"{proc.stderr.strip()[-2000:]}"
        ) from None
    return result


def study_rep(args, trace: int, deadline: float) -> dict:
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        return run_child(common_argv(args) + [
            "--phase", "study", "--trace", str(trace), "--workdir", workdir,
        ], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def common_argv(args) -> list:
    argv = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.population is not None:
        argv += ["--population", str(args.population)]
    return argv


def git_commit():
    """HEAD of the checkout's git repository, read from ``.git`` (None
    when the checkout is not a repository)."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def load_reference(args):
    if args.population is not None:
        return None
    with open(REFERENCE_FILE) as handle:
        return json.load(handle).get(f"{args.workload}/{args.seed}")


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running repetition, and through the work-directory cleanup.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import digests
    import layers
    import workloads
    from repro.simnet.snapshot import code_fingerprint

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.names())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--population", type=int, default=None,
        help="override the workload's population (smoke tests); no digest pin applies",
    )
    args = parser.parse_args(argv)

    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    reference = load_reference(args)
    digest_check = (
        "pinned reference digests"
        if reference is not None
        else "no pinned digests for this seed/population: repetitions are "
        "checked against the run's first repetition only"
    )
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace}: {digest_check}")

    untraced, traced, setups, problems = [], [], [], []

    def more(done: int, minimum: int) -> bool:
        """Start another repetition only if it is needed or fits in --seconds."""
        if done < minimum:
            return True
        elapsed = time.monotonic() - started
        return elapsed + elapsed / done <= args.seconds

    try:
        if args.trace:
            while more(len(traced), MIN_TRACE_PAIRS):
                untraced.append(study_rep(args, 0, deadline))
                traced.append(study_rep(args, 1, deadline))
        else:
            while more(len(untraced), MIN_REPS):
                setups.append(
                    run_child(common_argv(args) + ["--phase", "setup"], deadline)
                )
                untraced.append(study_rep(args, 0, deadline))
    except BenchError as exc:
        problems.append(str(exc))
        if not untraced:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1

    # -- correctness -----------------------------------------------------
    scheduled = untraced[0]["scheduled_days"]
    baseline = reference
    attempted = failed = 0
    for index, rep in enumerate(untraced + traced):
        observed = rep.get("digests")
        if "error" in rep:
            problems.append(f"repetition {index} raised:\n{rep['error']}")
        elif not rep.get("release_matches"):
            problems.append(f"repetition {index}: released dataset differs from the run's")
        if baseline is None and observed is not None:
            baseline = observed
        bad = digests.failed_days(scheduled, observed, baseline)
        if bad:
            problems.append(f"repetition {index}: failed days {bad}")
        attempted += len(scheduled)
        failed += len(bad)
    for index, rep in enumerate(traced):
        for error in rep.get("reconcile_errors", ()):
            problems.append(f"traced repetition {index}: {error}")
    if traced:
        counts = [
            {k: v for k, v in rep.get("layers", {}).items() if not k.endswith("_s")}
            for rep in traced
        ]
        if any(c != counts[0] for c in counts):
            problems.append("traced repetitions disagree on their layer counts")
    complete = [rep for rep in untraced if "campaign_s" in rep and "report_s" in rep]
    traced_ok = [rep for rep in traced if "layers" in rep]
    if not complete or (args.trace and not traced_ok):
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 1

    # -- metrics ---------------------------------------------------------
    error_rate = failed / attempted
    values = {
        "setup_s": [s["setup_s"] for s in setups],
        "campaign_s": [r["campaign_s"] for r in complete],
        "report_s": [t for r in complete for t in r["report_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in complete],
    }
    if args.trace:
        metrics = {}
        for name, (unit, _) in layers.PER_LAYER.items():
            if name == "trace.overhead_ratio":
                value = statistics.median(
                    [r["campaign_s"] for r in traced_ok]
                ) / statistics.median(values["campaign_s"])
            else:
                value = statistics.median([r["layers"][name] for r in traced_ok])
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in END_TO_END.items()
            if name != "day_success_ratio"
        }
        metrics["day_success_ratio"] = {"value": 1.0 - error_rate, "unit": "ratio"}

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    print(f"  error_rate {error_rate:.6g} ({failed}/{attempted} scan days failed)")

    details = {
        "provenance": {
            "git_commit": git_commit(),
            "source_fingerprint": code_fingerprint(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "workload": workloads.describe(args.workload, args.seed, args.population),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "digest_check": digest_check,
        },
        "error_rate": error_rate,
        "raw": {
            **values,
            "traced_campaign_s": [r["campaign_s"] for r in traced_ok],
            "sessions": [r.get("sessions") for r in complete],
        },
        "run_stats": complete[0].get("run_stats"),
        "run_stats_identical": all(
            r.get("run_stats") == complete[0].get("run_stats") for r in complete
        ),
        "digests": complete[0].get("digests"),
        "problems": problems,
    }
    if traced_ok:
        details["spans"] = traced_ok[0]["spans"]
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
