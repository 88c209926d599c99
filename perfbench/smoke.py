"""Smoke tests of the benchmark itself, at tiny populations.

Usage (from the repository root)::

    python3 perfbench/smoke.py

The file is deliberately not named ``test_*.py``: the repository's
pytest run must not collect the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import run

TINY = 60

sys.path.insert(0, run.SRC)
import digests  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def bench(*argv):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py")] + list(argv),
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc


def tiny_rep(workload, env=None, trace=0, python_prefix=None):
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=run.WORK_ROOT)
    argv = [
        "--workload", workload, "--seed", "3", "--population", str(TINY),
        "--phase", "study", "--trace", str(trace), "--workdir", workdir,
    ]
    try:
        if python_prefix is None:
            return run.run_child(argv, time.monotonic() + 170, env=env)
        proc = subprocess.run(
            [sys.executable, "-c", python_prefix, os.path.join(run.HERE, "rep.py")] + argv,
            cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_every_workload_prints_every_metric():
    for workload in workloads.names():
        for trace, expected in ((0, run.END_TO_END), (1, layers.PER_LAYER)):
            proc = bench(
                "--workload", workload, "--seed", "3", "--population", str(TINY),
                "--seconds", "0", "--trace", str(trace),
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], proc.stderr[-2000:]
            assert result["failed"] == 0 and result["attempted"] > 0
            assert set(result["metrics"]) == set(expected), workload
            for name in expected:
                assert name in proc.stdout.split("\n{")[0], name
            assert "no pinned digests" in proc.stdout.splitlines()[0]


def test_dropped_day_yields_error_rate():
    from repro.simnet import timeline

    os.makedirs(run.WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=run.WORK_ROOT)
    try:
        spec = workloads.spec_for("daily", 3, TINY)
        dataset, study, _ = workloads.run_study(spec, workloads.plan_for("daily", workdir))
        study.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    scheduled = [d.isoformat() for d in spec.build_schedule().scan_days]
    reference = digests.dataset_digests(dataset, timeline.date_of)
    assert digests.failed_days(scheduled, reference, reference) == []
    dropped = scheduled[3]
    del dataset.snapshots[dataset.days()[3]]
    observed = digests.dataset_digests(dataset, timeline.date_of)
    for baseline in (reference, None):
        failed = digests.failed_days(scheduled, observed, baseline)
        assert failed == [dropped], failed
        assert len(failed) / len(scheduled) > 0
    assert digests.failed_days(scheduled, None) == scheduled


def test_digests_ignore_hash_seed():
    for workload in workloads.names():
        results = []
        for hash_seed in ("1", "2"):
            env = run.child_env()
            env["PYTHONHASHSEED"] = hash_seed
            results.append(tiny_rep(workload, env=env)["digests"])
        assert results[0] == results[1], workload
    assert results[0]["ech"], "collect_wire_loss produced no hourly ECH rows"


def test_trace_matches_untraced_and_reconciles():
    for workload in workloads.names():
        plain = tiny_rep(workload)
        traced = tiny_rep(workload, trace=1)
        assert traced["digests"] == plain["digests"], workload
        assert traced["run_stats"] == plain["run_stats"], workload
        assert traced["reconcile_errors"] == [], traced["reconcile_errors"]


def test_repro_env_and_network_do_not_matter():
    """REPRO_* variables change nothing, and no socket is ever opened."""
    no_network = (
        "import os, runpy, socket, sys\n"
        "def refuse(*a, **k): raise OSError('network disabled in smoke test')\n"
        "socket.socket = refuse\n"
        "socket.create_connection = refuse\n"
        "sys.argv = sys.argv[1:]\n"
        "sys.path.insert(0, os.path.dirname(sys.argv[0]))\n"
        "runpy.run_path(sys.argv[0], run_name='__main__')\n"
    )
    env = run.child_env()
    env.update(
        REPRO_POPULATION="77", REPRO_SEED="other", REPRO_WORKERS="2",
        REPRO_ANSWER_CACHE="0", REPRO_BATCH="1", REPRO_CONTINUOUS="1", REPRO_GC="pause",
    )
    for workload in workloads.names():
        clean = tiny_rep(workload)
        dirty = tiny_rep(workload, env=env, python_prefix=no_network)
        assert dirty["digests"] == clean["digests"], workload
        assert dirty["run_stats"] == clean["run_stats"], workload


def test_repository_state_untouched_and_not_collected():
    watched = (".cache", "bench_results", ".bench_results", "releases")

    def state():
        out = {}
        for name in watched:
            for dirpath, _, files in os.walk(os.path.join(run.ROOT, name)):
                for filename in files:
                    path = os.path.join(dirpath, filename)
                    out[path] = os.stat(path).st_mtime_ns
        return out

    before = state()
    tiny_rep("collect_wire_loss")
    assert state() == before
    names = os.listdir(run.HERE)
    assert "conftest.py" not in names
    assert not [n for n in names if n.startswith("test_") or n.endswith("_test.py")]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         os.path.relpath(run.HERE, run.ROOT)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 5, proc.stdout[-2000:]  # 5: no tests collected


def test_bare_directory_fails_without_result():
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "daily", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        start = time.monotonic()
        try:
            fn()
        except Exception as exc:  # report every test, then fail the run
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name} ({time.monotonic() - start:.1f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
