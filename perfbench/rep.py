"""One repetition of a workload, in its own fresh process.

``--phase setup`` times ``import repro`` plus ``World(config)`` and
exits. ``--phase study`` runs the study from spec to complete dataset
(``campaign_s``), cuts and validates four releases (``report_s``, one
time per release), digests the dataset, and — with ``--trace 1`` —
records the per-layer spans. The process prints one JSON object on its
last stdout line.

Run by ``run.py``; by hand::

    PYTHONPATH=src python3 perfbench/rep.py --workload daily --seed 1 \
        --phase study --trace 0 --workdir .perfbench_tmp/x
"""

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
import traceback

REPORTS = 4


def _setup(args) -> dict:
    start = time.perf_counter()
    import repro.study  # noqa: F401  (the import being timed)
    from repro.simnet import World

    import workloads

    World(workloads.config_for(args.workload, args.seed, args.population))
    return {"setup_s": time.perf_counter() - start}


def _study(args) -> dict:
    recorder = None
    if args.trace:
        import layers

        recorder = layers.install()
    import repro.study as study_module
    from repro.scanner.dataset import Dataset
    from repro.simnet import timeline

    import digests
    import workloads

    spec = workloads.spec_for(args.workload, args.seed, args.population)
    plan = workloads.plan_for(args.workload, args.workdir)
    scheduled = [d.isoformat() for d in spec.build_schedule().scan_days]
    out = {"scheduled_days": scheduled}

    before = recorder.tallies() if recorder is not None else None
    start = time.perf_counter()
    try:
        dataset, study, sessions = workloads.run_study(spec, plan)
    except Exception:
        out["error"] = traceback.format_exc()
        return out
    out["campaign_s"] = time.perf_counter() - start
    out["sessions"] = sessions
    after = recorder.tallies() if recorder is not None else None

    # REPORTS release + validate cycles of the same dataset: one cycle
    # takes 0.05-0.2 s, too short to time once.
    report_times = []
    try:
        with study:
            for index in range(REPORTS):
                start = time.perf_counter()
                directory = study.release(f"perfbench-{index}")
                study_module.validate_release(directory)
                report_times.append(time.perf_counter() - start)
    except Exception:
        out["error"] = traceback.format_exc()
        return out
    out["report_s"] = report_times
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stats = dataset.run_stats
    out["run_stats"] = {} if stats is None else dataclasses.asdict(stats)
    if recorder is not None:
        # Read before the checks below, whose loads are not the program's.
        delta = {name: after.get(name, 0) - before.get(name, 0) for name in after}
        out["layers"] = layers.layer_metrics(recorder, out["run_stats"])
        out["reconcile_errors"] = layers.reconcile(delta, recorder, out["run_stats"])
        out["spans"] = recorder.dump()

    out["digests"] = digests.dataset_digests(dataset, timeline.date_of)
    released = Dataset.load(os.path.join(directory, "dataset.pkl.gz"))
    out["release_matches"] = (
        digests.dataset_digests(released, timeline.date_of) == out["digests"]
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--population", type=int, default=None)
    parser.add_argument("--phase", choices=("setup", "study"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args(argv)
    if args.phase == "study" and not args.workdir:
        parser.error("--phase study needs --workdir")
    result = _setup(args) if args.phase == "setup" else _study(args)
    print(json.dumps(result, sort_keys=True))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
