"""Regenerate ``reference_digests.json``: the canonical dataset digests of
every workload at benchmark scale for the pinned seeds.

Usage (from the repository root)::

    python3 perfbench/pin.py

Re-pin only when a change is meant to alter the datasets; a benchmark run
against stale pins counts every differing scan day as failed.
"""

import argparse
import json
import sys
import time

import run

PINNED_SEEDS = (1, 2)


def main() -> int:
    sys.path.insert(0, run.SRC)
    import workloads

    pins = {}
    for workload in workloads.names():
        for seed in PINNED_SEEDS:
            args = argparse.Namespace(workload=workload, seed=seed, population=None)
            result = run.study_rep(args, 0, time.monotonic() + 600)
            if "error" in result:
                print(result["error"], file=sys.stderr)
                return 1
            pins[f"{workload}/{seed}"] = result["digests"]
            print(f"pinned {workload}/{seed}: {len(result['digests']['days'])} days")
    with open(run.REFERENCE_FILE, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
