"""The benchmark's workloads: one StudySpec + ExecutionPlan each.

Every workload runs through the public front door (``repro.study.Study``)
with an explicit ``SimConfig(seed=...)`` and an explicit
``ExecutionPlan(workers=1)``; nothing is read from ``REPRO_*`` variables
(no ``from_env``). All of a run's on-disk state (dataset cache,
checkpoint, releases) lives under a fresh work directory, so the dataset
cache never hits and the repository's ``.cache/`` and ``releases/`` are
never touched.

``repro`` is imported inside the functions, not at module level, so the
set-up probe can time ``import repro`` itself.
"""

from __future__ import annotations

import dataclasses
import datetime
import os

# Population of each workload at benchmark scale, sized so that one
# campaign takes 3-5 s on a 2-core host and a 60-second run repeats it
# about ten times. Both trade scan days for domains: at 1000 domains
# every 70 days the seed-to-seed spread of daily's work (queries + zone
# builds) is 0.9% (cv over 8 seeds), against 3% at 400 domains every 28.
POPULATION = {"daily": 1000, "collect_wire_loss": 250}
# 70 days keeps one scan day in every collection window: SOA/NS from
# Aug 16, NS-IP from Oct 11, connectivity from Jan 24, and the Jan 2
# DNSSEC snapshot.
DAY_STEP = 70

# Hourly-ECH targets per day of the Jul 21-27 rescan week. Fixed rather
# than "every ECH apex": the ECH apex count of a 250-domain world varies
# by about 16% (sd) from seed to seed (mean 27, lowest 17 over 40 seeds),
# and the campaign time with it; every seed has at least 10.
ECH_SAMPLE = 10

WHY = {
    "daily": (
        "the paper's longitudinal loop in object mode: zone synthesis, validating "
        "resolution, cross-day answer reuse, NS-IP scans, probes; no codec or faults"
    ),
    "collect_wire_loss": (
        "wire codec, timeouts and retries under packet loss, a Study session per "
        "checkpointed increment, and the hourly ECH week's zone rebuilds"
    ),
}

LOSS_WINDOW = (datetime.date(2023, 9, 1), datetime.date(2024, 1, 31))
LOSS_RATE = 0.2


def names():
    return tuple(POPULATION)


def config_for(workload: str, seed: int, population=None):
    """The workload's world config for *seed* (explicit; never from_env)."""
    from repro.simnet import SimConfig

    if workload not in POPULATION:
        raise ValueError(f"unknown workload {workload!r}")
    return SimConfig(
        population=population or POPULATION[workload],
        seed=str(seed),
        wire_mode=workload == "collect_wire_loss",
    )


def spec_for(workload: str, seed: int, population=None):
    from repro.simnet.faults import FaultSchedule, FaultSpec
    from repro.simnet.providers import PROVIDERS
    from repro.study import StudySpec

    config = config_for(workload, seed, population)
    if workload == "daily":
        return StudySpec(config, day_step=DAY_STEP, with_ech_hourly=False)
    # A provider's server address, not a domain, so the spec is valid for
    # any seed's population.
    loss = FaultSpec(
        kind="packet_loss",
        start=LOSS_WINDOW[0],
        end=LOSS_WINDOW[1],
        ip=PROVIDERS["cloudflare"].server_ip,
        rate=LOSS_RATE,
    )
    return StudySpec(
        config,
        day_step=DAY_STEP,
        ech_sample=ECH_SAMPLE,
        scenario=FaultSchedule(name="cloudflare-loss", specs=(loss,)),
    )


def plan_for(workload: str, workdir: str):
    from repro.study import ExecutionPlan

    common = dict(
        workers=1,
        cache_dir=os.path.join(workdir, "cache"),
        release_dir=os.path.join(workdir, "releases"),
    )
    if workload == "collect_wire_loss":
        # max_increments=1: every Study session runs one increment and is
        # interrupted; the next session resumes from the checkpoint.
        return ExecutionPlan(
            continuous=True,
            checkpoint_dir=os.path.join(workdir, "checkpoint"),
            days_per_increment=2,
            max_increments=1,
            **common,
        )
    return ExecutionPlan(**common)


def run_study(spec, plan):
    """Run the study to a complete dataset; returns (dataset, study, sessions).

    The returned study is still open (the caller releases from it and
    closes it). A continuous plan runs one ``Study`` session per
    increment until the collection completes."""
    from repro.scanner.collector import CollectionInterrupted
    from repro.study import Study

    sessions = 0
    while True:
        sessions += 1
        study = Study(spec, plan)
        try:
            return study.run(), study, sessions
        except CollectionInterrupted:
            study.close()
        except BaseException:
            study.close()
            raise


def describe(workload: str, seed: int, population=None) -> dict:
    """The full workload spec for provenance: SimConfig fields, the
    resolved schedule, the plan, and the scenario's canonical tag."""
    spec = spec_for(workload, seed, population)
    plan = plan_for(workload, "<workdir>")
    schedule = spec.build_schedule()
    return {
        "workload": workload,
        "seed": seed,
        "config": dataclasses.asdict(spec.config),
        "day_step": spec.day_step,
        "schedule_overrides": {
            key: value.isoformat() if isinstance(value, datetime.date) else value
            for key, value in spec.schedule_overrides().items()
        },
        "schedule": {
            "scan_days": [d.isoformat() for d in schedule.scan_days],
            "ech_days": [d.isoformat() for d in schedule.ech_days],
            "ech_sample": schedule.ech_sample,
            "dnssec_threshold": (
                None
                if schedule.dnssec_threshold is None
                else schedule.dnssec_threshold.isoformat()
            ),
        },
        "scenario": None if spec.scenario is None else spec.scenario.canonical_tag(),
        "plan": {
            key: value
            for key, value in dataclasses.asdict(plan).items()
            if key not in ("cache_dir", "release_dir", "checkpoint_dir")
        },
    }
