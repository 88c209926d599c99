"""Zone coverage (RFC 4035 §2.2) over every zone a scan is served from.

A signed zone signs each of its authoritative RRsets with a key from its
DNSKEY set. The check runs on every zone ``World.zone_of`` returns, at
the moment it returns it: fresh builds, bodies reused across days, and
bodies whose HTTPS RRsets were swapped in during the hourly ECH scans.
The scan covers one day of the Jul 21–27 ECH week with its hourly
rescans, then the 2024-01-02 daily scan.
"""

import datetime

import pytest

from repro.scanner import run_campaign
from repro.simnet import SimConfig, World

POPULATION = 2000
ECH_DAY = datetime.date(2023, 7, 21)
SCAN_DAY = datetime.date(2024, 1, 2)

# cf-ns.com is both a measured domain and Cloudflare's NS suffix: World.zone_of
# adds its NS-host A records after build_zone has signed the zone (ROADMAP,
# "Fix the NS-suffix bug", defect (a)). Seed 2 signs it.
NS_SUFFIX = "cf-ns.com."

_SCANS = {}


def uncovered_zones(seed):
    """(apex, date, hour, uncovered RRsets) for each zone_of answer that
    failed the coverage check, plus the number of checks and of signed
    bodies reused with swapped HTTPS RRsets."""
    if seed not in _SCANS:
        world = World(SimConfig(seed=str(seed), population=POPULATION))
        found, seen = [], {"checked": 0, "patched_signed": 0}
        zone_of = world.zone_of

        def checked_zone_of(profile):
            reuses, stored = world.zone_body_reuses, world._zone_bodies.get(profile.index)
            zone = zone_of(profile)
            seen["checked"] += 1
            if (
                zone.signed and stored is not None and world.zone_body_reuses > reuses
                and stored[0] != world._zone_bodies[profile.index][0]
            ):
                seen["patched_signed"] += 1
            uncovered = zone.uncovered_rrsets()
            if uncovered:
                found.append(
                    (zone.apex.to_text(), world.current_date, world.current_hour, uncovered)
                )
            return zone

        world.zone_of = checked_zone_of
        run_campaign(
            world, day_step=1, start=ECH_DAY, end=ECH_DAY, ech_sample=40,
            with_dnssec_snapshot=False,
        )
        run_campaign(
            world, day_step=1, start=SCAN_DAY, end=SCAN_DAY,
            with_ech_hourly=False, with_dnssec_snapshot=False,
        )
        _SCANS[seed] = (found, seen)
    return _SCANS[seed]


@pytest.mark.parametrize("seed", [1, 2])
def test_every_served_zone_is_covered(seed):
    found, seen = uncovered_zones(seed)
    assert seen["checked"] > 10_000
    assert [entry for entry in found if entry[0] != NS_SUFFIX] == []


def test_scan_covers_signed_patched_bodies():
    """The ECH hours really exercise the HTTPS swap on signed bodies, so
    the coverage check above sees its output."""
    assert sum(uncovered_zones(seed)[1]["patched_signed"] for seed in (1, 2)) > 0


@pytest.mark.xfail(
    strict=True,
    reason="NS-suffix defect (a): cf-ns.com's NS-host records are added after "
    "signing (ROADMAP, 'Fix the NS-suffix bug')",
)
def test_ns_suffix_zone_is_covered():
    found, _seen = uncovered_zones(2)
    assert [entry for entry in found if entry[0] == NS_SUFFIX] == []
