"""The zone-body fingerprint is sound and (nearly) exact.

:func:`repro.simnet.domains.zone_body_fingerprint` gates the world's
tier-2 zone-body reuse. Over a population and a spread of dates, each
domain's consecutive zones are compared with the SOA serial, DNSKEY and
RRSIG data left out (a date change always rewrites those):

* soundness — equal fingerprints must give equal bodies, or a reused
  zone would serve stale content;
* exactness — unequal fingerprints that still give equal bodies are
  needless rebuilds. The coarse date-flag fingerprint this one replaced
  had 1939 (seed 1) and 1965 (seed 2) of the 10,400 pairs; at most a
  tenth of that is allowed.
"""

import datetime

import pytest

from repro.dnscore import rdtypes
from repro.ech.keys import ECHKeyManager
from repro.simnet import SimConfig, domains, timeline
from repro.simnet.cohorts import make_profile
from repro.simnet.world import ECH_PUBLIC_NAME

DATES = [timeline.STUDY_START + datetime.timedelta(days=d) for d in range(0, 300, 23)]
COARSE_FINGERPRINT_REBUILDS = {"1": 1939, "2": 1965}
DATE_REWRITTEN = (rdtypes.SOA, rdtypes.DNSKEY, rdtypes.RRSIG)


def body(zone):
    return sorted(
        (rr.name.to_text(), rr.rdtype, rr.ttl, tuple(sorted(r.wire_bytes() for r in rr.rdatas)))
        for rr in zone.rrsets()
        if rr.rdtype not in DATE_REWRITTEN
    )


@pytest.mark.parametrize("seed", sorted(COARSE_FINGERPRINT_REBUILDS))
def test_fingerprint_sound_and_exact(seed):
    config = SimConfig(seed=seed, population=800)
    ech = ECHKeyManager(
        ECH_PUBLIC_NAME, seed=config.seed.encode(), rotation_hours=config.ech_rotation_hours
    )
    wires = [ech.published_wire(timeline.day_index(date) * 24) for date in DATES]
    pairs = unsound = needless = 0
    for index in range(config.population):
        profile = make_profile(config, index)
        previous = None
        for date, wire in zip(DATES, wires):
            current = (
                domains.zone_body_fingerprint(profile, config, date, wire),
                body(domains.build_zone(profile, config, date, wire)),
            )
            if previous is not None:
                pairs += 1
                same_fingerprint = current[0] == previous[0]
                same_body = current[1] == previous[1]
                unsound += same_fingerprint and not same_body
                needless += same_body and not same_fingerprint
            previous = current
    assert pairs == 10_400
    assert unsound == 0
    assert needless <= COARSE_FINGERPRINT_REBUILDS[seed] // 10
