"""The resolver's retry path under faults, pinned send for send.

A population-120 wire-mode campaign runs under a schedule of packet
loss on the Cloudflare provider's authoritative server plus one outage
window on Google Domains'. Every ``Network.send_dns_query`` call is
recorded in call order as ``(ip, msg_id, qname, qtype, attempt)``,
before the fabric decides the outcome, so sends that time out or find
the host unreachable are recorded too. The digests of that sequence and
of every authoritative server's ``query_log`` are pinned, together with
the resolvers' fault counters. A change to how the resolver retries,
backs off, moves to the next server or numbers its messages changes one
of them.
"""

import datetime
import hashlib

import pytest

from repro.resolver.network import Network
from repro.scanner import run_campaign
from repro.simnet import SimConfig, World
from repro.simnet.faults import FaultSchedule, FaultSpec
from repro.simnet.providers import PROVIDERS

SCENARIO = FaultSchedule(
    name="retry-sequence",
    specs=(
        FaultSpec(
            kind="packet_loss",
            ip=PROVIDERS["cloudflare"].server_ip,
            rate=0.4,
            start=datetime.date(2023, 7, 14),
            end=datetime.date(2023, 7, 31),
        ),
        FaultSpec(
            kind="server_outage",
            provider="google",
            start=datetime.date(2023, 7, 22),
            end=datetime.date(2023, 7, 23),
        ),
    ),
)
CAMPAIGN_KWARGS = dict(
    day_step=7,
    start=datetime.date(2023, 7, 14),
    end=datetime.date(2023, 7, 31),
    ech_sample=5,
)

SENDS = 11242
SENDS_SHA256 = "1db16cfabb5a68d81be8f52024215a14ad520ea1ab6893433b91031667cef8b7"
QUERY_LOGS_SHA256 = "f0912c57c6a8c8c2131042956ba21d6bd58b434d76fcd26ad5a51053ad870cfe"
# resolver name -> (timeouts, retries, unreachables, backoff_seconds)
COUNTERS = {
    "google-public-dns": (2298, 1988, 32, 1300.5),
    "cloudflare-public-dns": (772, 524, 32, 388.0),
}


def _sha256(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def run_faulted():
    """Run the campaign; return (dataset, sends, query logs, counters)."""
    world = World(SimConfig(population=120, wire_mode=True))
    logs = {}
    for ip, server in sorted(world.network._dns_servers.items()):
        if hasattr(server, "query_log"):
            server.log_queries = True
            logs[ip] = server.query_log
    sends = []
    original = Network.send_dns_query

    def recording(self, ip, query, attempt=0):
        question = query.questions[0]
        sends.append((ip, query.msg_id, question.name.to_text(), question.rdtype, attempt))
        return original(self, ip, query, attempt)

    Network.send_dns_query = recording
    try:
        dataset = run_campaign(world, scenario=SCENARIO, **CAMPAIGN_KWARGS)
    finally:
        Network.send_dns_query = original
    counters = {
        resolver.name: (
            resolver.timeouts,
            resolver.retries,
            resolver.unreachables,
            resolver.backoff_seconds,
        )
        for resolver in (world.google_resolver, world.cloudflare_resolver)
    }
    return dataset, sends, logs, counters


@pytest.fixture(scope="module")
def faulted_run():
    return run_faulted()


def test_schedule_exercises_every_retry_branch(faulted_run):
    dataset, sends, _logs, _counters = faulted_run
    stats = dataset.run_stats
    assert stats.timeouts > 0
    assert stats.retries > 0
    assert stats.unreachables > 0
    # Some query ran out of retries: its last attempt was sent too.
    assert any(attempt == 2 for *_, attempt in sends)


def test_send_sequence_matches_the_pinned_digest(faulted_run):
    _dataset, sends, _logs, _counters = faulted_run
    assert len(sends) == SENDS
    assert _sha256(sends) == SENDS_SHA256


def test_query_logs_match_the_pinned_digest(faulted_run):
    _dataset, _sends, logs, _counters = faulted_run
    assert _sha256(sorted(logs.items())) == QUERY_LOGS_SHA256


def test_resolver_fault_counters_are_pinned(faulted_run):
    _dataset, _sends, _logs, counters = faulted_run
    assert counters == COUNTERS
