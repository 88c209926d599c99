"""The wire codec against every message a small wire-mode campaign sends.

The corpus is each ``Message.to_wire`` output of a population-60
wire-mode campaign, in call order. The campaign's world is disarmed
(``World.set_answer_cache(False)``), so the corpus does not shrink when the cache serves more
answers from stored bytes; it holds every message the cache-on run
encodes. Its digest is pinned: the codec must keep every encoding byte
for byte. Every message must also decode and re-encode to itself, and
seeded corruptions of it (truncations, byte flips, bit flips) must
either decode or raise one of the codec's typed errors.
"""

import hashlib
import random

import pytest

from repro.dnscore.message import Message
from repro.dnscore.names import NameError_
from repro.dnscore.rdata import RdataError
from repro.dnscore.wire import WireError
from repro.scanner import run_campaign
from repro.simnet import SimConfig, World
from repro.svcb.params import SvcParamError

CORPUS_MESSAGES = 10532
CORPUS_SHA256 = "30c22055f5cba7a6e539b2d2bc6cba085fd3ddf86a0c6aadf0b130b0ae807bc3"
TYPED_ERRORS = (WireError, NameError_, RdataError, SvcParamError)


@pytest.fixture(scope="module")
def corpus():
    encoded = []
    original = Message.to_wire

    def recording(message):
        wire = original(message)
        encoded.append(wire)
        return wire

    world = World(SimConfig(population=60, wire_mode=True))
    world.set_answer_cache(False)
    Message.to_wire = recording
    try:
        run_campaign(world, day_step=180, ech_sample=3)
    finally:
        Message.to_wire = original
    return encoded


def test_encodings_match_the_pinned_digest(corpus):
    assert len(corpus) == CORPUS_MESSAGES
    assert hashlib.sha256(b"".join(corpus)).hexdigest() == CORPUS_SHA256


def test_every_message_round_trips(corpus):
    mismatched = [i for i, wire in enumerate(corpus) if Message.from_wire(wire).to_wire() != wire]
    assert mismatched == []


def _mutations(wire: bytes, rng: random.Random):
    yield wire[: rng.randrange(len(wire))]
    flipped = bytearray(wire)
    flipped[rng.randrange(len(wire))] = rng.randrange(256)
    yield bytes(flipped)
    flipped = bytearray(wire)
    flipped[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
    yield bytes(flipped)


def test_corrupted_messages_raise_only_typed_errors(corpus):
    rng = random.Random(20240101)
    decoded = rejected = 0
    for wire in corpus:
        for _ in range(3):
            for mutant in _mutations(wire, rng):
                try:
                    Message.from_wire(mutant)
                except TYPED_ERRORS:
                    rejected += 1
                else:
                    decoded += 1
    assert decoded and rejected
