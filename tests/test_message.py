"""Unit tests for DNS message model and codec."""

import pytest

from repro.dnscore import rdtypes
from repro.dnscore.message import FLAG_AD, Message, Question
from repro.dnscore.names import Name
from repro.dnscore.rdata import GenericRdata
from repro.dnscore.rrset import RRset
from repro.dnscore.wire import WireError, WireWriter


def make_answer_message():
    msg = Message(0x1234)
    msg.is_response = True
    msg.authoritative = True
    msg.questions.append(Question(Name.from_text("a.com."), rdtypes.HTTPS))
    msg.answers.append(RRset.from_text("a.com.", 300, "HTTPS", "1 . alpn=h2,h3"))
    msg.answers.append(RRset.from_text("a.com.", 300, "A", "1.2.3.4"))
    msg.authority.append(RRset.from_text("a.com.", 300, "NS", "ns1.a.com."))
    msg.additional.append(RRset.from_text("ns1.a.com.", 300, "A", "9.9.9.9"))
    return msg


class TestFlags:
    def test_default_flags(self):
        msg = Message()
        assert not msg.is_response
        assert not msg.authenticated_data

    def test_flag_setters(self):
        msg = Message()
        msg.is_response = True
        msg.recursion_desired = True
        msg.recursion_available = True
        msg.authenticated_data = True
        msg.checking_disabled = True
        msg.truncated = True
        msg.authoritative = True
        for attr in (
            "is_response",
            "recursion_desired",
            "recursion_available",
            "authenticated_data",
            "checking_disabled",
            "truncated",
            "authoritative",
        ):
            assert getattr(msg, attr)

    def test_flag_clearing(self):
        msg = Message()
        msg.authenticated_data = True
        msg.authenticated_data = False
        assert not msg.authenticated_data

    def test_make_query(self):
        query = Message.make_query("a.com.", rdtypes.HTTPS, 7)
        assert query.recursion_desired
        assert query.questions[0].rdtype == rdtypes.HTTPS
        assert query.msg_id == 7

    def test_make_response_copies_question(self):
        query = Message.make_query("a.com.", rdtypes.A, 9)
        response = query.make_response()
        assert response.is_response
        assert response.msg_id == 9
        assert response.questions == query.questions


class TestWireRoundTrip:
    def test_full_message(self):
        msg = make_answer_message()
        parsed = Message.from_wire(msg.to_wire())
        assert parsed.msg_id == 0x1234
        assert parsed.is_response
        assert parsed.authoritative
        assert parsed.get_answer("a.com.", rdtypes.HTTPS) is not None
        assert parsed.get_answer("a.com.", rdtypes.A) is not None
        assert len(parsed.authority) == 1
        assert len(parsed.additional) == 1

    def test_ad_bit_round_trip(self):
        msg = make_answer_message()
        msg.authenticated_data = True
        parsed = Message.from_wire(msg.to_wire())
        assert parsed.authenticated_data
        assert parsed.flags & FLAG_AD

    def test_rcode_round_trip(self):
        msg = Message(1)
        msg.is_response = True
        msg.rcode = rdtypes.NXDOMAIN
        assert Message.from_wire(msg.to_wire()).rcode == rdtypes.NXDOMAIN

    def test_query_round_trip(self):
        query = Message.make_query("www.example.com.", rdtypes.AAAA, 55)
        parsed = Message.from_wire(query.to_wire())
        assert not parsed.is_response
        assert parsed.questions[0].name == Name.from_text("www.example.com.")
        assert parsed.questions[0].rdtype == rdtypes.AAAA

    def test_rrset_grouping_on_parse(self):
        msg = Message(1)
        msg.is_response = True
        rrset = RRset.from_text("a.com.", 300, "A", "1.1.1.1", "2.2.2.2")
        msg.answers.append(rrset)
        parsed = Message.from_wire(msg.to_wire())
        assert len(parsed.answers) == 1
        assert len(parsed.answers[0]) == 2

    def test_rrsets_split_by_ttl_keep_their_structure(self):
        # Regression: decoding grouped a record only with the first RRset
        # of its (owner, type), so a TTL mismatch there started a new
        # RRset per record and the two TTL-60 records came back apart.
        msg = Message(1)
        msg.is_response = True
        msg.answers.append(RRset.from_text("a.com.", 300, "A", "1.1.1.1"))
        msg.answers.append(RRset.from_text("a.com.", 60, "A", "2.2.2.2", "3.3.3.3"))
        wire = msg.to_wire()
        parsed = Message.from_wire(wire)
        assert [(r.ttl, [rd.to_text() for rd in r]) for r in parsed.answers] == [
            (300, ["1.1.1.1"]),
            (60, ["2.2.2.2", "3.3.3.3"]),
        ]
        assert parsed.to_wire() == wire

    def test_compression_shrinks_message(self):
        msg = make_answer_message()
        wire = msg.to_wire()
        # Rough sanity: names repeat 5 times; compression must beat naive
        # encoding by a wide margin.
        naive = sum(len(n) for n in [b"\x01a\x03com\x00"] * 5)
        assert len(wire) < 120 + naive

    def test_truncated_header(self):
        with pytest.raises(WireError):
            Message.from_wire(b"\x00\x01")


def reference_to_wire(msg):
    """Field-at-a-time encoding, every rdata through its own
    ``to_wire(writer)``: the reference the struct-packed codec must match
    byte for byte."""
    writer = WireWriter()
    sections = (msg.answers, msg.authority, msg.additional)
    flags = (msg.flags & 0xFFB0) | ((msg.opcode & 0xF) << 11) | (msg.rcode & 0xF)
    counts = [sum(len(rrset) for rrset in section) for section in sections]
    counts[2] += msg.use_edns
    for value in (msg.msg_id, flags, len(msg.questions), *counts):
        writer.write_u16(value)
    for question in msg.questions:
        writer.write_name(question.name)
        writer.write_u16(question.rdtype)
        writer.write_u16(question.rdclass)
    for section in sections:
        for rrset in section:
            for rdata in rrset:
                writer.write_name(rrset.name)
                writer.write_u16(rrset.rdtype)
                writer.write_u16(rrset.rdclass)
                writer.write_u32(rrset.ttl)
                offset = writer.reserve_u16()
                before = len(writer)
                rdata.to_wire(writer)
                writer.patch_u16(offset, len(writer) - before)
    if msg.use_edns:
        writer.write_name(Name.root())
        for value in (rdtypes.OPT, msg.edns_payload_size):
            writer.write_u16(value)
        writer.write_u32(0x8000 if msg.dnssec_ok else 0)
        writer.write_u16(0)
    return writer.getvalue()


class TestEncodingMatchesReference:
    def test_every_rdata_type(self):
        # Uncompressed RRSIG signers and SVCB/HTTPS targets come before the
        # names that compress against them.
        msg = Message(0xBEEF)
        msg.is_response = True
        msg.authenticated_data = True
        msg.use_edns = msg.dnssec_ok = True
        msg.questions.append(Question(Name.from_text("www.Example.com."), rdtypes.HTTPS))
        msg.answers.append(RRset.from_text("www.example.com.", 300, "HTTPS", '1 cdn.example.net. alpn=h2,h3 ipv4hint=192.0.2.1 ipv6hint=2001:db8::1'))
        msg.answers.append(RRset.from_text("www.example.com.", 300, "RRSIG", "HTTPS 13 3 300 2 1 7 sig.example.org. c2ln"))
        msg.answers.append(RRset.from_text("www.example.com.", 300, "SVCB", "0 alias.svc.example.net."))
        msg.answers.append(RRset.from_text("www.example.com.", 60, "CNAME", "x.svc.example.net."))
        msg.authority.append(RRset.from_text("example.com.", 300, "NS", "ns1.sig.example.org.", "NS2.example.com."))
        msg.authority.append(RRset.from_text("example.com.", 300, "SOA", "ns1.example.com. host.sig.example.org. 7 1 2 3 4"))
        msg.authority.append(RRset.from_text("example.com.", 300, "DS", "7 13 2 ABCD"))
        msg.additional.append(RRset.from_text("ns1.sig.example.org.", 300, "A", "192.0.2.53", "192.0.2.54"))
        msg.additional.append(RRset.from_text("ns1.sig.example.org.", 300, "AAAA", "2001:db8::53"))
        msg.additional.append(RRset.from_text("example.com.", 300, "TXT", '"v=1" "two"'))
        msg.additional.append(RRset.from_text("example.com.", 300, "DNSKEY", "257 3 13 a2V5"))
        msg.additional.append(RRset("example.com.", 99, 300, [GenericRdata(99, b"opaque")]))
        wire = msg.to_wire()
        assert wire == reference_to_wire(msg)
        assert Message.from_wire(wire).to_wire() == wire


class TestSectionHelpers:
    def test_get_answer_missing(self):
        msg = make_answer_message()
        assert msg.get_answer("b.com.", rdtypes.A) is None

    def test_answer_rrsets_of_type(self):
        msg = make_answer_message()
        assert len(msg.answer_rrsets_of_type(rdtypes.A)) == 1

    def test_question_equality(self):
        q1 = Question(Name.from_text("a.com."), rdtypes.A)
        q2 = Question(Name.from_text("A.COM."), rdtypes.A)
        assert q1 == q2
        assert hash(q1) == hash(q2)
