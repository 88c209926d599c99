"""Property-based tests (hypothesis) for codec round-trips and core
invariants."""

import string

from hypothesis import given, settings, strategies as st

from repro.dnscore import rdtypes
from repro.dnscore.message import Message, Question
from repro.dnscore.names import Name
from repro.dnscore.rdata import ARdata, HTTPSRdata, rdata_from_wire
from repro.dnscore.rrset import RRset
from repro.dnscore.wire import WireReader, WireWriter
from repro.ech.config import ECHConfig, ECHConfigList
from repro.svcb.params import (
    Alpn,
    Ipv4Hint,
    Ipv6Hint,
    NoDefaultAlpn,
    Port,
    SvcParams,
)

# -- strategies --------------------------------------------------------------

label_st = st.binary(min_size=1, max_size=20).filter(lambda b: b"." not in b and b"\\" not in b)
hostname_label_st = st.text(
    alphabet=string.ascii_lowercase + string.digits + "-", min_size=1, max_size=15
).filter(lambda s: not s.startswith("-"))


@st.composite
def names(draw):
    count = draw(st.integers(min_value=0, max_value=5))
    labels = [draw(label_st) for _ in range(count)]
    return Name(labels + [b""])


@st.composite
def hostnames(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    return Name.from_text(".".join(draw(hostname_label_st) for _ in range(count)) + ".")


ipv4_st = st.builds(
    lambda a, b, c, d: f"{a}.{b}.{c}.{d}",
    *[st.integers(0, 255) for _ in range(4)],
)
alpn_st = st.lists(
    st.text(alphabet=string.ascii_lowercase + string.digits + "/-.", min_size=1, max_size=8),
    min_size=1,
    max_size=4,
)


@st.composite
def svcparams(draw):
    params = []
    if draw(st.booleans()):
        params.append(Alpn(draw(alpn_st)))
        if draw(st.booleans()):
            params.append(NoDefaultAlpn())
    if draw(st.booleans()):
        params.append(Port(draw(st.integers(0, 65535))))
    if draw(st.booleans()):
        params.append(Ipv4Hint(draw(st.lists(ipv4_st, min_size=1, max_size=3))))
    return SvcParams(params)


@st.composite
def https_rdatas(draw):
    priority = draw(st.integers(0, 65535))
    target = draw(hostnames() | st.just(Name.root()))
    params = draw(svcparams()) if priority else SvcParams()
    return HTTPSRdata(priority, target, params)


# -- name properties ----------------------------------------------------------

@given(names())
def test_name_text_round_trip(name):
    assert Name.from_text(name.to_text()) == name


@given(names())
def test_name_wire_round_trip(name):
    writer = WireWriter()
    writer.write_name(name)
    assert WireReader(writer.getvalue()).read_name() == name


@given(names(), names())
def test_name_equality_consistent_with_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)


@given(names(), names())
def test_subdomain_antisymmetry(a, b):
    if a.is_subdomain_of(b) and b.is_subdomain_of(a):
        assert a == b


@given(st.lists(names(), min_size=2, max_size=6))
def test_compression_round_trip_many_names(name_list):
    writer = WireWriter()
    for name in name_list:
        writer.write_name(name)
    reader = WireReader(writer.getvalue())
    for name in name_list:
        assert reader.read_name() == name


# -- name interning (hash-consing) ----------------------------------------------

mixed_label_st = st.text(
    alphabet=string.ascii_letters + string.digits + "-_", min_size=1, max_size=63
).map(str.encode)


@st.composite
def mixed_case_labels(draw):
    """An absolute label tuple within the 63-octet label and 255-octet
    name limits."""
    labels = draw(st.lists(mixed_label_st, max_size=8))
    while sum(len(label) + 1 for label in labels) + 1 > 255:
        labels.pop()
    return tuple(labels) + (b"",)


def _flip_case(labels, mask):
    """*labels* with the case of each letter whose bit in *mask* is set
    flipped (bits counted over the concatenated labels)."""
    out, bit = [], 0
    for label in labels:
        flipped = bytearray(label)
        for i, octet in enumerate(flipped):
            if chr(octet).isalpha() and mask >> bit & 1:
                flipped[i] = octet ^ 0x20
            bit += 1
        out.append(bytes(flipped))
    return tuple(out)


@st.composite
def label_tuple_pairs(draw):
    """Two label tuples: a case variant of each other, or unrelated."""
    a = draw(mixed_case_labels())
    if draw(st.booleans()):
        return a, _flip_case(a, draw(st.integers(min_value=0, max_value=2**255)))
    return a, draw(mixed_case_labels())


def _lower(labels):
    return tuple(label.lower() for label in labels)


@given(mixed_case_labels())
def test_name_is_one_object_per_label_tuple(labels):
    name = Name(labels)
    assert Name(labels) is name
    assert Name(list(labels)) is name
    assert Name.from_text(name.to_text()) is name


@given(label_tuple_pairs())
def test_name_equality_is_lower_case_key_equality(pair):
    a, b = Name(pair[0]), Name(pair[1])
    assert (a == b) == (_lower(pair[0]) == _lower(pair[1]))
    assert (a is b) == (pair[0] == pair[1])  # case is preserved
    if a == b:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


@given(mixed_case_labels())
def test_parent_is_the_interned_parent(labels):
    name = Name(labels)
    if labels == (b"",):
        return
    assert name.parent() is Name(labels[1:])
    assert name.parent() is name.parent()


@given(mixed_case_labels(), mixed_case_labels())
def test_wire_round_trip_returns_the_interned_name(first, second):
    writer = WireWriter()
    writer.write_name(Name(first))
    writer.write_name(Name(second))  # may compress against *first*
    reader = WireReader(writer.getvalue())
    assert reader.read_name() is Name(first)
    assert reader.read_name() is Name(second)


def test_emptied_intern_table_keeps_equality_hash_and_dict_hits(monkeypatch):
    from repro.dnscore import names as names_mod

    # A private two-entry table, emptied when full exactly as the real
    # one is; the module's own table comes back after the test.
    monkeypatch.setattr(names_mod, "_INTERNED", {})
    monkeypatch.setattr(names_mod, "_INTERN_MAX", 2)
    labels = (b"Www", b"Example", b"com", b"")
    before = Name(labels)
    table = {before: "before", before.parent(): "parent"}
    Name((b"filler", b"")), Name((b"more", b""))  # fills and empties the table
    after = Name(labels)
    assert after is not before
    assert after == before and hash(after) == hash(before)
    assert table[after] == "before" and table[after.parent()] == "parent"
    assert {after: 1}[before] == 1
    lower = Name(_lower(labels))
    assert lower == before and hash(lower) == hash(before) and table[lower] == "before"


# -- SvcParams properties -------------------------------------------------------

@given(svcparams())
def test_svcparams_wire_round_trip(params):
    assert SvcParams.from_wire(params.to_wire()) == params


@given(svcparams())
def test_svcparams_text_round_trip(params):
    assert SvcParams.from_text(params.to_text()) == params


@given(svcparams())
def test_svcparams_wire_keys_ascending(params):
    wire = params.to_wire()
    keys = []
    pos = 0
    while pos < len(wire):
        keys.append(int.from_bytes(wire[pos : pos + 2], "big"))
        length = int.from_bytes(wire[pos + 2 : pos + 4], "big")
        pos += 4 + length
    assert keys == sorted(keys)


@given(svcparams())
def test_effective_alpn_always_nonempty(params):
    assert len(params.effective_alpn()) >= 0  # never raises; tuple result
    assert isinstance(params.effective_alpn(), tuple)


# -- HTTPS rdata properties ---------------------------------------------------------

@given(https_rdatas())
def test_https_rdata_wire_round_trip(rdata):
    wire = rdata.wire_bytes()
    parsed = rdata_from_wire(rdtypes.HTTPS, WireReader(wire), len(wire))
    assert parsed == rdata


@given(https_rdatas())
def test_https_rdata_text_round_trip(rdata):
    from repro.dnscore.rdata import rdata_from_text

    assert rdata_from_text(rdtypes.HTTPS, rdata.to_text()) == rdata


@given(https_rdatas())
def test_https_mode_exclusive(rdata):
    assert rdata.is_alias_mode != rdata.is_service_mode


# -- message properties ----------------------------------------------------------------

@given(
    hostnames(),
    st.integers(0, 0xFFFF),
    st.lists(ipv4_st, min_size=1, max_size=4, unique=True),
)
def test_message_round_trip(name, msg_id, addresses):
    msg = Message(msg_id)
    msg.is_response = True
    msg.questions.append(Question(name, rdtypes.A))
    rrset = RRset(name, rdtypes.A, 300, [ARdata(ip) for ip in addresses])
    msg.answers.append(rrset)
    parsed = Message.from_wire(msg.to_wire())
    assert parsed.msg_id == msg_id
    assert parsed.get_answer(name, rdtypes.A) == rrset


@given(st.binary(max_size=64))
def test_message_parser_never_crashes_weirdly(data):
    """Arbitrary bytes either parse or raise a codec error — nothing else."""
    from repro.dnscore.names import NameError_
    from repro.dnscore.rdata import RdataError
    from repro.dnscore.wire import WireError
    from repro.svcb.params import SvcParamError

    try:
        Message.from_wire(data)
    except (WireError, NameError_, RdataError, SvcParamError, ValueError):
        pass


# -- RRset invariants ----------------------------------------------------------------------

@given(st.lists(ipv4_st, min_size=1, max_size=5, unique=True))
def test_rrset_canonical_order_deterministic(addresses):
    name = Name.from_text("x.example.")
    forward = RRset(name, rdtypes.A, 60, [ARdata(ip) for ip in addresses])
    backward = RRset(name, rdtypes.A, 60, [ARdata(ip) for ip in reversed(addresses)])
    assert [r.wire_bytes() for r in forward.canonical_rdata_order()] == [
        r.wire_bytes() for r in backward.canonical_rdata_order()
    ]
    assert forward == backward


@given(st.lists(ipv4_st, min_size=1, max_size=5))
def test_rrset_deduplicates(addresses):
    name = Name.from_text("x.example.")
    rrset = RRset(name, rdtypes.A, 60, [ARdata(ip) for ip in addresses + addresses])
    assert len(rrset) == len(set(addresses))


# -- ECH config properties ----------------------------------------------------------------

@st.composite
def ech_configs(draw):
    config_id = draw(st.integers(0, 255))
    key = draw(st.binary(min_size=16, max_size=48))
    public_name = draw(hostnames()).to_text(omit_final_dot=True)
    return ECHConfig(config_id, key, public_name)


@given(st.lists(ech_configs(), min_size=1, max_size=4))
def test_ech_config_list_round_trip(configs):
    config_list = ECHConfigList(configs)
    assert ECHConfigList.from_wire(config_list.to_wire()) == config_list


@given(st.binary(max_size=80))
def test_ech_parser_total(data):
    from repro.ech.config import try_parse_config_list

    result = try_parse_config_list(data)
    assert result is None or isinstance(result, ECHConfigList)


# -- zone-file properties ------------------------------------------------------------------

@st.composite
def simple_zones(draw):
    from repro.zones.zone import Zone

    apex = draw(hostnames())
    zone = Zone(apex, default_ttl=300)
    zone.ensure_soa()
    zone.add_record(apex.to_text(), "NS", "ns1." + apex.to_text())
    for ip in draw(st.lists(ipv4_st, min_size=1, max_size=3, unique=True)):
        zone.add_record(apex.to_text(), "A", ip)
    if draw(st.booleans()):
        params = draw(svcparams())
        from repro.dnscore.rdata import HTTPSRdata
        from repro.dnscore.rrset import RRset as _RRset

        zone.add_rrset(
            _RRset(apex, rdtypes.HTTPS, 300, [HTTPSRdata(1, Name.root(), params)])
        )
    return zone


@given(simple_zones())
@settings(max_examples=30)
def test_zone_file_round_trip(zone):
    from repro.zones.zonefile import parse_zone_file, serialize_zone

    text = serialize_zone(zone)
    reparsed = parse_zone_file(text)
    assert reparsed.apex == zone.apex
    for rrset in zone.rrsets():
        assert reparsed.get_rrset(rrset.name, rrset.rdtype) == rrset


# -- DNSSEC properties ------------------------------------------------------------------------

@given(hostnames(), st.lists(ipv4_st, min_size=1, max_size=4, unique=True))
@settings(max_examples=25)
def test_sign_verify_round_trip(name, addresses):
    from repro.dnssec.keys import ZoneKey, verify_blob
    from repro.dnssec.signing import sign_rrset, signing_input

    key = ZoneKey.derive(name, "zsk")
    rrset = RRset(name, rdtypes.A, 300, [ARdata(ip) for ip in addresses])
    rrsig = sign_rrset(rrset, name, key, 1000)
    assert verify_blob(key.dnskey, signing_input(rrset, rrsig), rrsig.signature)
    # Tampering with any rdata breaks verification.
    tampered = RRset(name, rdtypes.A, 300, [ARdata("203.0.113.99")])
    assert not verify_blob(key.dnskey, signing_input(tampered, rrsig), rrsig.signature)
