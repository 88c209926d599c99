"""Property-based tests (hypothesis) for codec round-trips and core
invariants."""

import datetime
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


# -- parsed-address memo ---------------------------------------------------------------------

ipv6_packed_st = st.binary(min_size=16, max_size=16)


@given(st.lists(ipv4_st, min_size=1, max_size=4), st.lists(ipv6_packed_st, min_size=1, max_size=4))
@settings(max_examples=40)
def test_address_memo_gives_exactly_what_ipaddress_gives(v4_texts, v6_packed):
    import ipaddress

    from repro.dnscore.rdata import AAAARdata
    from repro.svcb.params import ipv4_packed, ipv4_text, ipv6_address

    for text in v4_texts:
        address = ipaddress.IPv4Address(text)
        for _ in range(2):  # parsed, then from the memo
            assert ipv4_text(text) == str(address)
        assert ipv4_packed(ipv4_text(text)) == address.packed
        assert ARdata(text).address == str(address)
    v6_texts = [str(ipaddress.IPv6Address(packed)).upper() for packed in v6_packed]
    for packed, text in zip(v6_packed, v6_texts):
        address = ipaddress.IPv6Address(packed)
        for value in (packed, text, packed, text):
            assert ipv6_address(value) == (str(address), address.packed)
        rdata = AAAARdata(text)
        assert rdata.address == str(address)
        assert rdata.wire_bytes() == address.packed
    scoped = ipaddress.IPv6Address("FE80::1%eth0")
    assert ipv6_address("FE80::1%eth0") == (str(scoped), scoped.packed)
    hint = Ipv6Hint(v6_texts)
    assert hint.addresses == tuple(str(ipaddress.IPv6Address(p)) for p in v6_packed)
    assert Ipv6Hint.from_wire_value(hint.to_wire_value()).addresses == hint.addresses
    assert Ipv4Hint(v4_texts).to_wire_value() == b"".join(
        ipaddress.IPv4Address(t).packed for t in v4_texts
    )


def test_address_memo_rejects_what_ipaddress_rejects(monkeypatch):
    import ipaddress

    import pytest

    from repro.svcb import params

    for bad in ("1.2.3", "256.1.1.1", "01.2.3.4", "::g", b"\x00" * 3):
        with pytest.raises(ipaddress.AddressValueError):
            (params.ipv6_address if "::" in str(bad) else params.ipv4_text)(bad)
    # A full memo is emptied, never overfilled.
    monkeypatch.setattr(params, "_ADDRESS_MEMO_MAX", 2)
    monkeypatch.setattr(params, "_IPV4_MEMO", {})
    for text in ("10.0.0.1", "10.0.0.2", "10.0.0.3"):
        assert params.ipv4_text(text) == text
    assert len(params._IPV4_MEMO) == 1


# -- tier-2 zone-body reuse ------------------------------------------------------------------

# Dates where a zone's inputs move: the h3-29 retirement, the ECH week,
# the day Cloudflare disables ECH, the DNSSEC snapshot, Google QUIC.
_REUSE_DATES = sorted({
    datetime.date(2023, 5, 30), datetime.date(2023, 5, 31), datetime.date(2023, 7, 20),
    datetime.date(2023, 7, 21), datetime.date(2023, 7, 22), datetime.date(2023, 10, 4),
    datetime.date(2023, 10, 5), datetime.date(2024, 1, 2), datetime.date(2024, 2, 11),
})


@st.composite
def zone_instants(draw):
    """Two (date, hour) instants, the second later; half share a day, so
    the ECH key generation may change between them."""
    first = draw(st.integers(0, len(_REUSE_DATES) - 1))
    d1, h1 = _REUSE_DATES[first], draw(st.integers(0, 22))
    if first == len(_REUSE_DATES) - 1 or draw(st.booleans()):
        return (d1, h1), (d1, draw(st.integers(h1 + 1, 23)))
    return (d1, h1), (draw(st.sampled_from(_REUSE_DATES[first + 1:])), draw(st.integers(0, 23)))


def zone_key(zone):
    """Every RRset of *zone* with the wire bytes of its RRSIGs."""
    return sorted(
        (rr.name.to_text(), rr.rdtype, rr.ttl,
         tuple(sorted(r.wire_bytes() for r in rr.rdatas)),
         tuple(sorted(s.wire_bytes() for s in zone.get_rrsigs(rr.name, rr.rdtype))))
        for rr in zone.rrsets()
    )


def reuse_adopters(world):
    return [p for p in world.profiles if p.adopter and p.name != "cf-ns.com"]


def reused_zone_equals_fresh_build(seed, population, adopter, instants):
    """Build an adopter's zone at the first instant, ask again at the
    second, and compare with a fresh world's build at the second.
    Returns whether the reuse swapped HTTPS RRsets into the stored body.

    cf-ns.com is left out: it doubles as an NS suffix, and a reused body
    of it signs the NS-host records a fresh build leaves unsigned
    (ROADMAP, "Fix the NS-suffix bug")."""
    from repro.simnet import SimConfig, World, domains

    config = SimConfig(seed=str(seed), population=population)
    (d1, h1), (d2, h2) = instants
    warm = World(config)
    adopters = reuse_adopters(warm)
    profile = adopters[adopter % len(adopters)]
    warm.set_time(d1, h1)
    warm.zone_of(profile)
    stored, stamp = warm._zone_bodies[profile.index][0], warm._zone_cache_stamp
    warm.set_time(d2, h2)
    zone = warm.zone_of(profile)
    current = warm._zone_bodies[profile.index][0]
    fresh = World(config)
    fresh.set_time(d2, h2)
    rebuilt = fresh.zone_of(profile)
    assert zone_key(zone) == zone_key(rebuilt)
    assert zone.soa[0].serial == rebuilt.soa[0].serial
    assert zone.uncovered_rrsets() == rebuilt.uncovered_rrsets() == []
    patch = stored != current and domains.https_only_change(stored, current)
    if warm._zone_cache_stamp == stamp:  # same day and key generation
        assert (warm.zone_builds, warm.zone_body_reuses) == (1, 0)
    elif patch or stored == current:
        assert (warm.zone_builds, warm.zone_body_reuses) == (1, 1)
    else:
        assert (warm.zone_builds, warm.zone_body_reuses) == (2, 0)
    return patch


@given(
    st.sampled_from([1, 2]),
    st.integers(60, 300),
    st.integers(0, 9_999),
    zone_instants(),
)
@settings(max_examples=30, deadline=None)
def test_reused_zone_equals_a_fresh_build(seed, population, adopter, instants):
    reused_zone_equals_fresh_build(seed, population, adopter, instants)


def test_same_day_ech_rotation_patches_a_signed_body():
    """The patch path runs on a signed body: at seed 1, population 300,
    lumen-willow-00058.com is signed and publishes ECH, and the key
    generation changes between 00:00 and 05:00 on Jul 21."""
    from repro.simnet import SimConfig, World, domains

    day = datetime.date(2023, 7, 21)
    config = SimConfig(seed="1", population=300)
    adopters = reuse_adopters(World(config))
    index = [p.name for p in adopters].index("lumen-willow-00058.com")
    assert domains.dnssec_active(adopters[index], config, day)
    assert reused_zone_equals_fresh_build(1, 300, index, ((day, 0), (day, 5)))
