"""Unit tests for DNSSEC keys, signing, and chain validation."""

import pytest

from repro.dnscore import rdtypes
from repro.dnscore.names import Name
from repro.dnscore.rrset import RRset
from repro.dnssec.keys import ZoneKey, ZoneKeySet, ds_matches_dnskey
from repro.dnssec.signing import rrsig_is_timely, sign_rrset, signing_input
from repro.dnssec.validation import ChainValidator, ValidationState
from repro.zones.tree import ZoneTree
from repro.zones.zone import Zone

NOW = 1_000_000


def build_tree(sign_child=True, upload_ds=True, corrupt=False):
    """root → com → example.com with controllable breakage."""
    root = Zone(Name.root())
    root.ensure_soa(Name.from_text("a.root."))
    root.delegate(Name.from_text("com."), [Name.from_text("ns.tld.")])
    com = Zone(Name.from_text("com."))
    com.ensure_soa(Name.from_text("ns.tld."))
    com.delegate(Name.from_text("example.com."), [Name.from_text("ns1.example.com.")])
    example = Zone(Name.from_text("example.com."))
    example.ensure_soa(Name.from_text("ns1.example.com."))
    example.add_record("example.com.", "HTTPS", "1 . alpn=h2")
    example.add_record("example.com.", "A", "10.0.0.9")

    if sign_child:
        example.sign(NOW)
    com.sign(NOW)
    root.sign(NOW)

    tree = ZoneTree()
    for zone in (root, com, example):
        tree.add_zone(zone)
    tree.upload_ds(Name.from_text("com."), NOW)
    if sign_child and upload_ds:
        tree.upload_ds(Name.from_text("example.com."), NOW)
    if corrupt and sign_child:
        example.corrupt_signature(Name.from_text("example.com."), rdtypes.HTTPS)
    return tree


class TestKeys:
    def test_derive_deterministic(self):
        a = ZoneKey.derive(Name.from_text("a.com."), "zsk")
        b = ZoneKey.derive(Name.from_text("a.com."), "zsk")
        assert a.public_key == b.public_key
        assert a.key_tag == b.key_tag

    def test_ksk_zsk_differ(self):
        keyset = ZoneKeySet(Name.from_text("a.com."))
        assert keyset.ksk.public_key != keyset.zsk.public_key
        assert keyset.ksk.is_ksk and not keyset.zsk.is_ksk

    def test_generation_changes_key(self):
        a = ZoneKey.derive(Name.from_text("a.com."), "zsk", 0)
        b = ZoneKey.derive(Name.from_text("a.com."), "zsk", 1)
        assert a.public_key != b.public_key

    def test_ds_matches_own_dnskey(self):
        name = Name.from_text("a.com.")
        key = ZoneKey.derive(name, "ksk")
        assert ds_matches_dnskey(name, key.ds_record(name), key.dnskey)

    def test_ds_rejects_other_key(self):
        name = Name.from_text("a.com.")
        key = ZoneKey.derive(name, "ksk")
        other = ZoneKey.derive(Name.from_text("b.com."), "ksk")
        assert not ds_matches_dnskey(name, key.ds_record(name), other.dnskey)

    def test_key_for_tag(self):
        keyset = ZoneKeySet(Name.from_text("a.com."))
        assert keyset.key_for_tag(keyset.zsk.key_tag) is keyset.zsk
        assert keyset.key_for_tag(0xFFFF) is None or keyset.key_for_tag(0xFFFF)


class TestSigning:
    def make_rrset(self):
        return RRset.from_text("a.com.", 300, "A", "1.2.3.4", "2.3.4.5")

    def test_sign_produces_valid_rrsig(self):
        key = ZoneKey.derive(Name.from_text("a.com."), "zsk")
        rrset = self.make_rrset()
        rrsig = sign_rrset(rrset, Name.from_text("a.com."), key, NOW)
        assert rrsig.type_covered == rdtypes.A
        assert rrsig.key_tag == key.key_tag
        assert rrsig.signature == key.sign_blob(signing_input(rrset, rrsig))

    def test_signature_covers_rdata_order_canonically(self):
        key = ZoneKey.derive(Name.from_text("a.com."), "zsk")
        r1 = RRset.from_text("a.com.", 300, "A", "1.2.3.4", "2.3.4.5")
        r2 = RRset.from_text("a.com.", 300, "A", "2.3.4.5", "1.2.3.4")
        s1 = sign_rrset(r1, Name.from_text("a.com."), key, NOW)
        s2 = sign_rrset(r2, Name.from_text("a.com."), key, NOW)
        assert s1.signature == s2.signature

    def test_timeliness(self):
        key = ZoneKey.derive(Name.from_text("a.com."), "zsk")
        rrsig = sign_rrset(self.make_rrset(), Name.from_text("a.com."), key, NOW, NOW + 100)
        assert rrsig_is_timely(rrsig, NOW + 50)
        assert not rrsig_is_timely(rrsig, NOW + 101)
        assert not rrsig_is_timely(rrsig, NOW - 1)

    def test_labels_field(self):
        key = ZoneKey.derive(Name.from_text("a.com."), "zsk")
        rrset = RRset.from_text("www.a.com.", 300, "A", "1.1.1.1")
        rrsig = sign_rrset(rrset, Name.from_text("a.com."), key, NOW)
        assert rrsig.labels == 3


class TestChainValidation:
    def test_secure_chain(self):
        tree = build_tree()
        validator = ChainValidator(tree)
        result = validator.validate(Name.from_text("example.com."), rdtypes.HTTPS, NOW)
        assert result.state is ValidationState.SECURE

    def test_insecure_when_unsigned(self):
        tree = build_tree(sign_child=False)
        validator = ChainValidator(tree)
        result = validator.validate(Name.from_text("example.com."), rdtypes.HTTPS, NOW)
        assert result.state is ValidationState.INSECURE

    def test_insecure_when_ds_missing(self):
        """The paper's dominant failure: signed zone, no DS uploaded."""
        tree = build_tree(upload_ds=False)
        validator = ChainValidator(tree)
        result = validator.validate(Name.from_text("example.com."), rdtypes.HTTPS, NOW)
        assert result.state is ValidationState.INSECURE
        assert "no DS" in result.reason

    def test_bogus_on_corrupted_signature(self):
        tree = build_tree(corrupt=True)
        validator = ChainValidator(tree)
        result = validator.validate(Name.from_text("example.com."), rdtypes.HTTPS, NOW)
        assert result.state is ValidationState.BOGUS

    def test_bogus_on_expired_signature(self):
        tree = build_tree()
        validator = ChainValidator(tree)
        far_future = NOW + 365 * 86400 * 10
        result = validator.validate(Name.from_text("example.com."), rdtypes.HTTPS, far_future)
        assert result.state is ValidationState.BOGUS

    def test_bogus_on_ds_mismatch(self):
        tree = build_tree()
        com = tree.get_zone(Name.from_text("com."))
        # Replace the DS digest with junk.
        ds_rrset = com.get_rrset(Name.from_text("example.com."), rdtypes.DS)
        ds = ds_rrset[0]
        ds.digest = b"\x00" * len(ds.digest)
        ds.invalidate_wire_cache()
        validator = ChainValidator(tree)
        result = validator.validate(Name.from_text("example.com."), rdtypes.HTTPS, NOW)
        assert result.state is ValidationState.BOGUS

    def test_indeterminate_outside_tree(self):
        tree = build_tree()
        validator = ChainValidator(tree)
        # A zone tree always resolves names to some zone, so probe a name
        # whose RRset simply does not exist.
        result = validator.validate(Name.from_text("nonexistent.example.com."), rdtypes.A, NOW)
        assert result.state in (ValidationState.INDETERMINATE, ValidationState.SECURE)
        if result.state is ValidationState.INDETERMINATE:
            assert "no RRset" in result.reason

    def test_memoization_consistent(self):
        tree = build_tree()
        validator = ChainValidator(tree)
        r1 = validator.validate(Name.from_text("example.com."), rdtypes.HTTPS, NOW)
        r2 = validator.validate(Name.from_text("example.com."), rdtypes.A, NOW)
        assert r1.state is ValidationState.SECURE
        assert r2.state is ValidationState.SECURE

    def test_results_are_never_shared(self):
        """Verdicts are memoised, results are not: a caller editing its
        result cannot rewrite another caller's."""
        tree = build_tree(upload_ds=False)
        validator = ChainValidator(tree)
        name = Name.from_text("example.com.")
        r1 = validator.validate(name, rdtypes.HTTPS, NOW)
        r2 = validator.validate(name, rdtypes.HTTPS, NOW)
        assert r1 is not r2
        assert r1.state is r2.state is ValidationState.INSECURE
        r1.chain.append("edited.")
        r1.reason = "edited"
        r3 = validator.validate(name, rdtypes.A, NOW)
        assert r3.chain == r2.chain == [".", "com.", "example.com."]
        assert "no DS" in r3.reason

    def test_chain_lists_zones(self):
        tree = build_tree()
        validator = ChainValidator(tree)
        result = validator.validate(Name.from_text("example.com."), rdtypes.HTTPS, NOW)
        assert result.chain == [".", "com.", "example.com."]
