"""Unit tests for zone containers and the zone tree."""

import pytest

from repro.dnscore import rdtypes
from repro.dnscore.names import Name
from repro.dnscore.rrset import RRset
from repro.zones.tree import ZoneTree
from repro.zones.zone import Zone, ZoneError

NOW = 1_000_000


class TestZoneContent:
    def test_add_and_get(self):
        zone = Zone(Name.from_text("a.com."))
        zone.add_record("a.com.", "A", "1.2.3.4")
        rrset = zone.get_rrset(Name.from_text("a.com."), rdtypes.A)
        assert rrset is not None and rrset[0].address == "1.2.3.4"

    def test_out_of_zone_rejected(self):
        zone = Zone(Name.from_text("a.com."))
        with pytest.raises(ZoneError):
            zone.add_record("b.com.", "A", "1.2.3.4")

    def test_apex_cname_rejected(self):
        zone = Zone(Name.from_text("a.com."))
        with pytest.raises(ZoneError):
            zone.add_record("a.com.", "CNAME", "b.com.")

    def test_apex_cname_allowed_when_misconfigured(self):
        zone = Zone(Name.from_text("a.com."), allow_apex_cname=True)
        zone.ensure_soa()
        zone.add_record("a.com.", "CNAME", "www.a.com.")  # footnote-3 behaviour
        assert zone.get_rrset(zone.apex, rdtypes.CNAME) is not None

    def test_cname_conflicts_with_other_types(self):
        zone = Zone(Name.from_text("a.com."))
        zone.add_record("www.a.com.", "A", "1.2.3.4")
        with pytest.raises(ZoneError):
            zone.add_record("www.a.com.", "CNAME", "a.com.")

    def test_other_type_conflicts_with_cname(self):
        zone = Zone(Name.from_text("a.com."))
        zone.add_record("www.a.com.", "CNAME", "a.com.")
        with pytest.raises(ZoneError):
            zone.add_record("www.a.com.", "A", "1.2.3.4")

    def test_merge_same_rrset(self):
        zone = Zone(Name.from_text("a.com."))
        zone.add_record("a.com.", "A", "1.2.3.4")
        zone.add_record("a.com.", "A", "5.6.7.8")
        assert len(zone.get_rrset(zone.apex, rdtypes.A)) == 2

    def test_has_name_empty_nonterminal(self):
        zone = Zone(Name.from_text("a.com."))
        zone.add_record("x.y.a.com.", "A", "1.1.1.1")
        assert zone.has_name(Name.from_text("y.a.com."))

    def test_ensure_soa_idempotent(self):
        zone = Zone(Name.from_text("a.com."))
        zone.ensure_soa(serial=5)
        zone.ensure_soa(serial=9)
        assert zone.soa[0].serial == 5

    def test_delegation(self):
        zone = Zone(Name.from_text("com."))
        zone.delegate(Name.from_text("a.com."), [Name.from_text("ns1.a.com.")])
        assert zone.is_delegation(Name.from_text("a.com.")) == Name.from_text("a.com.")
        assert zone.is_delegation(Name.from_text("deep.a.com.")) == Name.from_text("a.com.")
        assert zone.is_delegation(Name.from_text("b.com.")) is None

    def test_cannot_delegate_apex(self):
        zone = Zone(Name.from_text("com."))
        with pytest.raises(ZoneError):
            zone.delegate(zone.apex, [Name.from_text("ns.example.")])


class TestZoneSigning:
    def make_zone(self):
        zone = Zone(Name.from_text("a.com."))
        zone.ensure_soa()
        zone.add_record("a.com.", "HTTPS", "1 . alpn=h2")
        zone.add_record("a.com.", "A", "1.2.3.4")
        return zone

    def test_sign_adds_dnskey_and_rrsigs(self):
        zone = self.make_zone()
        zone.sign(NOW)
        assert zone.signed
        assert zone.get_rrset(zone.apex, rdtypes.DNSKEY) is not None
        assert zone.get_rrsigs(zone.apex, rdtypes.HTTPS)
        assert zone.get_rrsigs(zone.apex, rdtypes.A)
        assert zone.get_rrsigs(zone.apex, rdtypes.SOA)

    def test_dnskey_signed_with_ksk(self):
        zone = self.make_zone()
        zone.sign(NOW)
        sigs = zone.get_rrsigs(zone.apex, rdtypes.DNSKEY)
        assert sigs[0].key_tag == zone.keyset.ksk.key_tag

    def test_other_records_signed_with_zsk(self):
        zone = self.make_zone()
        zone.sign(NOW)
        sigs = zone.get_rrsigs(zone.apex, rdtypes.HTTPS)
        assert sigs[0].key_tag == zone.keyset.zsk.key_tag

    def test_delegation_ns_not_signed(self):
        zone = Zone(Name.from_text("com."))
        zone.ensure_soa()
        zone.delegate(Name.from_text("a.com."), [Name.from_text("ns1.a.com.")])
        zone.sign(NOW)
        assert not zone.get_rrsigs(Name.from_text("a.com."), rdtypes.NS)

    def test_ds_requires_signing(self):
        zone = self.make_zone()
        with pytest.raises(ZoneError):
            zone.ds_rdatas()

    def test_corrupt_signature(self):
        zone = self.make_zone()
        zone.sign(NOW)
        before = zone.get_rrsigs(zone.apex, rdtypes.HTTPS)[0].signature
        zone.corrupt_signature(zone.apex, rdtypes.HTTPS)
        after = zone.get_rrsigs(zone.apex, rdtypes.HTTPS)[0].signature
        assert before != after


def https_rrset(text):
    return RRset.from_text("a.com.", 300, "HTTPS", text)


class TestReplaceRrsets:
    def make_zone(self):
        zone = TestZoneSigning().make_zone()
        zone.add_record("www.a.com.", "A", "1.2.3.4")
        return zone

    def test_signed_swap_equals_signing_the_new_content(self):
        patched, fresh = self.make_zone(), self.make_zone()
        patched.sign(NOW)
        fresh.remove_rrset(fresh.apex, rdtypes.HTTPS)
        fresh.add_rrset(https_rrset("1 . alpn=h3"))
        fresh.sign(NOW)
        version = patched.version
        untouched = patched.get_rrsigs(patched.apex, rdtypes.A)
        patched.replace_rrsets([https_rrset("1 . alpn=h3")], NOW)
        assert patched.version > version
        assert patched.get_rrset(patched.apex, rdtypes.HTTPS) == fresh.get_rrset(
            fresh.apex, rdtypes.HTTPS
        )
        for rdtype in (rdtypes.HTTPS, rdtypes.A, rdtypes.SOA, rdtypes.DNSKEY):
            assert [s.wire_bytes() for s in patched.get_rrsigs(patched.apex, rdtype)] == [
                s.wire_bytes() for s in fresh.get_rrsigs(fresh.apex, rdtype)
            ]
        assert patched.get_rrsigs(patched.apex, rdtypes.A) == untouched
        assert patched.uncovered_rrsets() == []

    def test_swap_keeps_the_record_order(self):
        zone = self.make_zone()
        order = list(zone._records)
        zone.replace_rrsets([https_rrset("1 . alpn=h3")])
        assert list(zone._records) == order

    def test_unsigned_swap_drops_the_old_signature(self):
        zone = self.make_zone()
        zone.sign(NOW)
        zone.replace_rrsets([https_rrset("1 . alpn=h3")])
        assert zone.get_rrsigs(zone.apex, rdtypes.HTTPS) == []
        assert zone.uncovered_rrsets() == [(zone.apex, rdtypes.HTTPS)]


class TestUncoveredRrsets:
    def test_unsigned_zone_has_nothing_to_cover(self):
        assert TestZoneSigning().make_zone().uncovered_rrsets() == []

    def test_signed_zone_is_covered(self):
        zone = TestZoneSigning().make_zone()
        zone.sign(NOW)
        assert zone.uncovered_rrsets() == []

    def test_record_added_after_signing_is_uncovered(self):
        zone = TestZoneSigning().make_zone()
        zone.sign(NOW)
        zone.add_record("ns1.a.com.", "A", "5.6.7.8")
        assert zone.uncovered_rrsets() == [(Name.from_text("ns1.a.com."), rdtypes.A)]

    def test_signature_by_a_foreign_key_does_not_cover(self):
        zone = TestZoneSigning().make_zone()
        zone.sign(NOW)
        other = Zone(Name.from_text("b.com."))
        other.ensure_soa()
        other.sign(NOW)
        zone._rrsigs[(zone.apex, rdtypes.A)] = other.get_rrsigs(other.apex, rdtypes.SOA)
        assert zone.uncovered_rrsets() == [(zone.apex, rdtypes.A)]

    def test_delegation_ns_and_glue_are_exempt(self):
        zone = Zone(Name.from_text("com."))
        zone.ensure_soa()
        child = Name.from_text("a.com.")
        zone.delegate(child, [Name.from_text("ns1.a.com.")])
        zone.add_record("ns1.a.com.", "A", "1.2.3.4")
        zone.sign(NOW)
        zone._rrsigs.pop((Name.from_text("ns1.a.com."), rdtypes.A))
        assert zone.uncovered_rrsets() == []


class TestZoneTree:
    def build(self):
        tree = ZoneTree()
        root = Zone(Name.root())
        root.ensure_soa()
        com = Zone(Name.from_text("com."))
        com.ensure_soa()
        a = Zone(Name.from_text("a.com."))
        a.ensure_soa()
        sub = Zone(Name.from_text("deep.a.com."))
        sub.ensure_soa()
        for zone in (root, com, a, sub):
            tree.add_zone(zone)
        return tree

    def test_longest_match(self):
        tree = self.build()
        assert tree.zone_for(Name.from_text("x.deep.a.com.")).apex == Name.from_text("deep.a.com.")
        assert tree.zone_for(Name.from_text("www.a.com.")).apex == Name.from_text("a.com.")
        assert tree.zone_for(Name.from_text("b.com.")).apex == Name.from_text("com.")
        assert tree.zone_for(Name.from_text("org.")).apex == Name.root()

    def test_duplicate_zone_rejected(self):
        tree = self.build()
        with pytest.raises(ZoneError):
            tree.add_zone(Zone(Name.from_text("a.com.")))

    def test_parent_zone_of_apex(self):
        tree = self.build()
        assert tree.parent_zone_of_apex(Name.from_text("a.com.")).apex == Name.from_text("com.")
        assert tree.parent_zone_of_apex(Name.from_text("com.")).apex == Name.root()

    def test_record_source_protocol(self):
        tree = self.build()
        assert tree.zone_apex_of(Name.from_text("www.a.com.")) == Name.from_text("a.com.")
        assert tree.parent_zone_of(Name.from_text("a.com.")) == Name.from_text("com.")
        assert tree.parent_zone_of(Name.root()) is None

    def test_ds_upload_requires_signed_child(self):
        tree = self.build()
        with pytest.raises(ZoneError):
            tree.upload_ds(Name.from_text("a.com."), NOW)

    def test_ds_lives_in_parent(self):
        tree = self.build()
        child = tree.get_zone(Name.from_text("a.com."))
        child.sign(NOW)
        parent = tree.get_zone(Name.from_text("com."))
        parent.sign(NOW)
        tree.upload_ds(Name.from_text("a.com."), NOW)
        rrset, sigs = tree.fetch_with_sigs(Name.from_text("a.com."), rdtypes.DS)
        assert rrset is not None
        assert sigs, "parent must sign the DS RRset"
