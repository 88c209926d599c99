"""Tests for the scanning framework and campaign orchestration."""

import datetime
import os

import pytest

from repro.dnscore import rdtypes
from repro.scanner import Dataset, ScanEngine, run_campaign
from repro.scanner.dataset import cache_path
from repro.scanner.engine import share
from repro.simnet import SimConfig, World, timeline

MID = datetime.date(2023, 9, 15)


@pytest.fixture(scope="module")
def scan_world():
    world = World(SimConfig(population=500))
    world.set_time(MID)
    return world


@pytest.fixture(scope="module")
def engine(scan_world):
    return ScanEngine(scan_world)


class TestScanName:
    def test_adopter_observation(self, scan_world, engine):
        profile = next(
            p for p in scan_world.listed_profiles()
            if p.adopter and p.is_cloudflare and not p.custom_config and not p.www_only
            and p.intermittency == "none" and p.adoption_start_day < 0
            and p.deactivation_day is None
        )
        obs = engine.scan_name(profile.apex, "apex")
        assert obs.has_https
        assert obs.kind == "apex"
        record = obs.https_records[0]
        assert record.priority == 1
        assert record.alpn and "h2" in record.alpn
        assert obs.a_addrs, "follow-up A query must run for adopters"
        assert obs.ns_names, "follow-up NS query must run for adopters"
        assert obs.soa_serial is not None

    def test_repeat_scan_shares_values_not_observations(self, scan_world, engine):
        profile = next(
            p for p in scan_world.listed_profiles()
            if p.adopter and p.adoption_start_day < 0 and p.deactivation_day is None
            and p.intermittency == "none" and not p.www_only
        )
        first = engine.scan_name(profile.apex, "apex")
        again = engine.scan_name(profile.apex, "apex")
        assert first == again and first is not again
        assert first.https_records and all(
            a is b for a, b in zip(first.https_records, again.https_records)
        )
        for field in ("name", "a_addrs", "ns_names"):
            assert getattr(first, field) is getattr(again, field)

    def test_shared_values_keep_their_type(self):
        # 1 == True and hash(1) == hash(True): a value-only key would
        # hand back whichever was shared first.
        assert [type(share(v)) for v in (1, True, 0, False)] == [int, bool, int, bool]

    def test_nonadopter_observation(self, scan_world, engine):
        profile = next(p for p in scan_world.listed_profiles() if not p.adopter)
        obs = engine.scan_name(profile.apex, "apex")
        assert not obs.has_https
        assert not obs.a_addrs, "no follow-ups without an HTTPS record"

    def test_cname_chase(self, scan_world, engine):
        cohort = [
            p for p in scan_world.profiles
            if p.www_only and p.adopter and p.adoption_start_day < 0 and p.deactivation_day is None
        ]
        if not cohort:
            pytest.skip("no www-only domain in this population")
        obs = engine.scan_name(cohort[0].apex, "apex")
        assert obs.via_cname is not None
        assert obs.has_https, "HTTPS record found at the CNAME target"

    def test_unterminated_cname_chain_is_no_answer(self, engine):
        """A chain longer than the hop limit must not attribute records
        to a mid-chain owner (regression: the old code returned the 8th
        hop as the 'terminal' name)."""
        response, links = self._chain_response(11)
        assert engine._terminal_cname(response, links[0]) is None

    @staticmethod
    def _chain_response(length):
        from repro.dnscore.message import Message
        from repro.dnscore.names import Name
        from repro.dnscore.rdata import CNAMERdata
        from repro.dnscore.rrset import RRset

        links = [Name.from_text(f"hop{i}.example.") for i in range(length + 1)]
        response = Message(1)
        response.is_response = True
        for current, target in zip(links, links[1:]):
            response.answers.append(
                RRset(current, rdtypes.CNAME, 300, [CNAMERdata(target)])
            )
        return response, links

    def test_short_cname_chain_still_resolves(self, engine):
        response, links = self._chain_response(3)
        assert engine._terminal_cname(response, links[0]) == links[-1]

    def test_chain_at_exact_hop_limit_resolves(self, engine):
        response, links = self._chain_response(8)
        assert engine._terminal_cname(response, links[0]) == links[-1]

    def test_chain_one_past_hop_limit_is_no_answer(self, engine):
        response, links = self._chain_response(9)
        assert engine._terminal_cname(response, links[0]) is None

    def test_rrsig_flag(self, scan_world, engine):
        cohort = [
            p for p in scan_world.listed_profiles()
            if p.adopter and p.dnssec_signed and p.dnssec_sign_day < 0
            and p.intermittency == "none" and p.adoption_start_day < 0
            and p.deactivation_day is None and not p.www_only
        ]
        if not cohort:
            pytest.skip("no signed adopter in this population")
        obs = engine.scan_name(cohort[0].apex, "apex")
        if obs.has_https:
            assert obs.rrsig_present


class TestNameServerScan:
    def test_cloudflare_ns_attribution(self, scan_world, engine):
        obs = engine.scan_nameserver("alice.ns.cloudflare.com")
        assert obs.ips
        assert obs.whois_org == "Cloudflare, Inc."

    def test_google_ns_attribution(self, scan_world, engine):
        obs = engine.scan_nameserver("ns1.googledomains.com")
        assert obs.whois_org == "Google LLC"

    def test_unresolvable_ns(self, scan_world, engine):
        obs = engine.scan_nameserver("ns1.does-not-exist-zone.example")
        assert not obs.ips
        assert obs.whois_org is None


class TestConnectivityProbe:
    def test_mismatched_domain_probed(self, scan_world, engine):
        profile = scan_world.profile_by_name("cf-ns.com")
        obs = engine.scan_name(profile.apex, "apex")
        probe = engine.probe_connectivity(profile, obs, scan_world.current_date)
        assert probe is not None
        assert set(probe.hint_addrs) != set(probe.a_addrs)

    def test_clean_domain_not_probed(self, scan_world, engine):
        profile = next(
            p for p in scan_world.listed_profiles()
            if p.adopter and p.hint_behaviour == "clean" and p.is_cloudflare
            and not p.custom_config and p.intermittency == "none"
            and p.adoption_start_day < 0 and p.deactivation_day is None and not p.www_only
        )
        obs = engine.scan_name(profile.apex, "apex")
        assert engine.probe_connectivity(profile, obs, scan_world.current_date) is None


class TestCampaign:
    def test_campaign_windows(self, dataset):
        days = dataset.days()
        assert days[0] == timeline.STUDY_START
        assert days[-1] <= timeline.STUDY_END
        # The ECH hourly window days are force-included.
        assert timeline.ECH_HOURLY_SCAN_START in dataset.snapshots
        # The DNSSEC snapshot day is force-included.
        assert dataset.dnssec_snapshot_date == timeline.DNSSEC_SNAPSHOT

    def test_ns_window_respected(self, dataset):
        before = [d for d in dataset.days() if d < timeline.SOA_NS_SCAN_START]
        for day in before:
            for obs in dataset.snapshot(day).apex.values():
                assert not obs.ns_names
        after = [d for d in dataset.days() if d >= timeline.NS_IP_WHOIS_SCAN_START]
        assert any(dataset.snapshot(d).ns_observations for d in after)

    def test_connectivity_window_respected(self, dataset):
        for day in dataset.days():
            snapshot = dataset.snapshot(day)
            if day < timeline.CONNECTIVITY_SCAN_START:
                assert not snapshot.connectivity

    def test_ech_observations_collected(self, dataset):
        assert dataset.ech_observations
        hours = {obs.hour for obs in dataset.ech_observations}
        start_hour = timeline.day_index(timeline.ECH_HOURLY_SCAN_START) * 24
        assert all(h >= start_hour for h in hours)

    def test_adoption_counts_consistent(self, dataset):
        for day in dataset.days():
            snapshot = dataset.snapshot(day)
            assert snapshot.apex_https_count == len(snapshot.apex)
            assert snapshot.www_https_count == len(snapshot.www)
            assert 0.10 < snapshot.apex_https_rate() < 0.40

    def test_overlapping_subset_of_union(self, dataset):
        for phase in (1, 2):
            overlap = dataset.overlapping_domains(phase)
            union = dataset.union_domains(phase)
            assert overlap <= union
            assert overlap

    def test_save_load_round_trip(self, dataset, tmp_path):
        path = str(tmp_path / "ds.pkl.gz")
        dataset.save(path)
        loaded = Dataset.load(path)
        assert loaded.days() == dataset.days()
        first = dataset.days()[0]
        assert loaded.snapshot(first).apex_https_count == dataset.snapshot(first).apex_https_count
        assert len(loaded.ech_observations) == len(dataset.ech_observations)

    def test_cache_path_distinct(self, tmp_path):
        a = cache_path(str(tmp_path), 100, "s", 7)
        b = cache_path(str(tmp_path), 200, "s", 7)
        assert a != b
