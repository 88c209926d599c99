"""Chaos scenario engine: the declarative fault DSL, its compiled
world effects, determinism under injection, cache identity, and the
injected-vs-organic attribution join.

The integration fixtures reuse ``examples/chaos_scenario.json`` — the
same schedule the CI chaos-smoke job runs — so the committed example
stays loadable and its targets stay capable (a zone fault on a domain
without the feature silently no-ops, which would break the smoke's
full-attribution guarantee).
"""

import dataclasses
import datetime
import json
import os

import pytest

from repro.dnscore import rdtypes
from repro.dnssec.validation import ChainValidator, ValidationState
from repro.scanner import ScanEngine, campaign, run_campaign
from repro.simnet import SimConfig, World, timeline
from repro.simnet import domains as simdomains
from repro.simnet.faults import FaultSchedule, FaultSpec
from repro.simnet.providers import PROVIDERS
from repro.study import StudySpec

MID = datetime.date(2023, 9, 15)
DAY = datetime.timedelta(days=1)
SCENARIO_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "chaos_scenario.json"
)

CONFIG = SimConfig(population=120)


def make_world():
    world = World(CONFIG)
    world.set_time(MID)
    return world


def one_fault(spec):
    return FaultSchedule(name="test", specs=(spec,))


def active_profile(world, extra=lambda p: True):
    return next(
        p for p in world.listed_profiles()
        if p.adopter and not p.www_only and p.intermittency == "none"
        and p.adoption_start_day < 0 and p.deactivation_day is None
        and extra(p)
    )


def flush_resolvers(world):
    for resolver in (world.google_resolver, world.cloudflare_resolver):
        resolver.flush_cache()


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor_strike", domain="example.com")

    def test_window_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            FaultSpec(
                kind="timeout", domain="example.com",
                start=datetime.date(2023, 8, 2), end=datetime.date(2023, 8, 1),
            )

    def test_iso_strings_parse_to_dates(self):
        spec = FaultSpec(kind="timeout", domain="example.com",
                         start="2023-07-01", end="2023-07-09")
        assert spec.start == datetime.date(2023, 7, 1)
        assert spec.end == datetime.date(2023, 7, 9)

    def test_server_outage_needs_exactly_one_target(self):
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec(kind="server_outage")
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec(kind="server_outage", ip="192.0.2.1", provider="cloudflare")
        with pytest.raises(ValueError, match="unknown provider"):
            FaultSpec(kind="server_outage", provider="not-a-provider")
        FaultSpec(kind="server_outage", ip="192.0.2.1")  # ok
        FaultSpec(kind="server_outage", provider="cloudflare", port=53)  # ok

    def test_loss_kinds_need_scope_and_sane_rate(self):
        with pytest.raises(ValueError, match="domain and/or ip"):
            FaultSpec(kind="packet_loss")
        for rate in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="rate"):
                FaultSpec(kind="packet_loss", domain="example.com", rate=rate)
        FaultSpec(kind="timeout", ip="192.0.2.1")  # ok

    def test_zone_kinds_need_domain(self):
        for kind in ("lame_delegation", "dnssec_expired_rrsig",
                     "dnssec_missing_ds", "ech_key_desync", "stale_https_hint"):
            with pytest.raises(ValueError, match="target domain"):
                FaultSpec(kind=kind)

    def test_active_window_semantics(self):
        spec = FaultSpec(kind="timeout", domain="example.com",
                         start=datetime.date(2023, 8, 1), end=datetime.date(2023, 8, 3))
        assert not spec.active(datetime.date(2023, 7, 31))
        assert spec.active(datetime.date(2023, 8, 1))  # inclusive start
        assert spec.active(datetime.date(2023, 8, 3))  # inclusive end
        assert not spec.active(datetime.date(2023, 8, 4))
        open_spec = FaultSpec(kind="timeout", domain="example.com")
        assert open_spec.active(datetime.date(1999, 1, 1))

    def test_overlaps_closed_range(self):
        spec = FaultSpec(kind="timeout", domain="example.com",
                         start=datetime.date(2023, 8, 1), end=datetime.date(2023, 8, 3))
        assert spec.overlaps(datetime.date(2023, 8, 3), datetime.date(2023, 9, 1))
        assert not spec.overlaps(datetime.date(2023, 8, 4), datetime.date(2023, 9, 1))
        assert not spec.overlaps(datetime.date(2023, 7, 1), datetime.date(2023, 7, 31))


class TestScheduleSerialisation:
    SCHEDULE = FaultSchedule(
        name="demo",
        specs=(
            FaultSpec(kind="server_outage", provider="cloudflare", port=53,
                      start=datetime.date(2023, 8, 1), end=datetime.date(2023, 8, 3)),
            FaultSpec(kind="packet_loss", domain="example.com", rate=0.5, salt="a"),
        ),
    )

    def test_truthiness(self):
        assert not FaultSchedule(name="empty")
        assert self.SCHEDULE

    def test_json_round_trip(self):
        assert FaultSchedule.from_json(self.SCHEDULE.to_json()) == self.SCHEDULE

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(self.SCHEDULE.to_json())
        assert FaultSchedule.load(str(path)) == self.SCHEDULE

    def test_unknown_spec_field_rejected(self):
        data = self.SCHEDULE.to_dict()
        data["faults"][0]["blast_radius"] = "huge"
        with pytest.raises(ValueError, match="blast_radius"):
            FaultSchedule.from_dict(data)

    def test_unknown_schedule_field_rejected(self):
        with pytest.raises(ValueError, match="surprise"):
            FaultSchedule.from_json(json.dumps({"name": "x", "surprise": 1}))

    def test_canonical_tag_tracks_content(self):
        again = FaultSchedule.from_json(self.SCHEDULE.to_json())
        assert again.canonical_tag() == self.SCHEDULE.canonical_tag()
        salted = FaultSchedule(
            name="demo",
            specs=self.SCHEDULE.specs[:1]
            + (dataclasses.replace(self.SCHEDULE.specs[1], salt="b"),),
        )
        assert salted.canonical_tag() != self.SCHEDULE.canonical_tag()
        renamed = dataclasses.replace(self.SCHEDULE, name="other")
        assert renamed.canonical_tag() != self.SCHEDULE.canonical_tag()

    def test_committed_ci_scenario_loads(self):
        scenario = FaultSchedule.load(SCENARIO_PATH)
        assert scenario and len(scenario.specs) == 6


class TestEngineEffects:
    def test_timeout_fault_servfails_with_retry_counters(self):
        world = make_world()
        profile = active_profile(world)
        world.install_faults(one_fault(
            FaultSpec(kind="timeout", domain=profile.name, start=MID, end=MID)
        ))
        response = world.stub.query_https(profile.apex)
        assert response.rcode == rdtypes.SERVFAIL
        stats = [world.google_resolver, world.cloudflare_resolver]
        assert sum(r.timeouts for r in stats) > 0
        assert sum(r.retries for r in stats) > 0
        # The day after the window the same world recovers.
        world.set_time(MID + DAY)
        flush_resolvers(world)
        recovered = world.stub.query_https(profile.apex)
        assert recovered.rcode == rdtypes.NOERROR

    def test_lame_delegation_servfails(self):
        world = make_world()
        profile = active_profile(world)
        world.install_faults(one_fault(
            FaultSpec(kind="lame_delegation", domain=profile.name, start=MID, end=MID)
        ))
        assert world.stub.query_https(profile.apex).rcode == rdtypes.SERVFAIL
        world.set_time(MID + DAY)
        flush_resolvers(world)
        assert world.stub.query_https(profile.apex).rcode == rdtypes.NOERROR

    def test_port_53_outage_spares_other_ports(self):
        world = make_world()
        profile = active_profile(world, lambda p: p.provider_key == "cloudflare")
        server_ip = PROVIDERS["cloudflare"].server_ip
        world.install_faults(one_fault(
            FaultSpec(kind="server_outage", ip=server_ip, port=53, start=MID, end=MID)
        ))
        # The outage is port-granular: the host still routes elsewhere.
        assert not world.network.is_reachable(server_ip, 53)
        assert world.network.is_reachable(server_ip)
        assert world.network.is_reachable(server_ip, 443)
        assert world.stub.query_https(profile.apex).rcode == rdtypes.SERVFAIL
        assert (world.google_resolver.unreachables
                + world.cloudflare_resolver.unreachables) > 0
        # Advancing the clock past the window lifts the outage.
        world.set_time(MID + DAY)
        assert world.network.is_reachable(server_ip, 53)
        flush_resolvers(world)
        assert world.stub.query_https(profile.apex).rcode == rdtypes.NOERROR

    def test_port_443_outage_flips_tls_reachable_not_dns(self):
        world = make_world()
        profile = active_profile(world)
        addr = simdomains.serving_addresses(profile, world.config, MID)[0]
        world.install_faults(one_fault(
            FaultSpec(kind="server_outage", ip=addr, port=443, start=MID, end=MID)
        ))
        assert not world.tls_reachable(profile, addr)
        assert world.stub.query_https(profile.apex).rcode == rdtypes.NOERROR
        world.set_time(MID + DAY)
        assert world.tls_reachable(profile, addr)

    def _signed_profile(self, world):
        try:
            return active_profile(
                world,
                lambda p: p.dnssec_signed and p.ds_uploaded and p.dnssec_sign_day < 0,
            )
        except StopIteration:
            pytest.skip("no secure-chain adopter at this population")

    def test_expired_rrsig_turns_chain_bogus(self):
        clean = make_world()
        profile = self._signed_profile(clean)
        now = timeline.epoch_seconds(MID)
        baseline = ChainValidator(clean.validator_source).validate(
            profile.apex, rdtypes.DNSKEY, now
        )
        assert baseline.state is ValidationState.SECURE
        world = make_world()
        world.install_faults(one_fault(
            FaultSpec(kind="dnssec_expired_rrsig", domain=profile.name, start=MID)
        ))
        result = ChainValidator(world.validator_source).validate(
            profile.apex, rdtypes.DNSKEY, now
        )
        assert result.state is ValidationState.BOGUS

    def test_missing_ds_turns_chain_insecure(self):
        world = make_world()
        profile = self._signed_profile(world)
        world.install_faults(one_fault(
            FaultSpec(kind="dnssec_missing_ds", domain=profile.name, start=MID)
        ))
        result = ChainValidator(world.validator_source).validate(
            profile.apex, rdtypes.DNSKEY, timeline.epoch_seconds(MID)
        )
        assert result.state is ValidationState.INSECURE

    def test_zone_fault_noops_on_incapable_domain(self):
        world = make_world()
        profile = active_profile(world, lambda p: not p.dnssec_signed)
        world.install_faults(one_fault(
            FaultSpec(kind="dnssec_expired_rrsig", domain=profile.name, start=MID)
        ))
        # Nothing to expire in an unsigned zone: the scan is untouched.
        assert world.stub.query_https(profile.apex).rcode == rdtypes.NOERROR
        zone = world.authoritative_zone_for(profile.apex)
        assert zone is not None and not zone.signed

    def _scan_for(self, world, pred):
        engine = ScanEngine(world)
        for profile in world.listed_profiles():
            obs = engine.scan_name(profile.apex, "apex")
            if obs.has_https and pred(obs):
                return profile, obs
        return None, None

    def test_ech_desync_serves_previous_generation(self):
        clean = make_world()
        profile, obs = self._scan_for(clean, lambda o: o.has_ech)
        if profile is None:
            pytest.skip("no ECH publisher at this population")
        manager = clean.ech_manager
        hour = clean.absolute_hour()
        current = manager.generation_for_hour(hour) % 256
        stale = manager.generation_for_hour(
            max(0, hour - clean.config.ech_rotation_hours)
        ) % 256
        record = next(r for r in obs.https_records if r.has_ech)
        assert record.ech_config_id == current
        world = make_world()
        world.install_faults(one_fault(
            FaultSpec(kind="ech_key_desync", domain=profile.name, start=MID, end=MID)
        ))
        faulted = ScanEngine(world).scan_name(profile.apex, "apex")
        faulted_record = next(r for r in faulted.https_records if r.has_ech)
        assert faulted_record.ech_config_id == stale
        assert faulted_record.ech_config_id != current

    def test_stale_hints_point_at_retired_unreachable_addresses(self):
        clean = make_world()
        profile, obs = self._scan_for(
            clean, lambda o: o.all_ipv4_hints() and o.a_addrs
        )
        if profile is None:
            pytest.skip("no hint publisher at this population")
        world = make_world()
        world.install_faults(one_fault(
            FaultSpec(kind="stale_https_hint", domain=profile.name, start=MID, end=MID)
        ))
        faulted = ScanEngine(world).scan_name(profile.apex, "apex")
        hints = faulted.all_ipv4_hints()
        assert hints and set(hints) != set(obs.all_ipv4_hints())
        assert set(hints) != set(faulted.a_addrs)
        # The retired generation serves nothing: the §4.3.5 probe fails
        # on the hint while the A record stays reachable.
        assert not world.tls_reachable(profile, hints[0])
        assert world.tls_reachable(profile, faulted.a_addrs[0])

    def test_install_clear_and_reset_lifecycle(self):
        world = make_world()
        schedule = one_fault(
            FaultSpec(kind="timeout", domain="example.com", start=MID, end=MID)
        )
        world.install_faults(schedule)
        assert world.fault_injector is not None
        assert world.network.dns_fault_hook is world.fault_injector
        world.install_faults(None)  # None just clears
        assert world.fault_injector is None
        assert world.network.dns_fault_hook is None
        world.install_faults(schedule)
        world.reset()  # a reset world is never armed (snapshot safety)
        assert world.fault_injector is None
        assert world.network.dns_fault_hook is None

    def test_outage_lifted_on_clear(self):
        world = make_world()
        server_ip = PROVIDERS["cloudflare"].server_ip
        world.install_faults(one_fault(
            FaultSpec(kind="server_outage", ip=server_ip, start=MID, end=MID)
        ))
        assert not world.network.is_reachable(server_ip)
        world.clear_faults()
        assert world.network.is_reachable(server_ip)


class TestDeterminism:
    KWARGS = dict(
        day_step=7,
        start=datetime.date(2023, 9, 15),
        end=datetime.date(2023, 9, 25),
        with_ech_hourly=False,
        with_dnssec_snapshot=False,
    )
    SCENARIO = FaultSchedule(
        name="det",
        specs=(
            FaultSpec(kind="packet_loss", ip=PROVIDERS["cloudflare"].server_ip,
                      rate=0.5, start=datetime.date(2023, 9, 15)),
            FaultSpec(kind="timeout", domain="gentoo.org",
                      start=datetime.date(2023, 9, 15)),
        ),
    )

    def test_same_schedule_same_dataset(self):
        first = run_campaign(World(CONFIG), scenario=self.SCENARIO, **self.KWARGS)
        second = run_campaign(World(CONFIG), scenario=self.SCENARIO, **self.KWARGS)
        assert first == second
        assert first.run_stats.timeouts > 0

    def test_scenario_perturbs_the_fault_free_dataset(self):
        clean = run_campaign(World(CONFIG), **self.KWARGS)
        faulted = run_campaign(World(CONFIG), scenario=self.SCENARIO, **self.KWARGS)
        assert faulted != clean


class TestCacheIdentity:
    def test_empty_scenario_tag_byte_identical_to_pre_scenario_key(self):
        golden = (
            campaign.canonical_cache_tag({"ech_sample": 5})
            + "|"
            + repr(dataclasses.astuple(CONFIG))
        )
        for scenario in (None, FaultSchedule(name="noop")):
            spec = StudySpec(config=CONFIG, ech_sample=5, scenario=scenario)
            assert spec.cache_tag() == golden
        assert StudySpec(config=CONFIG, ech_sample=5).cache_tag() == golden

    def test_scenario_keys_a_distinct_dataset(self):
        schedule = FaultSchedule.load(SCENARIO_PATH)
        base = StudySpec(config=CONFIG)
        faulted = StudySpec(config=CONFIG, scenario=schedule)
        assert faulted.cache_tag() != base.cache_tag()
        assert schedule.canonical_tag() in faulted.cache_tag()
        renamed = StudySpec(
            config=CONFIG, scenario=dataclasses.replace(schedule, name="other")
        )
        assert renamed.cache_tag() != faulted.cache_tag()

    def test_non_schedule_scenario_rejected(self):
        with pytest.raises(TypeError, match="FaultSchedule"):
            StudySpec(config=CONFIG, scenario={"name": "dict"})


class TestAttribution:
    """The injected-vs-organic join on the CI chaos-smoke scenario."""

    @pytest.fixture(scope="class")
    def smoke(self):
        from repro.analysis import attribution

        scenario = FaultSchedule.load(SCENARIO_PATH)
        dataset = run_campaign(
            World(CONFIG), day_step=28, ech_sample=20, scenario=scenario
        )
        report = attribution.attribute(dataset, scenario, CONFIG)
        return dataset, scenario, report

    def test_fault_path_counters_reach_run_stats(self, smoke):
        dataset, _, _ = smoke
        assert dataset.run_stats.timeouts > 0
        assert dataset.run_stats.retries > 0

    def test_every_injected_fault_is_accounted_for(self, smoke):
        _, _, report = smoke
        assert report.fully_attributed(), report.summary()
        assert all(entry.in_window for entry in report.entries)

    def test_anomalies_partition_into_injected_and_organic(self, smoke):
        _, _, report = smoke
        assert len(report.anomalies) == len(report.injected) + len(report.organic)
        assert len(report.injected) > 0
        assert len(report.organic) > 0  # the world misbehaves organically too

    def test_summary_names_every_fault(self, smoke):
        _, scenario, report = smoke
        text = report.summary()
        for spec in scenario.specs:
            assert spec.kind in text
        assert "UNATTRIBUTED" not in text

    def test_out_of_window_fault_reported_not_failed(self, smoke):
        from repro.analysis import attribution

        dataset, scenario, _ = smoke
        future = FaultSpec(
            kind="timeout", domain="newlinesmag.com",
            start=datetime.date(2030, 1, 1), end=datetime.date(2030, 1, 2),
        )
        widened = FaultSchedule(name="w", specs=scenario.specs + (future,))
        report = attribution.attribute(dataset, widened, CONFIG)
        entry = report.entries[-1]
        assert not entry.in_window and not entry.attributed
        # Out-of-window faults cannot fail the full-attribution gate.
        assert report.fully_attributed()

    def test_no_scenario_means_everything_organic(self, smoke):
        from repro.analysis import attribution

        dataset, _, _ = smoke
        report = attribution.attribute(dataset, None, CONFIG)
        assert report.entries == []
        assert report.organic == report.anomalies
        assert report.injected == ()

    def test_intermittency_split_sees_injected_flapping(self, smoke):
        from repro.analysis.intermittent import intermittency_injected_split

        dataset, scenario, _ = smoke
        split = intermittency_injected_split(dataset, scenario, CONFIG)
        assert split.injected_domains >= 1
        assert split.flapping_domains == (
            split.injected_domains + split.organic_domains
        )

    def test_table7_failover_split_sees_injected_stale_ech(self, smoke):
        from repro.analysis.ech_analysis import table7_failover_split

        dataset, scenario, _ = smoke
        split = table7_failover_split(dataset, scenario, CONFIG)
        assert split.injected_domains >= 1
        assert split.stale_sightings >= 1
        assert split.affected_domains == (
            split.injected_domains + split.organic_domains
        )


# ---------------------------------------------------------------------------
# lifetime of the resolvers' DNSSEC zone-key verdict memo
# ---------------------------------------------------------------------------


def secure_adopter(world):
    try:
        return active_profile(
            world,
            lambda p: p.dnssec_signed and p.ds_uploaded and p.dnssec_sign_day < 0,
        )
    except StopIteration:
        pytest.skip("no secure-chain adopter at this population")


def missing_ds(profile):
    return one_fault(
        FaultSpec(kind="dnssec_missing_ds", domain=profile.name, start=MID)
    )


def ad_bits(world, profile):
    """The AD bit each public resolver sets on the profile's HTTPS answer."""
    return tuple(
        resolver.resolve(profile.apex, rdtypes.HTTPS).authenticated_data
        for resolver in (world.google_resolver, world.cloudflare_resolver)
    )


def validators(world):
    return [r.validator for r in (world.google_resolver, world.cloudflare_resolver)]


class TestVerdictMemoLifetime:
    def test_install_faults_at_the_current_hour_clears_ad(self):
        world = make_world()
        profile = secure_adopter(world)
        assert ad_bits(world, profile) == (True, True)
        # Same simulated hour: only a flushed memo can see the new fault.
        world.install_faults(missing_ds(profile))
        flush_resolvers(world)
        assert ad_bits(world, profile) == (False, False)
        world.clear_faults()
        flush_resolvers(world)
        assert ad_bits(world, profile) == (True, True)

    def test_reset_after_faulted_run_answers_like_a_fresh_world(self):
        world = make_world()
        profile = secure_adopter(world)
        world.install_faults(missing_ds(profile))
        assert ad_bits(world, profile) == (False, False)
        world.reset()
        world.set_time(MID)
        assert ad_bits(world, profile) == ad_bits(make_world(), profile) == (True, True)

    def test_memo_holds_the_current_hour_only_and_reset_empties_it(self):
        world = World(CONFIG)
        seen = []  # (validator, hour, memo key) per zone-key lookup
        for validator in validators(world):
            def recording(apex, parent_apex, now, _v=validator,
                          _inner=validator._validated_zone_keys):
                seen.append((_v, now // 3600, (apex, parent_apex)))
                return _inner(apex, parent_apex, now)
            validator._validated_zone_keys = recording
        run_campaign(
            world, day_step=7, start=datetime.date(2023, 7, 21),
            end=datetime.date(2023, 7, 22), ech_sample=2,
            with_dnssec_snapshot=False,
        )
        assert len({hour for _, hour, _ in seen}) > 24  # an hourly-ECH day
        for validator in validators(world):
            # The stub's backup resolver may never be asked.
            last = max((hour for v, hour, _ in seen if v is validator), default=None)
            assert validator._memo_hour == last
            assert set(validator._zone_key_cache) == {
                key for v, hour, key in seen if v is validator and hour == last
            }
        world.reset()
        for validator in validators(world):
            assert validator._zone_key_cache == {}

    def test_faulted_study_after_clean_study_equals_fresh_world_run(
        self, tmp_path, monkeypatch
    ):
        """Continuous studies check worlds out of the per-process pool,
        so a scenario run after a clean one reuses the clean run's world."""
        from repro.simnet import snapshot as snapshot_mod
        from repro.study import ExecutionPlan, Study

        config = SimConfig(population=250, seed="1")
        secure = [
            p for p in World(config).listed_profiles()
            if p.adopter and p.dnssec_signed and p.ds_uploaded
        ]
        assert secure
        scenario = FaultSchedule(name="missing-ds", specs=tuple(
            FaultSpec(kind="dnssec_missing_ds", domain=p.name) for p in secure
        ))

        def run(tag, schedule):
            spec = StudySpec(
                config, day_step=70, with_ech_hourly=False, scenario=schedule
            )
            plan = ExecutionPlan(
                cache_dir=str(tmp_path / tag / "cache"), continuous=True,
                checkpoint_dir=str(tmp_path / tag / "ckpt"), days_per_increment=2,
            )
            return Study(spec, plan).run()

        def ad_flags(dataset):
            return {
                obs.ad_flag
                for snapshot in dataset.snapshots.values()
                for p in secure
                for obs in [snapshot.apex.get(p.name)] if obs is not None
            }

        monkeypatch.setattr(snapshot_mod, "_IDLE", {})
        fresh = run("fresh", scenario)
        snapshot_mod._IDLE.clear()
        clean = run("clean", None)
        reused = run("reused", scenario)
        assert ad_flags(clean) == {True}
        assert ad_flags(fresh) == {False}
        assert reused == fresh
