"""Unit + integration tests for authoritative and recursive resolution."""

import pytest

from repro.dnscore import rdtypes
from repro.dnscore.message import Message
from repro.dnscore.names import Name
from repro.dnssec.validation import ChainValidator
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.clock import SimClock
from repro.resolver.network import HostUnreachable, Network, PortClosed
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.stub import ResolverFrontend, StubResolver
from repro.simnet import SimConfig, World
from repro.zones.tree import ZoneTree
from repro.zones.zone import Zone

NOW = 1_000_000


def build_internet(sign=False, wire_mode=False):
    """A tiny root → com → example.com internet on a fresh network."""
    network = Network(wire_mode=wire_mode)
    clock = SimClock(NOW)

    root = Zone(Name.root())
    root.ensure_soa(Name.from_text("a.root-servers.net."))
    root.delegate(Name.from_text("com."), [Name.from_text("ns.tld.")])
    root.add_record("ns.tld.", "A", "192.5.6.30")

    com = Zone(Name.from_text("com."))
    com.ensure_soa(Name.from_text("ns.tld."))
    com.delegate(Name.from_text("example.com."), [Name.from_text("ns1.example.com.")])
    com.add_record("ns1.example.com.", "A", "10.0.0.1")

    example = Zone(Name.from_text("example.com."))
    example.ensure_soa(Name.from_text("ns1.example.com."))
    example.add_record("example.com.", "HTTPS", "1 . alpn=h2,h3")
    example.add_record("example.com.", "A", "10.0.0.9")
    example.add_record("www.example.com.", "CNAME", "example.com.")
    example.add_record("alias.example.com.", "CNAME", "target.elsewhere.com.")
    example.add_record("ns1.example.com.", "A", "10.0.0.1")

    elsewhere = Zone(Name.from_text("elsewhere.com."))
    elsewhere.ensure_soa()
    elsewhere.add_record("target.elsewhere.com.", "A", "10.0.0.77")
    com.delegate(Name.from_text("elsewhere.com."), [Name.from_text("ns1.elsewhere.com.")])
    com.add_record("ns1.elsewhere.com.", "A", "10.0.0.2")

    tree = ZoneTree()
    for zone in (root, com, example, elsewhere):
        tree.add_zone(zone)

    if sign:
        for zone in (example, elsewhere, com, root):
            zone.sign(NOW)
        tree.upload_ds(Name.from_text("com."), NOW)
        tree.upload_ds(Name.from_text("example.com."), NOW)
        tree.upload_ds(Name.from_text("elsewhere.com."), NOW)

    root_server = AuthoritativeServer("root")
    root_server.tree.add_zone(root)
    tld_server = AuthoritativeServer("tld")
    tld_server.tree.add_zone(com)
    example_server = AuthoritativeServer("example")
    example_server.tree.add_zone(example)
    elsewhere_server = AuthoritativeServer("elsewhere")
    elsewhere_server.tree.add_zone(elsewhere)

    network.register_dns("198.41.0.4", root_server)
    network.register_dns("192.5.6.30", tld_server)
    network.register_dns("10.0.0.1", example_server)
    network.register_dns("10.0.0.2", elsewhere_server)

    validator = ChainValidator(tree) if sign else None
    resolver = RecursiveResolver("test", network, ["198.41.0.4"], clock, validator=validator)
    return network, clock, resolver, tree


class TestAuthoritative:
    def setup_method(self):
        self.network, self.clock, self.resolver, self.tree = build_internet()
        self.example = self.network.dns_server_at("10.0.0.1")

    def ask(self, server, name, rdtype):
        return server.handle_query(Message.make_query(name, rdtype, 1))

    def test_positive_answer_is_authoritative(self):
        response = self.ask(self.example, "example.com.", rdtypes.HTTPS)
        assert response.authoritative
        assert response.get_answer("example.com.", rdtypes.HTTPS) is not None

    def test_nxdomain_with_soa(self):
        response = self.ask(self.example, "nope.example.com.", rdtypes.A)
        assert response.rcode == rdtypes.NXDOMAIN
        assert any(rr.rdtype == rdtypes.SOA for rr in response.authority)

    def test_nodata(self):
        response = self.ask(self.example, "example.com.", rdtypes.TXT)
        assert response.rcode == rdtypes.NOERROR
        assert not response.answers
        assert any(rr.rdtype == rdtypes.SOA for rr in response.authority)

    def test_refused_out_of_zone(self):
        response = self.ask(self.example, "other.org.", rdtypes.A)
        assert response.rcode == rdtypes.REFUSED

    def test_referral_with_glue(self):
        tld = self.network.dns_server_at("192.5.6.30")
        response = self.ask(tld, "example.com.", rdtypes.HTTPS)
        assert not response.answers
        ns = [rr for rr in response.authority if rr.rdtype == rdtypes.NS]
        assert ns and ns[0].name == Name.from_text("example.com.")
        assert any(rr.rdtype == rdtypes.A for rr in response.additional)

    def test_in_zone_cname_chased_by_server(self):
        response = self.ask(self.example, "www.example.com.", rdtypes.A)
        assert response.get_answer("www.example.com.", rdtypes.CNAME) is not None
        assert response.get_answer("example.com.", rdtypes.A) is not None

    def test_out_of_zone_cname_not_chased(self):
        response = self.ask(self.example, "alias.example.com.", rdtypes.A)
        assert response.get_answer("alias.example.com.", rdtypes.CNAME) is not None
        assert response.get_answer("target.elsewhere.com.", rdtypes.A) is None

    def test_unsupported_rdtype_empty_noerror(self):
        self.example.unsupported_rdtypes = {rdtypes.HTTPS}
        response = self.ask(self.example, "example.com.", rdtypes.HTTPS)
        assert response.rcode == rdtypes.NOERROR
        assert not response.answers
        # A queries still answered.
        response = self.ask(self.example, "example.com.", rdtypes.A)
        assert response.answers


class TestRecursive:
    def test_full_iteration(self):
        _network, _clock, resolver, _tree = build_internet()
        response = resolver.resolve("example.com.", rdtypes.HTTPS)
        assert response.rcode == rdtypes.NOERROR
        assert response.get_answer("example.com.", rdtypes.HTTPS) is not None
        assert response.recursion_available

    def test_cross_zone_cname_chase(self):
        _network, _clock, resolver, _tree = build_internet()
        response = resolver.resolve("alias.example.com.", rdtypes.A)
        assert response.get_answer("alias.example.com.", rdtypes.CNAME) is not None
        assert response.get_answer("target.elsewhere.com.", rdtypes.A) is not None

    def test_caching_avoids_requeries(self):
        network, _clock, resolver, _tree = build_internet()
        resolver.resolve("example.com.", rdtypes.HTTPS)
        count = network.dns_query_count
        resolver.resolve("example.com.", rdtypes.HTTPS)
        assert network.dns_query_count == count

    def test_cache_expires_with_ttl(self):
        network, clock, resolver, _tree = build_internet()
        resolver.resolve("example.com.", rdtypes.HTTPS)
        count = network.dns_query_count
        clock.advance(301)
        resolver.resolve("example.com.", rdtypes.HTTPS)
        assert network.dns_query_count > count

    def test_drop_expired_frees_only_expired_entries(self):
        network, clock, resolver, _tree = build_internet()
        resolver.resolve("example.com.", rdtypes.HTTPS)
        resolver.drop_expired()
        assert resolver._cache and resolver._delegation_cache
        count = network.dns_query_count
        resolver.resolve("example.com.", rdtypes.HTTPS)
        assert network.dns_query_count == count  # live entries kept
        clock.advance(301)
        resolver.drop_expired()
        assert not resolver._cache and not resolver._delegation_cache

    def test_world_drops_expired_entries_on_date_change_only(self):
        import datetime

        world = World(SimConfig(population=60))
        day = datetime.date(2023, 7, 14)
        world.set_time(day)
        world.stub.query_https(world.tranco_list()[0])
        resolver = world.google_resolver
        cached = dict(resolver._cache)
        assert cached
        world.set_time(day, hour=5.0)  # a later hour of the same day
        assert resolver._cache == cached  # expired, but not dropped yet
        world.set_time(day + datetime.timedelta(days=1))
        assert not resolver._cache and not resolver._delegation_cache

    def test_nxdomain_propagates(self):
        _network, _clock, resolver, _tree = build_internet()
        response = resolver.resolve("missing.example.com.", rdtypes.A)
        assert response.rcode == rdtypes.NXDOMAIN

    def test_unreachable_everything_servfail(self):
        network, _clock, resolver, _tree = build_internet()
        network.set_unreachable("10.0.0.1")
        response = resolver.resolve("example.com.", rdtypes.HTTPS)
        assert response.rcode == rdtypes.SERVFAIL

    def test_ad_bit_on_secure_chain(self):
        _network, _clock, resolver, _tree = build_internet(sign=True)
        response = resolver.resolve("example.com.", rdtypes.HTTPS)
        assert response.authenticated_data
        assert response.get_answer("example.com.", rdtypes.RRSIG) is not None

    def test_no_ad_without_validator(self):
        _network, _clock, resolver, _tree = build_internet(sign=False)
        response = resolver.resolve("example.com.", rdtypes.HTTPS)
        assert not response.authenticated_data

    def test_servfail_on_bogus(self):
        _network, _clock, resolver, tree = build_internet(sign=True)
        zone = tree.get_zone(Name.from_text("example.com."))
        zone.corrupt_signature(Name.from_text("example.com."), rdtypes.HTTPS)
        response = resolver.resolve("example.com.", rdtypes.HTTPS)
        assert response.rcode == rdtypes.SERVFAIL

    def test_wire_mode_end_to_end(self):
        _network, _clock, resolver, _tree = build_internet(wire_mode=True)
        response = resolver.resolve("example.com.", rdtypes.HTTPS)
        assert response.get_answer("example.com.", rdtypes.HTTPS) is not None

    def test_ipv6_only_glue_followed(self):
        """Regression: referral glue harvesting only accepted A records,
        so an IPv6-only name server looked glueless and its zone became
        unreachable (its NS name does not resolve out-of-bailiwick)."""
        network, _clock, resolver, _tree = build_internet()
        com_server = network.dns_server_at("192.5.6.30")
        com = com_server.tree.zone_for(Name.from_text("v6only.com."))
        assert com is not None  # the com. zone serves the new delegation
        com.delegate(Name.from_text("v6only.com."), [Name.from_text("ns1.v6only.com.")])
        com.add_record("ns1.v6only.com.", "AAAA", "2001:db8::53")

        v6zone = Zone(Name.from_text("v6only.com."))
        v6zone.ensure_soa()
        v6zone.add_record("v6only.com.", "A", "10.0.0.99")
        v6zone.add_record("ns1.v6only.com.", "AAAA", "2001:db8::53")
        v6server = AuthoritativeServer("v6only")
        v6server.tree.add_zone(v6zone)
        network.register_dns("2001:db8::53", v6server)

        response = resolver.resolve("v6only.com.", rdtypes.A)
        assert response.rcode == rdtypes.NOERROR
        assert response.get_answer("v6only.com.", rdtypes.A) is not None

    def test_ns_selection_deterministic_within_day(self):
        network, _clock, resolver, _tree = build_internet()
        order1 = resolver._select_server(["1.1.1.1", "2.2.2.2", "3.3.3.3"], Name.from_text("a.com."))
        order2 = resolver._select_server(["1.1.1.1", "2.2.2.2", "3.3.3.3"], Name.from_text("a.com."))
        assert order1 == order2

    def test_ns_selection_varies_by_name(self):
        _network, _clock, resolver, _tree = build_internet()
        candidates = [f"10.0.0.{i}" for i in range(8)]
        orders = {
            tuple(resolver._select_server(candidates, Name.from_text(f"d{i}.com.")))
            for i in range(12)
        }
        assert len(orders) > 1


class TestStub:
    def test_failover_to_backup(self):
        network, clock, primary, tree = build_internet()
        # Break the primary by giving it no usable root hints.
        broken = RecursiveResolver("broken", network, ["203.0.113.99"], clock)
        stub = StubResolver([broken, primary])
        response = stub.query_https("example.com.")
        assert response.rcode == rdtypes.NOERROR

    def test_stub_needs_a_resolver(self):
        with pytest.raises(ValueError):
            StubResolver([])

    def test_frontend_adapts_queries(self):
        network, _clock, resolver, _tree = build_internet()
        network.register_dns("8.8.8.8", ResolverFrontend(resolver))
        query = Message.make_query("example.com.", rdtypes.HTTPS, 77)
        response = network.send_dns_query("8.8.8.8", query)
        assert response.msg_id == 77
        assert response.get_answer("example.com.", rdtypes.HTTPS) is not None


class TestNetwork:
    def test_unreachable_ip(self):
        network = Network()
        network.set_unreachable("1.2.3.4")
        with pytest.raises(HostUnreachable):
            network.send_dns_query("1.2.3.4", Message.make_query("a.com.", 1, 1))
        network.set_unreachable("1.2.3.4", False)
        assert network.is_reachable("1.2.3.4")

    def test_no_server(self):
        network = Network()
        with pytest.raises(HostUnreachable):
            network.send_dns_query("9.9.9.9", Message.make_query("a.com.", 1, 1))

    def test_tcp_port_closed(self):
        network = Network()
        with pytest.raises(PortClosed):
            network.connect_tcp("127.0.0.1", 443)

    def test_tcp_register_and_connect(self):
        network = Network()
        sentinel = object()
        network.register_tcp("1.1.1.1", 443, sentinel)
        assert network.connect_tcp("1.1.1.1", 443) is sentinel
        network.unregister_tcp("1.1.1.1", 443)
        with pytest.raises(PortClosed):
            network.connect_tcp("1.1.1.1", 443)


class TestNegativeTtlConfig:
    def test_resolver_honours_negative_ttl(self):
        network, clock, resolver, _tree = build_internet()
        resolver.negative_ttl = 5
        # NODATA answer with no SOA floor below negative_ttl: craft by
        # querying a name whose zone returns NODATA; SOA minimum caps it,
        # so exercise the bogus/SERVFAIL path instead, which always uses
        # negative_ttl.
        _n, _c, signed_resolver, tree = build_internet(sign=True)
        signed_resolver.negative_ttl = 5
        zone = tree.get_zone(Name.from_text("example.com."))
        zone.corrupt_signature(Name.from_text("example.com."), rdtypes.HTTPS)
        assert signed_resolver.resolve("example.com.", rdtypes.HTTPS).rcode == rdtypes.SERVFAIL
        count = signed_resolver.network.dns_query_count
        # Within the negative TTL the SERVFAIL is served from cache...
        assert signed_resolver.resolve("example.com.", rdtypes.HTTPS).rcode == rdtypes.SERVFAIL
        assert signed_resolver.network.dns_query_count == count
        # ...and once it lapses the resolver re-queries upstream.
        signed_resolver.clock.advance(6)
        signed_resolver.resolve("example.com.", rdtypes.HTTPS)
        assert signed_resolver.network.dns_query_count > count

    def test_simconfig_threads_negative_ttl_to_world_resolvers(self):
        world = World(SimConfig(population=30, negative_ttl=123))
        assert world.google_resolver.negative_ttl == 123
        assert world.cloudflare_resolver.negative_ttl == 123

    def test_default_matches_previous_constant(self):
        assert SimConfig().negative_ttl == 60
        network = Network()
        assert RecursiveResolver("r", network, []).negative_ttl == 60
