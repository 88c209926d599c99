"""Unit tests for the ECH subsystem: config codec, HPKE simulation, key
rotation."""

import pickle

import pytest

from repro.ech.config import (
    ECH_VERSION_DRAFT13,
    ECHConfig,
    ECHConfigError,
    ECHConfigList,
    try_parse_config_list,
)
from repro.ech.hpke import HpkeError, HpkeKeyPair, open_, seal
from repro.ech.keys import ECHKeyManager


def make_config(config_id=7, public_name="cover.example"):
    keypair = HpkeKeyPair.generate(b"test-seed")
    return ECHConfig(config_id, keypair.public_key, public_name), keypair


class TestECHConfigCodec:
    def test_round_trip(self):
        config, _kp = make_config()
        parsed, consumed = ECHConfig.from_wire(config.to_wire())
        assert parsed == config
        assert consumed == len(config.to_wire())

    def test_list_round_trip(self):
        c1, _ = make_config(1)
        c2, _ = make_config(2, "other.example")
        config_list = ECHConfigList([c1, c2])
        parsed = ECHConfigList.from_wire(config_list.to_wire())
        assert parsed == config_list
        assert len(parsed) == 2

    def test_find_by_id(self):
        c1, _ = make_config(1)
        c2, _ = make_config(2)
        config_list = ECHConfigList([c1, c2])
        assert config_list.find_by_id(2) == c2
        assert config_list.find_by_id(99) is None

    def test_empty_list_rejected(self):
        with pytest.raises(ECHConfigError):
            ECHConfigList([])

    def test_version_checked(self):
        config, _ = make_config()
        wire = bytearray(config.to_wire())
        wire[0:2] = b"\xfe\x0a"  # older draft version
        with pytest.raises(ECHConfigError):
            ECHConfig.from_wire(bytes(wire))

    def test_bad_length_prefix(self):
        config, _ = make_config()
        wire = ECHConfigList([config]).to_wire()
        with pytest.raises(ECHConfigError):
            ECHConfigList.from_wire(wire[:-2])

    def test_malformed_returns_none(self):
        assert try_parse_config_list(b"\x00\x08garbage!") is None

    def test_wellformed_parses(self):
        config, _ = make_config()
        wire = ECHConfigList([config]).to_wire()
        assert try_parse_config_list(wire) is not None

    def test_public_name_bounds(self):
        keypair = HpkeKeyPair.generate(b"x")
        with pytest.raises(ECHConfigError):
            ECHConfig(1, keypair.public_key, "")
        with pytest.raises(ECHConfigError):
            ECHConfig(1, keypair.public_key, "a" * 256)

    def test_config_id_bounds(self):
        keypair = HpkeKeyPair.generate(b"x")
        with pytest.raises(ECHConfigError):
            ECHConfig(300, keypair.public_key, "cover.example")

    def test_empty_public_key_rejected(self):
        with pytest.raises(ECHConfigError):
            ECHConfig(1, b"", "cover.example")

    def test_trailing_garbage_rejected(self):
        config, _ = make_config()
        wire = bytearray(config.to_wire())
        # Grow the declared length and append garbage *inside* the config.
        import struct

        (length,) = struct.unpack_from("!H", wire, 2)
        struct.pack_into("!H", wire, 2, length + 2)
        with pytest.raises(ECHConfigError):
            ECHConfig.from_wire(bytes(wire) + b"zz")


class TestHpke:
    def test_seal_open_round_trip(self):
        keypair = HpkeKeyPair.generate(b"alpha")
        sealed = seal(keypair.public_key, b"info", b"aad", b"secret-sni")
        assert open_(keypair, b"info", b"aad", sealed) == b"secret-sni"

    def test_wrong_key_fails(self):
        recipient = HpkeKeyPair.generate(b"alpha")
        wrong = HpkeKeyPair.generate(b"beta")
        sealed = seal(recipient.public_key, b"info", b"aad", b"x")
        with pytest.raises(HpkeError):
            open_(wrong, b"info", b"aad", sealed)

    def test_tampered_ciphertext_fails(self):
        keypair = HpkeKeyPair.generate(b"alpha")
        sealed = bytearray(seal(keypair.public_key, b"info", b"aad", b"payload"))
        sealed[-1] ^= 0xFF
        with pytest.raises(HpkeError):
            open_(keypair, b"info", b"aad", bytes(sealed))

    def test_wrong_aad_fails(self):
        keypair = HpkeKeyPair.generate(b"alpha")
        sealed = seal(keypair.public_key, b"info", b"aad", b"payload")
        with pytest.raises(HpkeError):
            open_(keypair, b"info", b"other-aad", sealed)

    def test_short_blob_fails(self):
        keypair = HpkeKeyPair.generate(b"alpha")
        with pytest.raises(HpkeError):
            open_(keypair, b"info", b"aad", b"short")

    def test_nondeterministic_enc(self):
        keypair = HpkeKeyPair.generate(b"alpha")
        s1 = seal(keypair.public_key, b"i", b"a", b"p")
        s2 = seal(keypair.public_key, b"i", b"a", b"p")
        assert s1 != s2  # fresh ephemeral share every time

    def test_keypair_matches_public(self):
        keypair = HpkeKeyPair.generate(b"alpha")
        assert keypair.matches_public(keypair.public_key)
        assert not keypair.matches_public(b"\x00" * 32)


class TestKeyManager:
    def test_rotation_generations(self):
        km = ECHKeyManager("cover.example", rotation_hours=1.26)
        assert km.generation_for_hour(0) == 0
        assert km.generation_for_hour(2) == 1
        # Generation changes roughly every 1.26 hours.
        generations = [km.generation_for_hour(h) for h in range(24)]
        assert generations == sorted(generations)
        assert len(set(generations)) in (19, 20)

    def test_published_config_changes_with_generation(self):
        km = ECHKeyManager("cover.example", rotation_hours=1.0)
        assert km.published_wire(0) != km.published_wire(1)
        assert km.published_wire(0) == km.published_wire(0)

    def test_deterministic_across_instances(self):
        a = ECHKeyManager("cover.example", seed=b"s")
        b = ECHKeyManager("cover.example", seed=b"s")
        assert a.published_wire(5) == b.published_wire(5)

    def test_published_wire_memo_matches_config_list(self):
        km = ECHKeyManager("cover.example", seed=b"s", rotation_hours=1.26)
        hours = range(0, 30)
        assert len({km.generation_for_hour(h) for h in hours}) > 20
        for hour in list(hours) + list(hours):  # second pass hits the memo
            assert km.published_wire(hour) == km.published_config_list(hour).to_wire()

    def test_published_wire_memo_is_per_instance(self):
        a = ECHKeyManager("cover.example", seed=b"one", rotation_hours=1.26)
        b = ECHKeyManager("cover.example", seed=b"two", rotation_hours=1.26)
        for hour in range(12):
            assert a.published_wire(hour) != b.published_wire(hour)
        assert b.published_wire(3) == b.published_config_list(3).to_wire()

    def test_published_wire_survives_pickle(self):
        km = ECHKeyManager("cover.example", seed=b"s", rotation_hours=1.26)
        before = [km.published_wire(h) for h in range(10)]
        restored = pickle.loads(pickle.dumps(km))
        assert [restored.published_wire(h) for h in range(20)] == before + [
            km.published_config_list(h).to_wire() for h in range(10, 20)
        ]

    def test_active_keypairs_retain_previous(self):
        km = ECHKeyManager("cover.example", rotation_hours=1.0, retain_generations=1)
        keys = km.active_keypairs(10)
        assert len(keys) == 2
        assert keys[0] is km.keypair_for_generation(9)
        assert keys[1] is km.keypair_for_generation(10)

    def test_find_keypair(self):
        km = ECHKeyManager("cover.example", rotation_hours=1.0)
        current = km.keypair_for_generation(km.generation_for_hour(5))
        assert km.find_keypair(5, current.public_key) is current
        stale = km.keypair_for_generation(0)
        assert km.find_keypair(10, stale.public_key) is None

    def test_stale_config_triggers_retry_flow(self):
        """A client using a cached (old) config cannot be decrypted by the
        server once the retained window passes — the §4.4.2 hazard."""
        km = ECHKeyManager("cover.example", rotation_hours=1.0, retain_generations=1)
        old_config = km.published_config_list(0).primary()
        sealed = seal(old_config.public_key, b"i", b"aad", b"inner")
        later_keys = km.active_keypairs(10)
        for key in later_keys:
            with pytest.raises(HpkeError):
                open_(key, b"i", b"aad", sealed)
        retry = km.retry_config_list(10)
        fresh = retry.primary()
        sealed2 = seal(fresh.public_key, b"i", b"aad", b"inner")
        assert open_(km.active_keypairs(10)[-1], b"i", b"aad", sealed2) == b"inner"

    def test_observed_durations_mean_matches_rotation(self):
        km = ECHKeyManager("cover.example", rotation_hours=1.26)
        runs = km.observed_durations(0, 168)
        lengths = [length for _gen, length in runs]
        mean = sum(lengths) / len(lengths)
        assert 1.1 <= mean <= 1.4  # the paper's Figure 4 band

    def test_rotation_hours_positive(self):
        with pytest.raises(ValueError):
            ECHKeyManager("x", rotation_hours=0)
