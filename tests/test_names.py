"""Unit tests for domain-name handling."""

import pytest

from repro.dnscore.names import (
    BadEscape,
    EmptyLabel,
    LabelTooLong,
    Name,
    NameTooLong,
    apex_of,
    www_of,
)


class TestParsing:
    def test_simple_name(self):
        name = Name.from_text("www.example.com")
        assert name.labels == (b"www", b"example", b"com", b"")

    def test_trailing_dot_optional(self):
        assert Name.from_text("a.com") == Name.from_text("a.com.")

    def test_root(self):
        assert Name.from_text(".").labels == (b"",)
        assert Name.from_text("").labels == (b"",)
        assert Name.root() == Name.from_text(".")

    def test_case_preserved_in_text(self):
        assert Name.from_text("ExAmple.COM").to_text() == "ExAmple.COM."

    def test_case_insensitive_equality(self):
        assert Name.from_text("EXAMPLE.com") == Name.from_text("example.COM")

    def test_case_insensitive_hash(self):
        assert hash(Name.from_text("A.com")) == hash(Name.from_text("a.COM"))

    def test_escaped_dot(self):
        name = Name.from_text("a\\.b.com")
        assert name.labels[0] == b"a.b"

    def test_decimal_escape(self):
        name = Name.from_text("a\\065b.com")
        assert name.labels[0] == b"aAb"

    def test_decimal_escape_out_of_range(self):
        with pytest.raises(BadEscape):
            Name.from_text("a\\999.com")

    def test_trailing_backslash_rejected(self):
        with pytest.raises(BadEscape):
            Name.from_text("abc\\")

    def test_empty_label_rejected(self):
        with pytest.raises(EmptyLabel):
            Name.from_text("a..com")

    def test_label_too_long(self):
        with pytest.raises(LabelTooLong):
            Name.from_text("a" * 64 + ".com")

    def test_name_too_long(self):
        label = "a" * 60
        with pytest.raises(NameTooLong):
            Name.from_text(".".join([label] * 5))

    def test_63_octet_label_allowed(self):
        name = Name.from_text("a" * 63 + ".com")
        assert len(name.labels[0]) == 63


def _run_with_hash_seed(seed: int, code: str, stdin: bytes) -> bytes:
    """Run *code* in a fresh interpreter with ``PYTHONHASHSEED=seed``,
    feeding it *stdin*; return its stdout."""
    import os
    import subprocess
    import sys

    import repro

    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


# Written by the pre-interning Name (pickle protocol 5): NEWOBJ on the
# class, then BUILD with a ``(labels,)`` state.
_OLD_FORMAT_MIXED_CASE = (
    b"\x80\x05\x95;\x00\x00\x00\x00\x00\x00\x00\x8c\x13repro.dnscore.names\x94"
    b"\x8c\x04Name\x94\x93\x94)\x81\x94C\x03Old\x94C\x07Example\x94C\x00\x94"
    b"\x87\x94\x85\x94b."
)
_OLD_FORMAT_EMPTY = (
    b"\x80\x05\x95'\x00\x00\x00\x00\x00\x00\x00\x8c\x13repro.dnscore.names\x94"
    b"\x8c\x04Name\x94\x93\x94)\x81\x94)\x85\x94b."
)


class TestPickling:
    """Regression: Name used to pickle its cached hash, which bakes in
    the writing interpreter's str-hash seed — a world snapshot loaded by
    a *resumed* collection (a fresh interpreter, new seed) then missed
    every dict lookup keyed by freshly constructed Names. Names now
    pickle as their labels and are re-interned on unpickle."""

    def test_hash_and_key_caches_never_cross_a_pickle_boundary(self):
        import pickle

        name = Name.from_text("Example.COM.")
        hash(name)  # populate the hash cache
        name.to_text()  # the text cache
        name.parent()  # and the parent cache
        assert name.__reduce__()[1] == (name.labels,)  # the labels alone
        clone = pickle.loads(pickle.dumps(name))
        assert clone is name  # re-interned, not a copy
        assert clone.to_text() == "Example.COM."  # case preserved
        lower = Name.from_text("example.com.")
        assert pickle.loads(pickle.dumps(lower)) is lower
        assert lower is not name and lower == name

    def test_lower_case_key_is_the_label_tuple(self):
        import pickle

        lower = Name.from_text("www.example.com.")
        assert lower._key_cache is lower.labels
        mixed = Name.from_text("WWW.Example.com.")
        assert mixed._key_cache == lower._key_cache and mixed._key_cache is not mixed.labels
        assert pickle.loads(pickle.dumps(lower)) is lower

    def test_unpickled_name_hits_fresh_dicts(self):
        import pickle

        table = {Name.from_text("a.example."): 1}
        stale = pickle.loads(pickle.dumps(Name.from_text("a.example.")))
        assert table[stale] == 1

    def test_unpickled_under_another_hash_seed_hits_fresh_dicts(self):
        # The writer caches every hash before pickling; the reader runs
        # under a different str-hash seed and looks the unpickled names
        # up in a dict keyed by names it parsed itself.
        texts = ["Example.COM.", "www.example.com.", "A.b.C.d.example.", "."]
        writer = (
            "import pickle, sys\n"
            "from repro.dnscore.names import Name\n"
            "names = [Name.from_text(t) for t in sys.stdin.read().split()]\n"
            "for name in names:\n"
            "    hash(name)\n"
            "    hash(name.parent()) if name.labels != (b'',) else None\n"
            "sys.stdout.buffer.write(pickle.dumps(names))\n"
        )
        reader = (
            "import pickle, sys\n"
            "from repro.dnscore.names import Name\n"
            f"texts = {texts!r}\n"
            "fresh = {Name.from_text(t.lower()): t for t in texts}\n"
            "names = pickle.loads(sys.stdin.buffer.read())\n"
            "assert [fresh[n] for n in names] == texts\n"
            "assert [n.to_text() for n in names] == texts\n"
            "assert all(n is Name.from_text(t) for n, t in zip(names, texts))\n"
            "print('ok')\n"
        )
        blob = _run_with_hash_seed(1, writer, " ".join(texts).encode())
        assert _run_with_hash_seed(2, reader, blob).strip() == b"ok"

    def test_old_format_state_still_loads(self):
        import pickle

        old = pickle.loads(_OLD_FORMAT_MIXED_CASE)
        current = Name.from_text("Old.Example.")
        assert old.labels == current.labels and old.to_text() == "Old.Example."
        assert old == current and hash(old) == hash(current)
        assert {Name.from_text("old.example."): 1}[old] == 1
        assert old.parent() is Name.from_text("Example.")
        # Re-pickling writes the current format, which re-interns.
        assert pickle.loads(pickle.dumps(old)) is current

    def test_empty_relative_name_round_trips(self):
        import pickle

        empty = Name(())
        assert pickle.loads(pickle.dumps(empty)) is empty
        # The old format wrapped the state in a 1-tuple so it stayed
        # truthy (pickle skips __setstate__ on a falsy state).
        old = pickle.loads(_OLD_FORMAT_EMPTY)
        assert old == empty and old.labels == ()


class TestTextRendering:
    def test_round_trip(self):
        for text in ("example.com.", "a.b.c.d.e.", "xn--espaa-rta.es."):
            assert Name.from_text(text).to_text() == text

    def test_escaping_special_bytes(self):
        name = Name((b"a.b", b"com", b""))
        assert name.to_text() == "a\\.b.com."
        assert Name.from_text(name.to_text()) == name

    def test_non_printable_escaped(self):
        name = Name((b"\x07bell", b"com", b""))
        assert "\\007" in name.to_text()
        assert Name.from_text(name.to_text()) == name

    def test_omit_final_dot(self):
        assert Name.from_text("a.com.").to_text(omit_final_dot=True) == "a.com"


def reference_to_text(name, omit_final_dot=False):
    """Label-at-a-time presentation format, the reference for the cached
    renderer."""
    if name.labels == (b"",):
        return "."
    parts = []
    for label in name.labels:
        if label == b"":
            continue
        chunk = []
        for byte in label:
            ch = chr(byte)
            if ch in ".\\":
                chunk.append("\\" + ch)
            elif 0x21 <= byte <= 0x7E:
                chunk.append(ch)
            else:
                chunk.append("\\%03d" % byte)
        parts.append("".join(chunk))
    text = ".".join(parts)
    if name.is_absolute() and not omit_final_dot:
        text += "."
    return text


class TestTextMatchesReference:
    def test_random_labels(self):
        import random

        rng = random.Random(7)
        alphabet = [ord("a"), ord("Z"), ord("-"), ord("."), ord("\\"), 0x00, 0x20, 0x7F, 0xFF]
        for _ in range(2000):
            labels = [
                bytes(rng.choice(alphabet) for _ in range(rng.randrange(1, 6)))
                for _ in range(rng.randrange(0, 4))
            ]
            if rng.random() < 0.8:
                labels.append(b"")
            name = Name(labels)
            for omit in (False, True, False):  # the last call reads the cache
                assert name.to_text(omit) == reference_to_text(name, omit)


class TestStructure:
    def test_parent(self):
        assert Name.from_text("www.a.com.").parent() == Name.from_text("a.com.")

    def test_root_is_shared(self):
        assert Name.root() is Name.root()

    def test_parent_slices_the_cached_key(self):
        name = Name.from_text("WWW.Example.COM.")
        hash(name)  # populate the key cache
        parent = name.parent()
        assert parent._key_cache == (b"example", b"com", b"")
        assert parent == Name.from_text("example.com.")
        assert parent.to_text() == "Example.COM."

    def test_parent_of_root_raises(self):
        with pytest.raises(Exception):
            Name.root().parent()

    def test_is_subdomain_of_self(self):
        name = Name.from_text("a.com.")
        assert name.is_subdomain_of(name)

    def test_is_subdomain_of_parent(self):
        assert Name.from_text("www.a.com.").is_subdomain_of(Name.from_text("a.com."))

    def test_is_subdomain_of_root(self):
        assert Name.from_text("a.com.").is_subdomain_of(Name.root())

    def test_not_subdomain_of_sibling(self):
        assert not Name.from_text("a.com.").is_subdomain_of(Name.from_text("b.com."))

    def test_not_subdomain_by_suffix_string(self):
        # "xa.com" must not count as a subdomain of "a.com".
        assert not Name.from_text("xa.com.").is_subdomain_of(Name.from_text("a.com."))

    def test_prepend(self):
        assert Name.from_text("a.com.").prepend("www") == Name.from_text("www.a.com.")

    def test_split_depth(self):
        assert Name.from_text("a.b.com.").split_depth() == 3
        assert Name.root().split_depth() == 0

    def test_canonical_ordering(self):
        # RFC 4034 6.1 ordering is right-to-left by label.
        a = Name.from_text("a.example.")
        b = Name.from_text("z.a.example.")
        c = Name.from_text("z.example.")
        assert a < b < c


class TestWire:
    def test_to_wire(self):
        assert Name.from_text("a.bc.").to_wire() == b"\x01a\x02bc\x00"

    def test_root_wire(self):
        assert Name.root().to_wire() == b"\x00"


class TestWwwHelpers:
    def test_www_of(self):
        assert www_of(Name.from_text("a.com.")) == Name.from_text("www.a.com.")

    def test_www_of_idempotent(self):
        www = Name.from_text("www.a.com.")
        assert www_of(www) == www

    def test_apex_of(self):
        assert apex_of(Name.from_text("www.a.com.")) == Name.from_text("a.com.")

    def test_apex_of_plain(self):
        name = Name.from_text("a.com.")
        assert apex_of(name) == name
