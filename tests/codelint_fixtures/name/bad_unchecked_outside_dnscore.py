"""NAME01 bad fixture: the unchecked Name constructor outside dnscore."""

from repro.dnscore.names import Name


def tld_of(name):
    return Name._unchecked((name.labels[-2], b""))  # NAME01


def make_fast():
    build = Name._unchecked  # NAME01: an alias is still a use
    return build((b"a" * 64, b""))
