"""NAME01 bad fixture: a Name built outside the intern table."""

from repro.dnscore import names
from repro.dnscore.names import Name


def blank():
    return object.__new__(Name)  # NAME01


def blank_through_module():
    return object.__new__(names.Name)  # NAME01


def legacy_blank():
    return Name.__new__(Name)  # NAME01


def make_later():
    build = Name.__new__  # NAME01: an alias is still a use
    return build(Name, (b"a", b""))
