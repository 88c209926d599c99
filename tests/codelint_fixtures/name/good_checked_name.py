"""NAME01 good fixture: outside dnscore, names go through the checked
constructors."""

from repro.dnscore.names import Name


def tld_of(name):
    return Name((name.labels[-2], b""))


def parse(text):
    return Name.from_text(text).parent()
