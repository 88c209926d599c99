"""RFC 9460 SvcParams: typed key/value parameters for SVCB/HTTPS records.

Every parameter class implements both the wire format (section 2.2) and the
presentation format (appendix A), plus value-level validation. The registry
maps numeric keys to classes so unknown keys round-trip as opaque blobs
(``keyNNNNN`` presentation syntax).
"""

from __future__ import annotations

import ipaddress
import struct
from typing import Dict, List, Optional, Sequence, Tuple, Type

# IANA SvcParamKey numbers (RFC 9460 section 14.3.2, RFC 9461).
KEY_MANDATORY = 0
KEY_ALPN = 1
KEY_NO_DEFAULT_ALPN = 2
KEY_PORT = 3
KEY_IPV4HINT = 4
KEY_ECH = 5
KEY_IPV6HINT = 6
KEY_DOHPATH = 7

_KEY_NAMES = {
    KEY_MANDATORY: "mandatory",
    KEY_ALPN: "alpn",
    KEY_NO_DEFAULT_ALPN: "no-default-alpn",
    KEY_PORT: "port",
    KEY_IPV4HINT: "ipv4hint",
    KEY_ECH: "ech",
    KEY_IPV6HINT: "ipv6hint",
    KEY_DOHPATH: "dohpath",
}
_NAME_KEYS = {name: key for key, name in _KEY_NAMES.items()}

# Well-known ALPN protocol ids seen in the study (Table 8).
ALPN_HTTP11 = "http/1.1"
ALPN_H2 = "h2"
ALPN_H3 = "h3"
ALPN_H3_29 = "h3-29"
ALPN_H3_27 = "h3-27"
GOOGLE_QUIC_VERSIONS = ("Q043", "Q046", "Q050")


class SvcParamError(ValueError):
    """Malformed or invalid SvcParam."""


def key_to_name(key: int) -> str:
    if key in _KEY_NAMES:
        return _KEY_NAMES[key]
    return f"key{key}"


def name_to_key(name: str) -> int:
    if name in _NAME_KEYS:
        return _NAME_KEYS[name]
    if name.startswith("key"):
        try:
            key = int(name[3:])
        except ValueError as exc:
            raise SvcParamError(f"bad key name {name!r}") from exc
        if not 0 <= key <= 0xFFFF:
            raise SvcParamError(f"key number {key} out of range")
        return key
    raise SvcParamError(f"unknown SvcParamKey name {name!r}")


class SvcParam:
    """Base class. Subclasses set ``key`` and implement the codecs."""

    key: int = -1

    def to_wire_value(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def from_wire_value(cls, data: bytes) -> "SvcParam":
        raise NotImplementedError

    def value_to_text(self) -> str:
        raise NotImplementedError

    @classmethod
    def from_text_value(cls, text: str) -> "SvcParam":
        raise NotImplementedError

    def to_text(self) -> str:
        value = self.value_to_text()
        name = key_to_name(self.key)
        if value == "":
            return name
        return f"{name}={value}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SvcParam):
            return NotImplemented
        return self.key == other.key and self.to_wire_value() == other.to_wire_value()

    def __hash__(self) -> int:
        return hash((self.key, self.to_wire_value()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.value_to_text()!r})"


def _split_comma_list(text: str) -> List[str]:
    """Split a comma-separated value-list, honouring ``\\,`` escapes."""
    items: List[str] = []
    current: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            current.append(text[i + 1])
            i += 2
            continue
        if ch == ",":
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    items.append("".join(current))
    return items


class Mandatory(SvcParam):
    """``mandatory``: keys the client must understand (RFC 9460 section 8)."""

    key = KEY_MANDATORY

    def __init__(self, keys: Sequence[int]):
        keys = tuple(keys)
        if not keys:
            raise SvcParamError("mandatory list must not be empty")
        if KEY_MANDATORY in keys:
            raise SvcParamError("mandatory must not include itself")
        if list(keys) != sorted(set(keys)):
            raise SvcParamError("mandatory keys must be sorted and unique")
        self.keys = keys

    def to_wire_value(self) -> bytes:
        return b"".join(struct.pack("!H", key) for key in self.keys)

    @classmethod
    def from_wire_value(cls, data: bytes) -> "Mandatory":
        if len(data) % 2 or not data:
            raise SvcParamError("mandatory value must be a non-empty list of u16")
        keys = struct.unpack(f"!{len(data) // 2}H", data)
        return cls(keys)

    def value_to_text(self) -> str:
        return ",".join(key_to_name(key) for key in self.keys)

    @classmethod
    def from_text_value(cls, text: str) -> "Mandatory":
        return cls(sorted(name_to_key(item) for item in _split_comma_list(text)))


class Alpn(SvcParam):
    """``alpn``: ALPN protocol ids supported in addition to the default."""

    key = KEY_ALPN

    def __init__(self, protocols: Sequence[str]):
        protocols = tuple(protocols)
        if not protocols:
            raise SvcParamError("alpn list must not be empty")
        for proto in protocols:
            if not proto or len(proto.encode()) > 255:
                raise SvcParamError(f"bad alpn id {proto!r}")
        self.protocols = protocols

    def to_wire_value(self) -> bytes:
        out = bytearray()
        for proto in self.protocols:
            encoded = proto.encode()
            out.append(len(encoded))
            out.extend(encoded)
        return bytes(out)

    @classmethod
    def from_wire_value(cls, data: bytes) -> "Alpn":
        protocols = []
        pos = 0
        while pos < len(data):
            length = data[pos]
            pos += 1
            if length == 0 or pos + length > len(data):
                raise SvcParamError("malformed alpn value list")
            protocols.append(data[pos : pos + length].decode("utf-8", "replace"))
            pos += length
        return cls(protocols)

    def value_to_text(self) -> str:
        return ",".join(proto.replace("\\", "\\\\").replace(",", "\\,") for proto in self.protocols)

    @classmethod
    def from_text_value(cls, text: str) -> "Alpn":
        return cls(_split_comma_list(text))


class NoDefaultAlpn(SvcParam):
    """``no-default-alpn``: endpoint does not support the default protocol."""

    key = KEY_NO_DEFAULT_ALPN

    def to_wire_value(self) -> bytes:
        return b""

    @classmethod
    def from_wire_value(cls, data: bytes) -> "NoDefaultAlpn":
        if data:
            raise SvcParamError("no-default-alpn must have empty value")
        return cls()

    def value_to_text(self) -> str:
        return ""

    @classmethod
    def from_text_value(cls, text: str) -> "NoDefaultAlpn":
        if text:
            raise SvcParamError("no-default-alpn takes no value")
        return cls()


class Port(SvcParam):
    """``port``: alternative TCP/UDP port for the endpoint."""

    key = KEY_PORT

    def __init__(self, port: int):
        if not 0 <= port <= 0xFFFF:
            raise SvcParamError(f"port {port} out of range")
        self.port = port

    def to_wire_value(self) -> bytes:
        return struct.pack("!H", self.port)

    @classmethod
    def from_wire_value(cls, data: bytes) -> "Port":
        if len(data) != 2:
            raise SvcParamError("port value must be exactly 2 octets")
        return cls(struct.unpack("!H", data)[0])

    def value_to_text(self) -> str:
        return str(self.port)

    @classmethod
    def from_text_value(cls, text: str) -> "Port":
        try:
            return cls(int(text))
        except ValueError as exc:
            raise SvcParamError(f"bad port {text!r}") from exc


class Ipv4Hint(SvcParam):
    """``ipv4hint``: IPv4 addresses the client may use to reach the endpoint."""

    key = KEY_IPV4HINT

    def __init__(self, addresses: Sequence[str]):
        if not addresses:
            raise SvcParamError("ipv4hint must not be empty")
        parsed = [ipaddress.IPv4Address(addr) for addr in addresses]
        self.addresses = tuple(map(str, parsed))
        self._packed = b"".join(addr.packed for addr in parsed)

    def to_wire_value(self) -> bytes:
        return self._packed

    @classmethod
    def from_wire_value(cls, data: bytes) -> "Ipv4Hint":
        if len(data) % 4 or not data:
            raise SvcParamError("ipv4hint must be a non-empty multiple of 4 octets")
        # Straight from the octets: no parse back from the text form.
        hint = cls.__new__(cls)
        hint.addresses = tuple(
            "%d.%d.%d.%d" % tuple(data[i : i + 4]) for i in range(0, len(data), 4)
        )
        hint._packed = data
        return hint

    def value_to_text(self) -> str:
        return ",".join(self.addresses)

    @classmethod
    def from_text_value(cls, text: str) -> "Ipv4Hint":
        return cls(_split_comma_list(text))


class Ipv6Hint(SvcParam):
    """``ipv6hint``: IPv6 addresses the client may use to reach the endpoint."""

    key = KEY_IPV6HINT

    def __init__(self, addresses: Sequence[str]):
        if not addresses:
            raise SvcParamError("ipv6hint must not be empty")
        parsed = [ipaddress.IPv6Address(addr) for addr in addresses]
        self.addresses = tuple(map(str, parsed))
        self._packed = b"".join(addr.packed for addr in parsed)

    def to_wire_value(self) -> bytes:
        return self._packed

    @classmethod
    def from_wire_value(cls, data: bytes) -> "Ipv6Hint":
        if len(data) % 16 or not data:
            raise SvcParamError("ipv6hint must be a non-empty multiple of 16 octets")
        hint = cls.__new__(cls)
        hint.addresses = tuple(
            str(ipaddress.IPv6Address(data[i : i + 16])) for i in range(0, len(data), 16)
        )
        hint._packed = data
        return hint

    def value_to_text(self) -> str:
        return ",".join(self.addresses)

    @classmethod
    def from_text_value(cls, text: str) -> "Ipv6Hint":
        return cls(_split_comma_list(text))


class Ech(SvcParam):
    """``ech``: base64 ECHConfigList (draft-ietf-tls-svcb-ech)."""

    key = KEY_ECH

    def __init__(self, config_list: bytes):
        if not config_list:
            raise SvcParamError("ech value must not be empty")
        self.config_list = bytes(config_list)

    def to_wire_value(self) -> bytes:
        return self.config_list

    @classmethod
    def from_wire_value(cls, data: bytes) -> "Ech":
        return cls(data)

    def value_to_text(self) -> str:
        import base64

        return base64.b64encode(self.config_list).decode()

    @classmethod
    def from_text_value(cls, text: str) -> "Ech":
        import base64

        try:
            return cls(base64.b64decode(text, validate=True))
        except Exception as exc:
            raise SvcParamError(f"bad base64 in ech value: {exc}") from exc


class DohPath(SvcParam):
    """``dohpath`` (RFC 9461): URI template for a DoH service discovered
    via an ``_dns`` SVCB record. Must be relative and contain ``{?dns}``."""

    key = KEY_DOHPATH

    def __init__(self, template: str):
        if not template.startswith("/"):
            raise SvcParamError("dohpath must be a relative URI template")
        if "{?dns}" not in template:
            raise SvcParamError("dohpath must contain the {?dns} variable")
        self.template = template

    def to_wire_value(self) -> bytes:
        return self.template.encode("utf-8")

    @classmethod
    def from_wire_value(cls, data: bytes) -> "DohPath":
        try:
            return cls(data.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise SvcParamError(f"dohpath is not valid UTF-8: {exc}") from exc

    def value_to_text(self) -> str:
        return self.template

    @classmethod
    def from_text_value(cls, text: str) -> "DohPath":
        return cls(text)

    def resolved_path(self) -> str:
        """The GET path prefix with the template variable stripped
        (``/dns-query{?dns}`` → ``/dns-query``)."""
        return self.template.replace("{?dns}", "")


class OpaqueParam(SvcParam):
    """An unrecognized key; value round-trips as raw bytes."""

    def __init__(self, key: int, value: bytes):
        if not 0 <= key <= 0xFFFF:
            raise SvcParamError(f"key {key} out of range")
        self.key = key
        self.value = bytes(value)

    def to_wire_value(self) -> bytes:
        return self.value

    @classmethod
    def from_wire_value(cls, data: bytes) -> "OpaqueParam":  # pragma: no cover - via registry
        raise NotImplementedError("construct OpaqueParam with an explicit key")

    def value_to_text(self) -> str:
        return "".join(f"\\{byte:03d}" if not 0x21 <= byte <= 0x7E or byte in b'",\\' else chr(byte) for byte in self.value)

    @classmethod
    def from_text_value(cls, text: str) -> "OpaqueParam":  # pragma: no cover - via registry
        raise NotImplementedError


_REGISTRY: Dict[int, Type[SvcParam]] = {
    KEY_MANDATORY: Mandatory,
    KEY_ALPN: Alpn,
    KEY_NO_DEFAULT_ALPN: NoDefaultAlpn,
    KEY_PORT: Port,
    KEY_IPV4HINT: Ipv4Hint,
    KEY_ECH: Ech,
    KEY_IPV6HINT: Ipv6Hint,
    KEY_DOHPATH: DohPath,
}


def param_from_wire(key: int, value: bytes) -> SvcParam:
    cls = _REGISTRY.get(key)
    if cls is None:
        return OpaqueParam(key, value)
    return cls.from_wire_value(value)


def param_from_text(name: str, value: str) -> SvcParam:
    key = name_to_key(name)
    cls = _REGISTRY.get(key)
    if cls is None:
        # keyNNNNN=... opaque syntax; value is taken literally.
        return OpaqueParam(key, value.encode())
    return cls.from_text_value(value)


class SvcParams:
    """An ordered-by-key set of SvcParams with RFC 9460 validation."""

    def __init__(self, params: Sequence[SvcParam] = ()):
        by_key: Dict[int, SvcParam] = {}
        for param in params:
            if param.key in by_key:
                raise SvcParamError(f"duplicate SvcParamKey {key_to_name(param.key)}")
            by_key[param.key] = param
        self._params: Dict[int, SvcParam] = dict(sorted(by_key.items()))
        self._validate_mandatory()

    def _validate_mandatory(self) -> None:
        mandatory = self._params.get(KEY_MANDATORY)
        if mandatory is None:
            return
        assert isinstance(mandatory, Mandatory)
        for key in mandatory.keys:
            if key not in self._params:
                raise SvcParamError(
                    f"mandatory key {key_to_name(key)} is not present in SvcParams"
                )

    # -- mapping-ish ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self):
        return iter(self._params.values())

    def __contains__(self, key: int) -> bool:
        return key in self._params

    def get(self, key: int) -> Optional[SvcParam]:
        return self._params.get(key)

    def keys(self) -> Tuple[int, ...]:
        return tuple(self._params.keys())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SvcParams):
            return NotImplemented
        return list(self) == list(other)

    def __hash__(self) -> int:
        return hash(tuple(self._params.items()))

    def __repr__(self) -> str:
        return f"SvcParams({list(self._params.values())!r})"

    # -- convenience accessors ---------------------------------------------

    @property
    def alpn(self) -> Optional[Tuple[str, ...]]:
        param = self._params.get(KEY_ALPN)
        return param.protocols if isinstance(param, Alpn) else None

    @property
    def port(self) -> Optional[int]:
        param = self._params.get(KEY_PORT)
        return param.port if isinstance(param, Port) else None

    @property
    def ipv4hint(self) -> Tuple[str, ...]:
        param = self._params.get(KEY_IPV4HINT)
        return param.addresses if isinstance(param, Ipv4Hint) else ()

    @property
    def ipv6hint(self) -> Tuple[str, ...]:
        param = self._params.get(KEY_IPV6HINT)
        return param.addresses if isinstance(param, Ipv6Hint) else ()

    @property
    def ech(self) -> Optional[bytes]:
        param = self._params.get(KEY_ECH)
        return param.config_list if isinstance(param, Ech) else None

    @property
    def mandatory_keys(self) -> Tuple[int, ...]:
        param = self._params.get(KEY_MANDATORY)
        return param.keys if isinstance(param, Mandatory) else ()

    @property
    def dohpath(self) -> Optional[str]:
        param = self._params.get(KEY_DOHPATH)
        return param.template if isinstance(param, DohPath) else None

    def effective_alpn(self) -> Tuple[str, ...]:
        """The ALPN set a client should offer: the listed protocols plus
        the default (http/1.1) unless ``no-default-alpn`` is present."""
        protocols = list(self.alpn or ())
        if KEY_NO_DEFAULT_ALPN not in self._params and ALPN_HTTP11 not in protocols:
            protocols.append(ALPN_HTTP11)
        return tuple(protocols)

    # -- codecs -------------------------------------------------------------

    def to_wire(self) -> bytes:
        out = bytearray()
        for key, param in self._params.items():
            value = param.to_wire_value()
            out.extend(struct.pack("!HH", key, len(value)))
            out.extend(value)
        return bytes(out)

    @classmethod
    def from_wire(cls, data: bytes) -> "SvcParams":
        params = []
        pos = 0
        previous_key = -1
        while pos < len(data):
            if len(data) - pos < 4:
                raise SvcParamError("truncated SvcParam header")
            key, length = struct.unpack_from("!HH", data, pos)
            pos += 4
            if key <= previous_key:
                raise SvcParamError("SvcParamKeys must be in strictly increasing order")
            previous_key = key
            if len(data) - pos < length:
                raise SvcParamError("truncated SvcParam value")
            params.append(param_from_wire(key, data[pos : pos + length]))
            pos += length
        return cls(params)

    def to_text(self) -> str:
        return " ".join(param.to_text() for param in self._params.values())

    @classmethod
    def from_text(cls, text: str) -> "SvcParams":
        params = []
        for token in _tokenize(text):
            if "=" in token:
                name, _, value = token.partition("=")
                if value.startswith('"') and value.endswith('"') and len(value) >= 2:
                    value = value[1:-1]
            else:
                name, value = token, ""
            params.append(param_from_text(name, value))
        return cls(params)


def _tokenize(text: str) -> List[str]:
    """Split on whitespace, keeping double-quoted spans intact."""
    tokens: List[str] = []
    current: List[str] = []
    in_quotes = False
    for ch in text:
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
        elif ch.isspace() and not in_quotes:
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(ch)
    if in_quotes:
        raise SvcParamError("unterminated quote in SvcParams text")
    if current:
        tokens.append("".join(current))
    return tokens
