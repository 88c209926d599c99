"""Rdata classes for the record types exercised by the study.

Each class implements:

* ``to_wire(writer)`` / ``from_wire(reader, rdlength)`` — RFC 1035 wire form
  (names inside RRSIG/SVCB rdata are written uncompressed per RFC 3597/4034);
* ``to_text()`` / ``from_text(text)`` — zone-file presentation form.

:meth:`Rdata.wire_bytes` caches the uncompressed wire form. For the types
whose wire form never uses the compression table (A, AAAA, TXT, DS,
DNSKEY, RRSIG, SVCB/HTTPS and opaque rdata) it is also what
:meth:`Rdata.write_to` puts into a message, so any in-place mutation of
an rdata must call :meth:`Rdata.invalidate_wire_cache` or later messages
carry the old bytes. :func:`rdata_from_wire` fills the cache with the
octets it decoded whenever those are already the canonical form.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple, Type

from ..svcb.params import SvcParamError, SvcParams, ipv4_packed, ipv4_text, ipv6_address
from . import rdtypes
from .names import Name
from .wire import WireError, WireReader, WireWriter

_KEY_FIXED = struct.Struct("!HBB")  # DNSKEY flags/protocol/algorithm, DS key tag/algorithm/digest type
_SOA_TIMERS = struct.Struct("!5I")
_RRSIG_FIXED = struct.Struct("!HBBIIIH")
_RRSIG_SIGNER_OFFSET = _RRSIG_FIXED.size
_SVCB_TARGET_OFFSET = 2  # after SvcPriority


class RdataError(ValueError):
    """Malformed rdata."""


class Rdata:
    """Base class for typed rdata. Immutable by convention."""

    rdtype: int = -1

    def to_wire(self, writer: WireWriter) -> None:
        raise NotImplementedError

    def write_to(self, writer: WireWriter) -> None:
        """Write this rdata into a message being encoded. The bytes equal
        ``to_wire(writer)``'s; types that never compress a name override
        this to copy :meth:`wire_bytes`."""
        self.to_wire(writer)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "Rdata":
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    @classmethod
    def from_text(cls, text: str) -> "Rdata":
        raise NotImplementedError

    def wire_bytes(self) -> bytes:
        """Canonical (uncompressed) wire form, cached.

        Rdata objects are treated as immutable once constructed; the rare
        in-place mutators (e.g. :meth:`Zone.corrupt_signature`) must call
        :meth:`invalidate_wire_cache`, because :meth:`write_to` copies
        these bytes into messages.
        """
        cached = getattr(self, "_wire_cache", None)
        if cached is None:
            writer = WireWriter(enable_compression=False)
            self.to_wire(writer)
            cached = writer.getvalue()
            self._wire_cache = cached
        return cached

    def invalidate_wire_cache(self) -> None:
        self._wire_cache = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rdata):
            return NotImplemented
        return self.rdtype == other.rdtype and self.wire_bytes() == other.wire_bytes()

    def __hash__(self) -> int:
        return hash((self.rdtype, self.wire_bytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self.to_text()}>"


class _NameFreeRdata(Rdata):
    """Base for types whose wire form holds no domain name, so a message
    carries exactly their cached :meth:`wire_bytes`."""

    def write_to(self, writer: WireWriter) -> None:
        writer.write_bytes(self.wire_bytes())


class ARdata(_NameFreeRdata):
    rdtype = rdtypes.A

    def __init__(self, address: str):
        self.address = ipv4_text(address)

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_bytes(ipv4_packed(self.address))

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "ARdata":
        if rdlength != 4:
            raise RdataError(f"A rdata must be 4 octets, got {rdlength}")
        packed = reader.read_bytes(4)
        rdata = cls.__new__(cls)
        rdata.address = "%d.%d.%d.%d" % tuple(packed)
        return rdata

    def to_text(self) -> str:
        return self.address

    @classmethod
    def from_text(cls, text: str) -> "ARdata":
        return cls(text.strip())


class AAAARdata(_NameFreeRdata):
    rdtype = rdtypes.AAAA

    def __init__(self, address: str):
        self.address = ipv6_address(address)[0]

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_bytes(ipv6_address(self.address)[1])

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "AAAARdata":
        if rdlength != 16:
            raise RdataError(f"AAAA rdata must be 16 octets, got {rdlength}")
        packed = reader.read_bytes(16)
        rdata = cls.__new__(cls)
        rdata.address = ipv6_address(packed)[0]
        return rdata

    def to_text(self) -> str:
        return self.address

    @classmethod
    def from_text(cls, text: str) -> "AAAARdata":
        return cls(text.strip())


class _SingleNameRdata(Rdata):
    """Common base for CNAME / NS."""

    def __init__(self, target: Name):
        if not isinstance(target, Name):
            target = Name.from_text(str(target))
        self.target = target

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_name(self.target)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int):
        return cls(reader.read_name())

    def to_text(self) -> str:
        return self.target.to_text()

    @classmethod
    def from_text(cls, text: str):
        return cls(Name.from_text(text.strip()))


class CNAMERdata(_SingleNameRdata):
    rdtype = rdtypes.CNAME


class NSRdata(_SingleNameRdata):
    rdtype = rdtypes.NS


class SOARdata(Rdata):
    rdtype = rdtypes.SOA

    def __init__(
        self,
        mname: Name,
        rname: Name,
        serial: int,
        refresh: int = 7200,
        retry: int = 3600,
        expire: int = 1209600,
        minimum: int = 300,
    ):
        self.mname = mname if isinstance(mname, Name) else Name.from_text(str(mname))
        self.rname = rname if isinstance(rname, Name) else Name.from_text(str(rname))
        self.serial = serial & 0xFFFFFFFF
        self.refresh = refresh
        self.retry = retry
        self.expire = expire
        self.minimum = minimum

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_name(self.mname)
        writer.write_name(self.rname)
        writer.write_bytes(_SOA_TIMERS.pack(
            self.serial & 0xFFFFFFFF, self.refresh & 0xFFFFFFFF, self.retry & 0xFFFFFFFF,
            self.expire & 0xFFFFFFFF, self.minimum & 0xFFFFFFFF,
        ))

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "SOARdata":
        mname = reader.read_name()
        rname = reader.read_name()
        return cls(mname, rname, *reader.read_struct(_SOA_TIMERS))

    def to_text(self) -> str:
        return (
            f"{self.mname.to_text()} {self.rname.to_text()} {self.serial} "
            f"{self.refresh} {self.retry} {self.expire} {self.minimum}"
        )

    @classmethod
    def from_text(cls, text: str) -> "SOARdata":
        fields = text.split()
        if len(fields) != 7:
            raise RdataError(f"SOA needs 7 fields, got {len(fields)}")
        return cls(
            Name.from_text(fields[0]),
            Name.from_text(fields[1]),
            int(fields[2]),
            int(fields[3]),
            int(fields[4]),
            int(fields[5]),
            int(fields[6]),
        )


class TXTRdata(_NameFreeRdata):
    rdtype = rdtypes.TXT

    def __init__(self, strings: Tuple[bytes, ...]):
        if isinstance(strings, (str, bytes)):
            strings = (strings,)
        normalized = []
        for item in strings:
            if isinstance(item, str):
                item = item.encode()
            if len(item) > 255:
                raise RdataError("TXT string exceeds 255 octets")
            normalized.append(bytes(item))
        if not normalized:
            raise RdataError("TXT needs at least one string")
        self.strings = tuple(normalized)

    def to_wire(self, writer: WireWriter) -> None:
        for item in self.strings:
            writer.write_u8(len(item))
            writer.write_bytes(item)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "TXTRdata":
        data = reader.read_bytes(rdlength)
        strings = []
        pos = 0
        while pos < rdlength:
            end = pos + 1 + data[pos]
            if end > rdlength:
                raise RdataError("TXT string runs past its rdata")
            strings.append(data[pos + 1 : end])
            pos = end
        return cls(tuple(strings))

    def to_text(self) -> str:
        return " ".join('"' + item.decode("utf-8", "replace").replace('"', '\\"') + '"' for item in self.strings)

    @classmethod
    def from_text(cls, text: str) -> "TXTRdata":
        text = text.strip()
        if text.startswith('"'):
            parts = [part for part in text.split('"') if part.strip() or part == ""]
            strings = [part for i, part in enumerate(text.split('"')) if i % 2 == 1]
        else:
            strings = text.split()
        return cls(tuple(item.encode() for item in strings))


class DNSKEYRdata(_NameFreeRdata):
    """DNSKEY (RFC 4034 section 2). The public key blob is opaque here;
    crypto semantics live in :mod:`repro.dnssec`."""

    rdtype = rdtypes.DNSKEY

    FLAG_ZONE = 0x0100
    FLAG_SEP = 0x0001

    def __init__(self, flags: int, protocol: int, algorithm: int, public_key: bytes):
        self.flags = flags
        self.protocol = protocol
        self.algorithm = algorithm
        self.public_key = bytes(public_key)

    def is_ksk(self) -> bool:
        return bool(self.flags & self.FLAG_SEP)

    def key_tag(self) -> int:
        """RFC 4034 appendix B key tag computation."""
        rdata = self.wire_bytes()
        total = 0
        for i, byte in enumerate(rdata):
            total += byte << 8 if i % 2 == 0 else byte
        total += (total >> 16) & 0xFFFF
        return total & 0xFFFF

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_bytes(_KEY_FIXED.pack(self.flags & 0xFFFF, self.protocol & 0xFF, self.algorithm & 0xFF))
        writer.write_bytes(self.public_key)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "DNSKEYRdata":
        if rdlength < 4:
            raise RdataError("DNSKEY rdata too short")
        data = reader.read_bytes(rdlength)
        return cls(*_KEY_FIXED.unpack_from(data), data[4:])

    def to_text(self) -> str:
        import base64

        return f"{self.flags} {self.protocol} {self.algorithm} {base64.b64encode(self.public_key).decode()}"

    @classmethod
    def from_text(cls, text: str) -> "DNSKEYRdata":
        import base64

        fields = text.split()
        if len(fields) < 4:
            raise RdataError("DNSKEY needs 4 fields")
        return cls(int(fields[0]), int(fields[1]), int(fields[2]), base64.b64decode("".join(fields[3:])))


class DSRdata(_NameFreeRdata):
    rdtype = rdtypes.DS

    def __init__(self, key_tag: int, algorithm: int, digest_type: int, digest: bytes):
        self.key_tag = key_tag
        self.algorithm = algorithm
        self.digest_type = digest_type
        self.digest = bytes(digest)

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_bytes(_KEY_FIXED.pack(self.key_tag & 0xFFFF, self.algorithm & 0xFF, self.digest_type & 0xFF))
        writer.write_bytes(self.digest)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "DSRdata":
        if rdlength < 4:
            raise RdataError("DS rdata too short")
        data = reader.read_bytes(rdlength)
        return cls(*_KEY_FIXED.unpack_from(data), data[4:])

    def to_text(self) -> str:
        return f"{self.key_tag} {self.algorithm} {self.digest_type} {self.digest.hex().upper()}"

    @classmethod
    def from_text(cls, text: str) -> "DSRdata":
        fields = text.split()
        if len(fields) < 4:
            raise RdataError("DS needs 4 fields")
        return cls(int(fields[0]), int(fields[1]), int(fields[2]), bytes.fromhex("".join(fields[3:])))


class RRSIGRdata(Rdata):
    rdtype = rdtypes.RRSIG

    def __init__(
        self,
        type_covered: int,
        algorithm: int,
        labels: int,
        original_ttl: int,
        expiration: int,
        inception: int,
        key_tag: int,
        signer: Name,
        signature: bytes,
    ):
        self.type_covered = type_covered
        self.algorithm = algorithm
        self.labels = labels
        self.original_ttl = original_ttl
        self.expiration = expiration & 0xFFFFFFFF
        self.inception = inception & 0xFFFFFFFF
        self.key_tag = key_tag
        self.signer = signer if isinstance(signer, Name) else Name.from_text(str(signer))
        self.signature = bytes(signature)

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_bytes(_RRSIG_FIXED.pack(
            self.type_covered & 0xFFFF, self.algorithm & 0xFF, self.labels & 0xFF,
            self.original_ttl & 0xFFFFFFFF, self.expiration & 0xFFFFFFFF,
            self.inception & 0xFFFFFFFF, self.key_tag & 0xFFFF,
        ))
        # RFC 4034: signer name is never compressed.
        writer.write_name(self.signer, compress=False)
        writer.write_bytes(self.signature)

    def write_to(self, writer: WireWriter) -> None:
        # The uncompressed signer still seeds the compression table.
        start = len(writer)
        writer.write_bytes(self.wire_bytes())
        writer.register_name(self.signer, start + _RRSIG_SIGNER_OFFSET)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "RRSIGRdata":
        start = reader.position
        fixed = reader.read_struct(_RRSIG_FIXED)
        signer = reader.read_name()
        consumed = reader.position - start
        if consumed > rdlength:
            raise RdataError("RRSIG signer name runs past the rdata")
        signature = reader.read_bytes(rdlength - consumed)
        return cls(*fixed, signer, signature)

    def to_text(self) -> str:
        import base64

        return (
            f"{rdtypes.type_to_text(self.type_covered)} {self.algorithm} {self.labels} "
            f"{self.original_ttl} {self.expiration} {self.inception} {self.key_tag} "
            f"{self.signer.to_text()} {base64.b64encode(self.signature).decode()}"
        )

    @classmethod
    def from_text(cls, text: str) -> "RRSIGRdata":
        import base64

        fields = text.split()
        if len(fields) < 9:
            raise RdataError("RRSIG needs 9 fields")
        return cls(
            rdtypes.text_to_type(fields[0]),
            int(fields[1]),
            int(fields[2]),
            int(fields[3]),
            int(fields[4]),
            int(fields[5]),
            int(fields[6]),
            Name.from_text(fields[7]),
            base64.b64decode("".join(fields[8:])),
        )


class SVCBBase(Rdata):
    """Shared implementation for SVCB and HTTPS (RFC 9460 section 2)."""

    def __init__(self, priority: int, target: Name, params: SvcParams = None):
        if not 0 <= priority <= 0xFFFF:
            raise RdataError(f"SvcPriority {priority} out of range")
        if not isinstance(target, Name):
            target = Name.from_text(str(target))
        params = params if params is not None else SvcParams()
        if priority == 0 and len(params):
            raise RdataError("AliasMode (SvcPriority 0) must not carry SvcParams")
        self.priority = priority
        self.target = target
        self.params = params

    # -- mode helpers -----------------------------------------------------

    @property
    def is_alias_mode(self) -> bool:
        return self.priority == 0

    @property
    def is_service_mode(self) -> bool:
        return self.priority != 0

    def effective_target(self, owner: Name) -> Name:
        """RFC 9460: a TargetName of "." means the owner name itself
        (ServiceMode) or is invalid-ish (AliasMode, "no alias")."""
        if self.target == Name.root():
            return owner
        return self.target

    # -- codecs ------------------------------------------------------------

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_u16(self.priority)
        # RFC 9460: TargetName is never compressed.
        writer.write_name(self.target, compress=False)
        writer.write_bytes(self.params.to_wire())

    def write_to(self, writer: WireWriter) -> None:
        # The uncompressed target still seeds the compression table.
        start = len(writer)
        writer.write_bytes(self.wire_bytes())
        writer.register_name(self.target, start + _SVCB_TARGET_OFFSET)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int):
        start = reader.position
        priority = reader.read_u16()
        target = reader.read_name()
        consumed = reader.position - start
        if consumed > rdlength:
            raise RdataError("SVCB target name runs past the rdata")
        try:
            params = SvcParams.from_wire(reader.read_bytes(rdlength - consumed))
        except SvcParamError as exc:
            raise RdataError(str(exc)) from exc
        return cls(priority, target, params)

    def to_text(self) -> str:
        text = f"{self.priority} {self.target.to_text()}"
        params_text = self.params.to_text()
        if params_text:
            text += " " + params_text
        return text

    @classmethod
    def from_text(cls, text: str):
        fields = text.split(None, 2)
        if len(fields) < 2:
            raise RdataError("SVCB/HTTPS needs at least priority and target")
        priority = int(fields[0])
        target = Name.from_text(fields[1])
        try:
            params = SvcParams.from_text(fields[2]) if len(fields) > 2 else SvcParams()
        except SvcParamError as exc:
            raise RdataError(str(exc)) from exc
        return cls(priority, target, params)


class SVCBRdata(SVCBBase):
    rdtype = rdtypes.SVCB


class HTTPSRdata(SVCBBase):
    rdtype = rdtypes.HTTPS


_RDATA_CLASSES: Dict[int, Type[Rdata]] = {
    rdtypes.A: ARdata,
    rdtypes.AAAA: AAAARdata,
    rdtypes.CNAME: CNAMERdata,
    rdtypes.NS: NSRdata,
    rdtypes.SOA: SOARdata,
    rdtypes.TXT: TXTRdata,
    rdtypes.DNSKEY: DNSKEYRdata,
    rdtypes.DS: DSRdata,
    rdtypes.RRSIG: RRSIGRdata,
    rdtypes.SVCB: SVCBRdata,
    rdtypes.HTTPS: HTTPSRdata,
}


# Types whose decoding normalises a field (SvcParams values), so their
# octets on the wire need not be the canonical form wire_bytes() builds.
_REENCODED = (SVCBRdata, HTTPSRdata)


class GenericRdata(_NameFreeRdata):
    """RFC 3597 opaque rdata for unknown types."""

    def __init__(self, rdtype: int, data: bytes):
        self.rdtype = rdtype
        self.data = bytes(data)

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_bytes(self.data)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "GenericRdata":  # pragma: no cover
        raise NotImplementedError("use rdata_from_wire")

    def to_text(self) -> str:
        return f"\\# {len(self.data)} {self.data.hex()}"

    @classmethod
    def from_text(cls, text: str) -> "GenericRdata":  # pragma: no cover
        raise NotImplementedError("use rdata_from_text with an explicit type")


def rdata_from_wire(rdtype: int, reader: WireReader, rdlength: int) -> Rdata:
    start = reader.position
    end = start + rdlength
    if rdlength > reader.remaining():
        raise WireError(f"rdlength {rdlength} runs past the end of the message")
    cls = _RDATA_CLASSES.get(rdtype)
    if cls is None:
        rdata = GenericRdata(rdtype, reader.read_bytes(rdlength))
    else:
        pointers = reader.pointers_followed
        rdata = cls.from_wire(reader, rdlength)
        if reader.position != end:
            raise RdataError(
                f"{rdtypes.type_to_text(rdtype)} rdata length mismatch: "
                f"consumed {reader.position - start} of {rdlength}"
            )
        if reader.pointers_followed != pointers or cls in _REENCODED:
            return rdata
    # No name in it was compressed and every field decodes exactly, so the
    # octets read are its canonical wire form.
    rdata._wire_cache = reader.octets(start, end)
    return rdata


def rdata_from_text(rdtype: int, text: str) -> Rdata:
    cls = _RDATA_CLASSES.get(rdtype)
    if cls is None:
        fields = text.split()
        if len(fields) >= 2 and fields[0] == "\\#":
            return GenericRdata(rdtype, bytes.fromhex("".join(fields[2:])))
        raise RdataError(f"no presentation parser for type {rdtype}")
    return cls.from_text(text)
