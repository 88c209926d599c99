"""DNS message model and wire codec (RFC 1035 section 4).

Supports the header flags relevant to the study — notably AD (Authenticated
Data, RFC 3655/4035) which the scanner records for DNSSEC analysis — and the
four sections. Records in a section are grouped into RRsets on parse, one
RRset per (owner, type, class, TTL), so encoding a message and decoding it
again keeps its RRsets.

The codec packs and unpacks the header and each RR's fixed fields with
precompiled :class:`struct.Struct` formats and writes each rdata through
:meth:`Rdata.write_to`, which reuses the rdata's cached wire form where no
name in it can be compressed. Encodings are byte-identical to writing
every field and label one at a time; ``tests/test_wire_corpus.py`` pins
the digest of a campaign's worth of them.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from . import rdtypes
from .names import Name
from .rdata import Rdata, rdata_from_wire
from .rrset import RRset
from .wire import WireError, WireReader, WireWriter

_HEADER = struct.Struct("!6H")
_QUESTION_FIXED = struct.Struct("!HH")  # type, class
_RR_FIXED = struct.Struct("!HHIH")  # type, class, TTL, rdlength

FLAG_QR = 0x8000
FLAG_AA = 0x0400
FLAG_TC = 0x0200
FLAG_RD = 0x0100
FLAG_RA = 0x0080
FLAG_AD = 0x0020
FLAG_CD = 0x0010


class Question:
    """A single question section entry."""

    __slots__ = ("name", "rdtype", "rdclass")

    def __init__(self, name: Name, rdtype: int, rdclass: int = rdtypes.IN):
        if not isinstance(name, Name):
            name = Name.from_text(str(name))
        self.name = name
        self.rdtype = rdtype
        self.rdclass = rdclass

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Question):
            return NotImplemented
        return (self.name, self.rdtype, self.rdclass) == (other.name, other.rdtype, other.rdclass)

    def __hash__(self) -> int:
        return hash((self.name, self.rdtype, self.rdclass))

    def __repr__(self) -> str:
        return f"Question({self.name.to_text()} {rdtypes.type_to_text(self.rdtype)})"


class Message:
    """A DNS query or response.

    ``answer_entry`` is set only on responses an authoritative server
    serves with the answer fast path armed (the tier-3 handle the network
    reads); read it with ``getattr(message, "answer_entry", None)``.
    Slotted because wire mode keeps thousands of decoded query and
    answer templates alive."""

    __slots__ = (
        "msg_id", "flags", "rcode", "opcode", "questions", "answers",
        "authority", "additional", "use_edns", "edns_payload_size",
        "dnssec_ok", "answer_entry",
    )

    def __init__(self, msg_id: int = 0):
        self.msg_id = msg_id & 0xFFFF
        self.flags = 0
        self.rcode = rdtypes.NOERROR
        self.opcode = rdtypes.QUERY
        self.questions: List[Question] = []
        self.answers: List[RRset] = []
        self.authority: List[RRset] = []
        self.additional: List[RRset] = []
        # EDNS0 (RFC 6891): carried as an OPT pseudo-RR on the wire.
        self.use_edns = False
        self.edns_payload_size = 1232
        self.dnssec_ok = False  # the DO bit — ask for RRSIGs

    # -- flag helpers ------------------------------------------------------

    def _flag(self, mask: int) -> bool:
        return bool(self.flags & mask)

    def _set_flag(self, mask: int, value: bool) -> None:
        if value:
            self.flags |= mask
        else:
            self.flags &= ~mask

    @property
    def is_response(self) -> bool:
        return self._flag(FLAG_QR)

    @is_response.setter
    def is_response(self, value: bool) -> None:
        self._set_flag(FLAG_QR, value)

    @property
    def authoritative(self) -> bool:
        return self._flag(FLAG_AA)

    @authoritative.setter
    def authoritative(self, value: bool) -> None:
        self._set_flag(FLAG_AA, value)

    @property
    def truncated(self) -> bool:
        return self._flag(FLAG_TC)

    @truncated.setter
    def truncated(self, value: bool) -> None:
        self._set_flag(FLAG_TC, value)

    @property
    def recursion_desired(self) -> bool:
        return self._flag(FLAG_RD)

    @recursion_desired.setter
    def recursion_desired(self, value: bool) -> None:
        self._set_flag(FLAG_RD, value)

    @property
    def recursion_available(self) -> bool:
        return self._flag(FLAG_RA)

    @recursion_available.setter
    def recursion_available(self, value: bool) -> None:
        self._set_flag(FLAG_RA, value)

    @property
    def authenticated_data(self) -> bool:
        return self._flag(FLAG_AD)

    @authenticated_data.setter
    def authenticated_data(self, value: bool) -> None:
        self._set_flag(FLAG_AD, value)

    @property
    def checking_disabled(self) -> bool:
        return self._flag(FLAG_CD)

    @checking_disabled.setter
    def checking_disabled(self, value: bool) -> None:
        self._set_flag(FLAG_CD, value)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def make_query(cls, name, rdtype: int, msg_id: int = 0, want_dnssec: bool = False) -> "Message":
        query = cls(msg_id)
        query.recursion_desired = True
        if want_dnssec:
            query.use_edns = True
            query.dnssec_ok = True
        query.questions.append(Question(name, rdtype))
        return query

    def make_response(self) -> "Message":
        response = Message(self.msg_id)
        response.is_response = True
        response.recursion_desired = self.recursion_desired
        response.questions = list(self.questions)
        # EDNS is negotiated: a server answers with EDNS iff asked with it.
        response.use_edns = self.use_edns
        response.dnssec_ok = self.dnssec_ok
        return response

    # -- section access -------------------------------------------------------

    def find_rrset(self, section: List[RRset], name: Name, rdtype: int) -> Optional[RRset]:
        for rrset in section:
            if rrset.name == name and rrset.rdtype == rdtype:
                return rrset
        return None

    def get_answer(self, name, rdtype: int) -> Optional[RRset]:
        if not isinstance(name, Name):
            name = Name.from_text(str(name))
        return self.find_rrset(self.answers, name, rdtype)

    def answer_rrsets_of_type(self, rdtype: int) -> List[RRset]:
        return [rrset for rrset in self.answers if rrset.rdtype == rdtype]

    # -- wire codec ------------------------------------------------------------

    def to_wire(self) -> bytes:
        writer = WireWriter()
        write = writer.write_bytes
        write_name = writer.write_name
        flags = (self.flags & (0x7FB0 | FLAG_QR)) | ((self.opcode & 0xF) << 11) | (self.rcode & 0xF)
        sections = (self.answers, self.authority, self.additional)
        counts = [sum(map(len, section)) for section in sections]
        if self.use_edns:
            counts[2] += 1  # the OPT pseudo-RR rides in ADDITIONAL
        write(_HEADER.pack(
            self.msg_id & 0xFFFF, flags, len(self.questions) & 0xFFFF,
            *(count & 0xFFFF for count in counts),
        ))
        for question in self.questions:
            write_name(question.name)
            write(_QUESTION_FIXED.pack(question.rdtype & 0xFFFF, question.rdclass & 0xFFFF))
        for section in sections:
            for rrset in section:
                name = rrset.name
                fixed = _RR_FIXED.pack(
                    rrset.rdtype & 0xFFFF, rrset.rdclass & 0xFFFF, rrset.ttl & 0xFFFFFFFF, 0
                )
                for rdata in rrset:
                    write_name(name)
                    writer.write_rdata(fixed, rdata)
        if self.use_edns:
            # OPT RR (RFC 6891): root owner; CLASS carries the payload
            # size; the high TTL bits carry ext-rcode/version, the low 16
            # the flags (DO = 0x8000); no EDNS options.
            write(b"\x00")
            write(_RR_FIXED.pack(
                rdtypes.OPT, self.edns_payload_size & 0xFFFF, 0x8000 if self.dnssec_ok else 0, 0
            ))
        return writer.getvalue()

    @classmethod
    def from_wire(cls, data: bytes) -> "Message":
        if len(data) < 12:
            raise WireError("message shorter than header")
        reader = WireReader(data)
        read_name = reader.read_name
        read_struct = reader.read_struct
        msg_id, flags, qdcount, ancount, nscount, arcount = read_struct(_HEADER)
        msg = cls(msg_id)
        msg.flags = flags & (0x7FB0 | FLAG_QR)
        msg.opcode = (flags >> 11) & 0xF
        msg.rcode = flags & 0xF
        for _ in range(qdcount):
            name = read_name()
            rdtype, rdclass = read_struct(_QUESTION_FIXED)
            msg.questions.append(Question(name, rdtype, rdclass))
        for count, section in ((ancount, msg.answers), (nscount, msg.authority), (arcount, msg.additional)):
            if not count:
                continue
            rrsets = {}
            for _ in range(count):
                name = read_name()
                rdtype, rdclass, ttl, rdlength = read_struct(_RR_FIXED)
                if rdtype == rdtypes.OPT:
                    reader.read_bytes(rdlength)
                    msg.use_edns = True
                    msg.edns_payload_size = rdclass
                    msg.dnssec_ok = bool(ttl & 0x8000)
                    continue
                rdata = rdata_from_wire(rdtype, reader, rdlength)
                key = (name, rdtype, rdclass, ttl)
                rrset = rrsets.get(key)
                if rrset is None:
                    rrset = rrsets[key] = RRset(name, rdtype, ttl, rdclass=rdclass)
                    section.append(rrset)
                rrset.add(rdata)
        return msg

    def __repr__(self) -> str:
        question = self.questions[0] if self.questions else None
        return (
            f"Message(id={self.msg_id}, {'response' if self.is_response else 'query'}, "
            f"rcode={rdtypes.rcode_to_text(self.rcode)}, q={question}, "
            f"an={len(self.answers)} rrsets)"
        )
