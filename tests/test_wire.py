"""Unit tests for the low-level wire reader/writer."""

import struct

import pytest

from repro.dnscore import rdtypes
from repro.dnscore.message import Message
from repro.dnscore.names import BadPointer, Name, NameError_
from repro.dnscore.rdata import RdataError
from repro.dnscore.wire import WireError, WireReader, WireWriter


def labels_wire(*lengths: int) -> bytes:
    """Uncompressed labels of the given lengths, without a terminator."""
    return b"".join(bytes([n]) + b"x" * n for n in lengths)


def answer_message(record: bytes) -> bytes:
    """A response header announcing one answer, then *record*."""
    return struct.pack("!6H", 7, 0x8000, 0, 1, 0, 0) + record


class TestWriter:
    def test_integers(self):
        writer = WireWriter()
        writer.write_u8(0xAB)
        writer.write_u16(0x1234)
        writer.write_u32(0xDEADBEEF)
        assert writer.getvalue() == b"\xab\x12\x34\xde\xad\xbe\xef"

    def test_name_compression(self):
        writer = WireWriter()
        writer.write_name(Name.from_text("www.example.com."))
        length_first = len(writer)
        writer.write_name(Name.from_text("mail.example.com."))
        # Second name shares the "example.com." suffix via a 2-byte pointer.
        assert len(writer) == length_first + 1 + 4 + 2

    def test_pointer_to_whole_name(self):
        writer = WireWriter()
        writer.write_name(Name.from_text("a.com."))
        before = len(writer)
        writer.write_name(Name.from_text("a.com."))
        assert len(writer) == before + 2

    def test_compression_case_insensitive(self):
        writer = WireWriter()
        writer.write_name(Name.from_text("A.COM."))
        before = len(writer)
        writer.write_name(Name.from_text("a.com."))
        assert len(writer) == before + 2

    def test_compression_disabled(self):
        writer = WireWriter(enable_compression=False)
        writer.write_name(Name.from_text("a.com."))
        before = len(writer)
        writer.write_name(Name.from_text("a.com."))
        assert len(writer) == before * 2

    def test_no_compression_flag_per_name(self):
        writer = WireWriter()
        writer.write_name(Name.from_text("a.com."))
        before = len(writer)
        writer.write_name(Name.from_text("a.com."), compress=False)
        assert len(writer) == before * 2

    def test_reserve_and_patch(self):
        writer = WireWriter()
        offset = writer.reserve_u16()
        writer.write_bytes(b"xyz")
        writer.patch_u16(offset, 3)
        assert writer.getvalue() == b"\x00\x03xyz"


class TestReader:
    def test_read_integers(self):
        reader = WireReader(b"\xab\x12\x34\xde\xad\xbe\xef")
        assert reader.read_u8() == 0xAB
        assert reader.read_u16() == 0x1234
        assert reader.read_u32() == 0xDEADBEEF

    def test_read_past_end(self):
        reader = WireReader(b"\x01")
        with pytest.raises(WireError):
            reader.read_u16()

    def test_name_round_trip(self):
        writer = WireWriter()
        writer.write_name(Name.from_text("www.example.com."))
        reader = WireReader(writer.getvalue())
        assert reader.read_name() == Name.from_text("www.example.com.")

    def test_compressed_name_round_trip(self):
        writer = WireWriter()
        writer.write_name(Name.from_text("www.example.com."))
        writer.write_name(Name.from_text("mail.example.com."))
        reader = WireReader(writer.getvalue())
        assert reader.read_name() == Name.from_text("www.example.com.")
        assert reader.read_name() == Name.from_text("mail.example.com.")

    def test_forward_pointer_rejected(self):
        # Pointer to offset 4 from offset 0 (forward) is invalid.
        data = b"\xc0\x04\x00\x00\x01a\x00"
        with pytest.raises((BadPointer, WireError)):
            WireReader(data).read_name()

    def test_pointer_loop_rejected(self):
        # offset 0: pointer to 2; offset 2: pointer back to 0 — but forward
        # pointers are rejected first; craft a self-loop at offset 2.
        data = b"\x01a\xc0\x02"
        reader = WireReader(data, offset=2)
        with pytest.raises((BadPointer, WireError)):
            reader.read_name()

    def test_truncated_label(self):
        with pytest.raises(WireError):
            WireReader(b"\x05ab").read_name()

    def test_reserved_label_type(self):
        with pytest.raises(WireError):
            WireReader(b"\x80a").read_name()

    def test_seek_bounds(self):
        reader = WireReader(b"abc")
        with pytest.raises(WireError):
            reader.seek(10)


class TestReaderLimits:
    def test_name_of_255_octets_through_a_pointer(self):
        # 129-octet name at 0; at 129, labels 63 + 61 and a pointer to
        # it: 64 + 62 + 129 = 255 octets.
        data = labels_wire(63, 63) + b"\x00" + labels_wire(63, 61) + b"\xc0\x00"
        reader = WireReader(data)
        reader.read_name()
        assert len(reader.read_name().to_wire()) == 255
        assert len(WireReader(data, offset=129).read_name().to_wire()) == 255

    def test_name_over_255_octets_through_a_pointer(self):
        data = labels_wire(63, 63) + b"\x00" + labels_wire(63, 62) + b"\xc0\x00"
        reader = WireReader(data)
        reader.read_name()
        # Both with the first name already decoded and from a fresh reader.
        with pytest.raises((WireError, NameError_)):
            reader.read_name()
        with pytest.raises((WireError, NameError_)):
            WireReader(data, offset=129).read_name()

    def test_pointer_to_an_earlier_name_returns_that_name(self):
        data = labels_wire(3, 3) + b"\x00" + b"\xc0\x00"
        reader = WireReader(data)
        first = reader.read_name()
        assert reader.read_name() is first
        assert reader.position == len(data)

    def test_rr_fixed_fields_truncated_mid_record(self):
        with pytest.raises(WireError):
            Message.from_wire(answer_message(b"\x00" + struct.pack("!HHI", rdtypes.A, 1, 300)))

    def test_rdlength_past_end_of_message(self):
        record = b"\x00" + struct.pack("!HHIH", rdtypes.A, 1, 300, 4) + b"\x01\x02"
        with pytest.raises(WireError):
            Message.from_wire(answer_message(record))

    def test_a_rdata_must_be_four_octets(self):
        record = b"\x00" + struct.pack("!HHIH", rdtypes.A, 1, 300, 5) + b"\x01\x02\x03\x04\x05"
        with pytest.raises(RdataError):
            Message.from_wire(answer_message(record))
