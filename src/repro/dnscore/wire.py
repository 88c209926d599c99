"""Low-level DNS wire-format reader/writer.

The writer supports RFC 1035 name compression; the reader follows
compression pointers with loop protection.

Both work on whole byte strings with precompiled :class:`struct.Struct`
formats. The writer keys its compression table on slices of each name's
cached lower-cased label tuple (:meth:`Name._key`), so a suffix is never
lowered twice. Its output is byte-identical to a label-at-a-time encoder:
the same suffixes are registered at the same offsets, including names
written uncompressed. The reader converts its input to ``bytes`` once,
enforces the 63-octet label and 255-octet name limits itself, and so
builds decoded names with the unchecked :meth:`Name._unchecked`. It
remembers every name it decoded by start offset, so a compression
pointer to an earlier name returns that same :class:`Name` object, and
it returns one shared :class:`Name` per distinct (case-preserving)
label tuple across messages, so the decoded messages a process keeps
(the answer fast path's templates) hold each name once. That table is
bounded and cleared like :meth:`Name.from_text`'s memo.
Malformed input raises :class:`WireError` or :class:`BadPointer`, never
``IndexError`` or ``struct.error``.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from .names import MAX_NAME_LENGTH, BadPointer, Name

_MAX_POINTER_HOPS = 128
_POINTER_MASK = 0xC000
_MAX_OFFSET = 0x4000  # compression pointers carry 14 bits

_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")


# label tuple -> the one Name read_name returns for it (cleared when full).
_SHARED_NAMES: Dict[Tuple[bytes, ...], Name] = {}
_SHARED_NAMES_MAX = 200_000


def _shared_name(labels: Tuple[bytes, ...]) -> Name:
    name = _SHARED_NAMES.get(labels)
    if name is None:
        if len(_SHARED_NAMES) >= _SHARED_NAMES_MAX:
            _SHARED_NAMES.clear()
        name = _SHARED_NAMES[labels] = Name._unchecked(labels)
    return name


class WireError(ValueError):
    """Raised on truncated or malformed wire data."""


class WireWriter:
    """Accumulates a DNS message, compressing names against earlier output."""

    def __init__(self, enable_compression: bool = True):
        self._buf = bytearray()
        self._offsets: Dict[Tuple[bytes, ...], int] = {}
        self._enable_compression = enable_compression

    def __len__(self) -> int:
        return len(self._buf)

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def write_bytes(self, data: bytes) -> None:
        self._buf += data

    def write_u8(self, value: int) -> None:
        self._buf.append(value & 0xFF)

    def write_u16(self, value: int) -> None:
        self._buf += _U16.pack(value & 0xFFFF)

    def write_u32(self, value: int) -> None:
        self._buf += _U32.pack(value & 0xFFFFFFFF)

    def write_name(self, name: Name, compress: bool = True) -> None:
        """Write *name*, emitting a compression pointer for any suffix
        already present in the message. Every suffix written in full is
        registered for later compression, even when *compress* is off."""
        buf = self._buf
        if not self._enable_compression:
            # Nothing is ever looked up, so nothing needs registering.
            for label in name._labels:
                if not label:
                    break
                buf.append(len(label))
                buf += label
            buf.append(0)
            return
        offsets = self._offsets
        key = name._key_cache or name._key()
        for i, label in enumerate(name._labels):
            if not label:
                break
            suffix = key[i:]
            if compress:
                offset = offsets.get(suffix)
                if offset is not None:
                    buf += _U16.pack(_POINTER_MASK | offset)
                    return
            position = len(buf)
            if position < _MAX_OFFSET:
                offsets[suffix] = position
            buf.append(len(label))
            buf += label
        buf.append(0)

    def register_name(self, name: Name, offset: int) -> None:
        """Register *name*'s suffixes as if ``write_name(name,
        compress=False)`` had written it at *offset* (which the caller
        has already filled with those bytes)."""
        offsets = self._offsets
        key = name._key()
        for i, label in enumerate(name._labels):
            if not label or offset >= _MAX_OFFSET:
                break
            offsets[key[i:]] = offset
            offset += 1 + len(label)

    def write_rdata(self, fixed: bytes, rdata) -> None:
        """Write an RR's *fixed* fields, whose last two octets are the
        RDLENGTH placeholder, then *rdata* via its ``write_to(writer)``,
        then patch RDLENGTH."""
        buf = self._buf
        buf += fixed
        start = len(buf)
        rdata.write_to(self)
        _U16.pack_into(buf, start - 2, len(buf) - start)

    def reserve_u16(self) -> int:
        """Reserve two bytes (e.g. for RDLENGTH) and return their offset."""
        offset = len(self._buf)
        self._buf += b"\x00\x00"
        return offset

    def patch_u16(self, offset: int, value: int) -> None:
        _U16.pack_into(self._buf, offset, value & 0xFFFF)


class WireReader:
    """Sequential reader over a full DNS message (needed for pointers)."""

    def __init__(self, data: bytes, offset: int = 0):
        self._data = bytes(data)
        self._pos = offset
        # start offset -> (name, encoded length, pointer hops) of every
        # name decoded so far; pointers resolve against it.
        self._names: Dict[int, Tuple[Name, int, int]] = {}
        #: compression pointers followed by every read_name so far
        self.pointers_followed = 0

    @property
    def position(self) -> int:
        return self._pos

    def seek(self, offset: int) -> None:
        if not 0 <= offset <= len(self._data):
            raise WireError(f"seek to {offset} outside message of {len(self._data)} bytes")
        self._pos = offset

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def read_bytes(self, count: int) -> bytes:
        pos = self._pos
        end = pos + count
        if count < 0 or end > len(self._data):
            raise WireError(f"wanted {count} bytes, only {len(self._data) - pos} remain")
        self._pos = end
        return self._data[pos:end]

    def octets(self, start: int, end: int) -> bytes:
        """The message octets in ``[start, end)``, without moving."""
        return self._data[start:end]

    def read_struct(self, fmt: struct.Struct) -> tuple:
        """Unpack the fixed-size fields *fmt* at the current offset."""
        pos = self._pos
        end = pos + fmt.size
        if end > len(self._data):
            raise WireError(f"wanted {fmt.size} bytes, only {len(self._data) - pos} remain")
        self._pos = end
        return fmt.unpack_from(self._data, pos)

    def read_u8(self) -> int:
        return self.read_struct(_U8)[0]

    def read_u16(self) -> int:
        return self.read_struct(_U16)[0]

    def read_u32(self) -> int:
        return self.read_struct(_U32)[0]

    def read_name(self) -> Name:
        """Read a possibly-compressed name starting at the current offset."""
        data = self._data
        size = len(data)
        names = self._names
        start = pos = self._pos
        labels = []
        total = 1  # the root label's length octet
        hops = 0
        resume = -1  # where the sequential read continues after the name
        while True:
            if pos >= size:
                raise WireError("name runs past end of message")
            length = data[pos]
            if length >= 0xC0:
                if pos + 1 >= size:
                    raise WireError("truncated compression pointer")
                target = ((length & 0x3F) << 8) | data[pos + 1]
                hops += 1
                if hops > _MAX_POINTER_HOPS:
                    raise BadPointer("compression pointer loop")
                if resume < 0:
                    resume = pos + 2
                if target >= pos:
                    raise BadPointer("forward compression pointer")
                pos = target
                known = names.get(pos)
                if known is None:
                    continue
                # A pointer to a name decoded earlier: reuse it.
                suffix, length, depth = known
                hops += depth
                if hops > _MAX_POINTER_HOPS:
                    raise BadPointer("compression pointer loop")
                total += length - 1
                if total > MAX_NAME_LENGTH:
                    raise WireError(f"decoded name exceeds {MAX_NAME_LENGTH} octets")
                name = _shared_name(tuple(labels) + suffix._labels) if labels else suffix
                break
            if length & 0xC0:
                raise WireError(f"reserved label type 0x{length & 0xC0:02x}")
            if length == 0:
                labels.append(b"")
                if resume < 0:
                    resume = pos + 1
                name = _shared_name(tuple(labels))
                break
            end = pos + 1 + length
            if end > size:
                raise WireError("label runs past end of message")
            total += length + 1
            if total > MAX_NAME_LENGTH:
                raise WireError(f"decoded name exceeds {MAX_NAME_LENGTH} octets")
            labels.append(data[pos + 1 : end])
            pos = end
        self._pos = resume
        self.pointers_followed += hops
        names[start] = (name, total, hops)
        return name
