"""Domain name handling.

Implements DNS domain names as immutable label sequences with both
presentation-format (``"www.example.com."``) and wire-format (RFC 1035
section 3.1, including compression pointers) codecs.

Names are case-preserving but compare and hash case-insensitively, which
matches resolver behaviour (RFC 4343).

A :class:`Name` caches three derived values on first use: the
lower-cased label tuple (``_key_cache``, the comparison key that the wire
writer also slices for its compression table; the label tuple itself
when it is already lower-case), its ``hash`` and the presentation text
(``_text``). None of them crosses a pickle boundary.

Every public constructor validates the 63/255-octet limits. The one
unchecked constructor, :meth:`Name._unchecked`, is for code inside
``repro.dnscore`` whose labels are already known to be valid: a slice of
a valid name, or labels the wire reader has bounds-checked itself. The
``NAME01`` codelint rule keeps it inside this package.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255


class NameError_(ValueError):
    """Raised for malformed domain names (avoids shadowing builtin NameError)."""


class LabelTooLong(NameError_):
    """A single label exceeds 63 octets."""


class NameTooLong(NameError_):
    """The encoded name exceeds 255 octets."""


class EmptyLabel(NameError_):
    """A label is empty (e.g. ``a..com``)."""


class BadEscape(NameError_):
    """Invalid escape sequence in presentation format."""


class BadPointer(NameError_):
    """Invalid compression pointer in wire format."""


def _validate_labels(labels: Tuple[bytes, ...]) -> None:
    total = 0
    for i, label in enumerate(labels):
        if len(label) > MAX_LABEL_LENGTH:
            raise LabelTooLong(f"label {label!r} exceeds {MAX_LABEL_LENGTH} octets")
        if not label and i != len(labels) - 1:
            raise EmptyLabel("empty label in the middle of a name")
        total += len(label) + 1
    if total > MAX_NAME_LENGTH:
        raise NameTooLong(f"name would encode to {total} octets")


class Name:
    """An immutable DNS domain name.

    A *absolute* name ends with the root label (empty bytes). All names
    produced by :meth:`from_text` are absolute; relative names are supported
    only as intermediate values for :meth:`relativize` output.
    """

    __slots__ = ("_labels", "_hash", "_key_cache", "_text")

    def __init__(self, labels: Iterable[bytes]):
        labels = tuple(map(bytes, labels))
        _validate_labels(labels)
        self._labels = labels
        self._hash: Optional[int] = None
        self._key_cache: Optional[Tuple[bytes, ...]] = None
        self._text: Optional[str] = None

    @classmethod
    def _unchecked(cls, labels: Tuple[bytes, ...], key: Optional[Tuple[bytes, ...]] = None) -> "Name":
        """Build a name from a tuple of ``bytes`` labels without validating
        it. Only for callers inside ``repro.dnscore`` that already hold
        the 63/255-octet and no-empty-inner-label guarantees (``NAME01``);
        *key*, when given, must be the lower-cased *labels*."""
        name = cls.__new__(cls)
        name._labels = labels
        name._hash = None
        name._key_cache = key
        name._text = None
        return name

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse presentation format. The trailing dot is optional; the
        result is always absolute.

        Supports ``\\.`` escapes and ``\\DDD`` decimal escapes.
        Results are memoized (names are immutable).
        """
        cached = _FROM_TEXT_CACHE.get(text)
        if cached is not None:
            return cached
        name = cls._from_text_uncached(text)
        if len(_FROM_TEXT_CACHE) > 400_000:
            _FROM_TEXT_CACHE.clear()
        _FROM_TEXT_CACHE[text] = name
        return name

    @classmethod
    def _from_text_uncached(cls, text: str) -> "Name":
        if text in (".", ""):
            return cls((b"",))
        labels = []
        current = bytearray()
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch == "\\":
                if i + 1 >= n:
                    raise BadEscape("trailing backslash")
                nxt = text[i + 1]
                if nxt.isdigit():
                    if i + 3 >= n or not (text[i + 2].isdigit() and text[i + 3].isdigit()):
                        raise BadEscape(f"bad decimal escape at offset {i}")
                    value = int(text[i + 1 : i + 4])
                    if value > 255:
                        raise BadEscape(f"escape value {value} out of range")
                    current.append(value)
                    i += 4
                else:
                    current.append(ord(nxt))
                    i += 2
                continue
            if ch == ".":
                if not current:
                    raise EmptyLabel(f"empty label in {text!r}")
                labels.append(bytes(current))
                current = bytearray()
            else:
                current.append(ord(ch))
            i += 1
        if current:
            labels.append(bytes(current))
        labels.append(b"")
        return cls(labels)

    @classmethod
    def root(cls) -> "Name":
        """The root name (the shared :data:`ROOT` instance)."""
        return ROOT

    # -- basic protocol ---------------------------------------------------

    @property
    def labels(self) -> Tuple[bytes, ...]:
        return self._labels

    def is_absolute(self) -> bool:
        return bool(self._labels) and self._labels[-1] == b""

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._labels)

    def _key(self) -> Tuple[bytes, ...]:
        key = self._key_cache
        if key is None:
            labels = self._labels
            joined = b"".join(labels)
            if joined.lower() == joined:
                key = labels  # already lower-case: no second tuple
            else:
                key = tuple(map(bytes.lower, labels))
            self._key_cache = key
        return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Name):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other: "Name") -> bool:
        # Canonical DNS ordering (RFC 4034 section 6.1): compare label
        # sequences right-to-left, case-insensitively.
        return self._canonical_order_key() < other._canonical_order_key()

    def _canonical_order_key(self) -> Tuple[bytes, ...]:
        labels = [label.lower() for label in self._labels if label != b""]
        return tuple(reversed(labels))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __getstate__(self):
        # Only the labels cross a pickle boundary, never the caches (hash,
        # key, text): the cached hash bakes in this interpreter's str-hash
        # seed, and a Name unpickled into another interpreter would keep
        # answering with the stale value, silently missing in every dict
        # keyed by freshly constructed Names. Wrapped in a 1-tuple so the
        # state is truthy even for an empty relative name (pickle skips
        # __setstate__ entirely on a falsy state).
        return (self._labels,)

    def __setstate__(self, state) -> None:
        (self._labels,) = state  # validated when first constructed
        self._hash = None
        self._key_cache = None
        self._text = None

    def __repr__(self) -> str:
        return f"Name({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()

    # -- text -------------------------------------------------------------

    def to_text(self, omit_final_dot: bool = False) -> str:
        text = self._text
        if text is None:
            text = self._text = self._render_text()
        if omit_final_dot and len(text) > 1 and self.is_absolute():
            return text[:-1]
        return text

    def _render_text(self) -> str:
        labels = self._labels
        if labels == (b"",):
            return "."
        absolute = self.is_absolute()
        if absolute:
            labels = labels[:-1]
        raw = b".".join(labels)
        if len(raw.translate(None, _PLAIN_OCTETS)) == len(labels) - 1:
            text = raw.decode("ascii")  # only the separating dots are left
        else:
            text = ".".join("".join(_ESCAPED[byte] for byte in label) for label in labels)
        return text + "." if absolute else text

    # -- structure --------------------------------------------------------

    def parent(self) -> "Name":
        """The name with the leftmost label removed.

        Raises :class:`NameError_` on the root name.
        """
        if self._labels == (b"",):
            raise NameError_("the root name has no parent")
        key = self._key_cache
        return Name._unchecked(self._labels[1:], None if key is None else key[1:])

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if *self* is equal to or underneath *other*."""
        if len(other._labels) > len(self._labels):
            return False
        return self._key()[-len(other._labels):] == other._key()

    def prepend(self, label: str) -> "Name":
        """Return a new name with *label* prepended (e.g. ``www``)."""
        return Name((label.encode("ascii"),) + self._labels)

    def split_depth(self) -> int:
        """Number of non-root labels."""
        return len(self._labels) - (1 if self.is_absolute() else 0)

    # -- wire -------------------------------------------------------------

    def to_wire(self) -> bytes:
        """Uncompressed wire encoding."""
        out = bytearray()
        for label in self._labels:
            out.append(len(label))
            out.extend(label)
        if not self.is_absolute():
            out.append(0)
        return bytes(out)


_FROM_TEXT_CACHE: dict = {}

# Octets a label may hold unescaped in presentation format, and the
# presentation form of every octet.
_PLAIN_OCTETS = bytes(b for b in range(0x21, 0x7F) if b not in b".\\")
_ESCAPED = tuple(
    "\\" + chr(b) if b in b".\\" else chr(b) if 0x21 <= b <= 0x7E else "\\%03d" % b
    for b in range(256)
)

ROOT = Name((b"",))


def www_of(name: Name) -> Name:
    """The ``www`` subdomain of *name* (identity if already www-prefixed)."""
    if name.labels and name.labels[0].lower() == b"www":
        return name
    return name.prepend("www")


def apex_of(name: Name) -> Name:
    """Strip a leading ``www`` label if present."""
    if name.labels and name.labels[0].lower() == b"www":
        return name.parent()
    return name
