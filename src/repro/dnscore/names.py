"""Domain name handling.

Implements DNS domain names as immutable label sequences with both
presentation-format (``"www.example.com."``) and wire-format (RFC 1035
section 3.1, including compression pointers) codecs.

Names are case-preserving but compare and hash case-insensitively, which
matches resolver behaviour (RFC 4343).

Names are hash-consed: every way of making one (``Name(...)``,
:meth:`Name.from_text`, :meth:`Name._unchecked`, :meth:`Name.parent`,
the wire reader and unpickling) returns the one object held for its exact
label tuple in a module intern table. Names that differ only in case are
distinct objects that compare equal. Each name computes its lower-cased
label tuple (``_key_cache``, the comparison key that the wire writer also
slices for its compression table; the label tuple itself when it is
already lower-case) when it is interned, and caches its ``hash``, its
presentation text and its :meth:`~Name.parent` on first use, so a dict
lookup or ``==`` on a name that came from the table is an identity hit.

The intern table holds at most ``_INTERN_MAX`` names and is emptied when
full. Names made before a clear stay valid and equal to the ones made
after it: equality and hashing use the key, never identity, so a clear
costs only speed. A name pickles as its labels alone and is re-interned
on unpickle, so the hash cache never crosses an interpreter boundary (a
different ``PYTHONHASHSEED`` would make it stale). Pickles written
before interning carry a ``(labels,)`` state, which ``__setstate__``
still loads into an equal, un-interned name.

Every public constructor validates the 63/255-octet limits. The one
unchecked constructor, :meth:`Name._unchecked`, is for code inside
``repro.dnscore`` whose labels are already known to be valid: a slice of
a valid name, or labels the wire reader has bounds-checked itself. The
``NAME01`` codelint rule keeps it, and any other way around the intern
table, inside this package.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

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

    __slots__ = ("_labels", "_key_cache", "_hash", "_text", "_parent")

    def __new__(cls, labels: Optional[Iterable[bytes]] = None) -> "Name":
        if labels is None:
            # Only the unpickler of a pre-interning pickle calls this
            # without labels; __setstate__ fills the blank in.
            return object.__new__(cls)
        labels = tuple(map(bytes, labels))
        name = _INTERNED.get(labels)
        if name is None:
            _validate_labels(labels)
            name = _intern(labels)
        return name

    @classmethod
    def _unchecked(cls, labels: Tuple[bytes, ...], key: Optional[Tuple[bytes, ...]] = None) -> "Name":
        """The interned name for a tuple of ``bytes`` labels, without
        validating it. Only for callers inside ``repro.dnscore`` that
        already hold the 63/255-octet and no-empty-inner-label guarantees
        (``NAME01``); *key*, when given, must be the lower-cased
        *labels*."""
        name = _INTERNED.get(labels)
        if name is None:
            name = _intern(labels, key)
        return name

    def _fill(self, labels: Tuple[bytes, ...], key: Optional[Tuple[bytes, ...]]) -> None:
        if key is None:
            joined = b"".join(labels)
            if joined.lower() == joined:
                key = labels  # already lower-case: no second tuple
            else:
                key = tuple(map(bytes.lower, labels))
        self._labels = labels
        self._key_cache = key
        self._hash: Optional[int] = None
        self._text: Optional[str] = None
        self._parent: Optional[Name] = None

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

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Name):
            return NotImplemented
        return self._key_cache == other._key_cache

    def __lt__(self, other: "Name") -> bool:
        # Canonical DNS ordering (RFC 4034 section 6.1): compare label
        # sequences right-to-left, case-insensitively.
        return self._canonical_order_key() < other._canonical_order_key()

    def _canonical_order_key(self) -> Tuple[bytes, ...]:
        labels = [label.lower() for label in self._labels if label != b""]
        return tuple(reversed(labels))

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self._key_cache)
        return value

    def __reduce__(self):
        # Only the labels cross a pickle boundary, never the caches (hash,
        # key, text, parent): the cached hash bakes in this interpreter's
        # str-hash seed, and a Name unpickled into another interpreter
        # would keep answering with the stale value, silently missing in
        # every dict keyed by freshly constructed Names. Unpickling
        # returns that interpreter's interned name.
        return (_unpickle, (self._labels,))

    def __setstate__(self, state) -> None:
        # Pickles written before interning: a blank from Name.__new__
        # and a (labels,) state. The result equals the interned name but
        # is not it.
        (labels,) = state  # validated when first constructed
        self._fill(labels, None)

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
        parent = self._parent
        if parent is None:
            labels = self._labels
            if labels == (b"",):
                raise NameError_("the root name has no parent")
            key = self._key_cache
            parent_labels = labels[1:]
            parent = self._parent = Name._unchecked(
                parent_labels, parent_labels if key is labels else key[1:]
            )
        return parent

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if *self* is equal to or underneath *other*."""
        if len(other._labels) > len(self._labels):
            return False
        return self._key_cache[-len(other._labels):] == other._key_cache

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


# exact label tuple -> the one Name for it (emptied when full).
_INTERNED: Dict[Tuple[bytes, ...], Name] = {}
_INTERN_MAX = 400_000


def _intern(labels: Tuple[bytes, ...], key: Optional[Tuple[bytes, ...]] = None) -> Name:
    name = object.__new__(Name)
    name._fill(labels, key)
    if len(_INTERNED) >= _INTERN_MAX:
        _INTERNED.clear()
    _INTERNED[labels] = name
    return name


def _unpickle(labels: Tuple[bytes, ...]) -> Name:
    # Validated when first constructed, like every label tuple this
    # program pickles.
    name = _INTERNED.get(labels)
    if name is None:
        name = _intern(labels)
    return name


_FROM_TEXT_CACHE: Dict[str, Name] = {}

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
