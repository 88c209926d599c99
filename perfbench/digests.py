"""Canonical dataset digests and failed-day accounting.

A digest is computed per scan day, per hourly-ECH day, and for the
DNSSEC snapshot. The encoding walks the dataset's values explicitly:
dict entries are sorted by their encoded key, sets by their encoded
element, and hourly ECH rows by their encoded row, so a digest depends
neither on ``PYTHONHASHSEED`` nor on set or dict iteration order. Lists
and tuples keep their order (the ranked list and probe order are data).
A value of a type the encoder does not know raises ``TypeError`` rather
than falling back to ``repr``, which could carry object ids.
"""

from __future__ import annotations

import datetime
import enum
import hashlib

HOURS_PER_DAY = 24


def _encode(value, out: list) -> None:
    kind = type(value)
    if value is None:
        out.append("N")
    elif kind is bool:
        out.append("T" if value else "F")
    elif kind is int:
        out.append(f"i{value};")
    elif kind is float:
        out.append(f"f{value!r};")
    elif kind is str:
        out.append(f"s{len(value)}:{value}")
    elif kind is bytes:
        out.append(f"b{value.hex()};")
    elif isinstance(value, (datetime.date, datetime.datetime)):
        out.append(f"d{value.isoformat()};")
    elif isinstance(value, enum.Enum):
        out.append(f"e{type(value).__name__}.")
        _encode(value.value, out)
    elif kind in (list, tuple):
        out.append("[")
        for item in value:
            _encode(item, out)
        out.append("]")
    elif kind is dict:
        pairs = sorted((encode(k), encode(v)) for k, v in value.items())
        out.append("{" + "".join(k + v for k, v in pairs) + "}")
    elif kind in (set, frozenset):
        out.append("<" + "".join(sorted(encode(item) for item in value)) + ">")
    elif hasattr(kind, "__slots__") and kind.__slots__:
        out.append(f"({kind.__name__}")
        for slot in kind.__slots__:
            out.append(f"{slot}=")
            _encode(getattr(value, slot), out)
        out.append(")")
    else:
        raise TypeError(f"no canonical encoding for {kind.__name__}")


def encode(value) -> str:
    out: list = []
    _encode(value, out)
    return "".join(out)


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def dataset_digests(dataset, date_of) -> dict:
    """``{"days": {iso: hex}, "ech": {iso: hex}, "dnssec": {...}}``.

    *date_of* maps the day index of an absolute ECH hour back to its date
    (``repro.simnet.timeline.date_of``), so ECH rows are digested per scan
    day and a mismatch can be charged to the day it belongs to.
    """
    days = {
        day.isoformat(): _hash(encode(snapshot))
        for day, snapshot in dataset.snapshots.items()
    }
    ech_rows: dict = {}
    for row in dataset.ech_observations:
        day = date_of(row.hour // HOURS_PER_DAY).isoformat()
        ech_rows.setdefault(day, []).append(encode(row))
    ech = {day: _hash("".join(sorted(rows))) for day, rows in ech_rows.items()}
    date = dataset.dnssec_snapshot_date
    return {
        "days": dict(sorted(days.items())),
        "ech": dict(sorted(ech.items())),
        "dnssec": {
            "date": None if date is None else date.isoformat(),
            "digest": _hash(encode(dataset.dnssec_snapshot)),
        },
    }


def failed_days(scheduled, observed, reference=None) -> list:
    """Scheduled scan days (ISO strings) that failed.

    A day fails when *observed* (a :func:`dataset_digests` result, or
    None when the run raised) lacks it, or when *reference* is given and
    the day's snapshot digest, its hourly-ECH digest, or — on the
    DNSSEC snapshot day — the snapshot digest differs from it."""
    if observed is None:
        return list(scheduled)
    failed = []
    for day in scheduled:
        if day not in observed["days"]:
            failed.append(day)
            continue
        if reference is None:
            continue
        if observed["days"][day] != reference["days"].get(day):
            failed.append(day)
        elif observed["ech"].get(day) != reference["ech"].get(day):
            failed.append(day)
        elif day in (observed["dnssec"]["date"], reference["dnssec"]["date"]) and (
            observed["dnssec"] != reference["dnssec"]
        ):
            failed.append(day)
    return failed
