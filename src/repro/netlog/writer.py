"""NetLog JSON writer.

Serialises an event stream into the JSON document format produced by
``chrome --log-net-log``: a top-level object with a ``constants`` header
(carrying the event/source/phase name tables and the time origin) and an
``events`` array of ``{time, type, source: {id, type}, phase, params}``
records.  Writing the name tables makes the files self-describing, which is
what lets :mod:`repro.netlog.parser` also ingest logs written by other
producers (including real Chrome, modulo its much larger vocabulary).

Checksummed capture (``checksums=True``) adds end-to-end integrity
metadata that the parsers verify and ``repro fsck`` audits:

* every record gains a ``crc`` field — CRC32 over the record's canonical
  JSON form (sorted keys, no whitespace, integrity fields excluded);
* every record gains a ``chain`` field — a rolling hash chain,
  ``chain_n = crc32(canonical_n, chain_{n-1})`` seeded from
  :data:`CHAIN_SEED` — so records cannot be dropped, duplicated or
  reordered without breaking the chain;
* the document gains an ``integrity`` trailer carrying the event count
  and the final chain value, which catches clean whole-record tail
  truncation that record-level checks cannot see.

Both additions are backward compatible: the fields ride inside otherwise
ordinary records and an unknown top-level key, so checksummed documents
parse everywhere plain ones do.
"""

from __future__ import annotations

import functools
import io
import json
import zlib
from typing import IO, Iterable

from .constants import (
    EVENT_TYPE_NAMES,
    PHASE_NAMES,
    SOURCE_TYPE_NAMES,
)
from .events import NetLogEvent

FORMAT_VERSION = 1

#: Identifier of the checksum scheme, written into the integrity trailer.
CHECKSUM_ALGORITHM = "crc32-chain-v1"

#: Initial value of the rolling hash chain (a fixed, versioned seed so a
#: chain value is never accidentally valid against a different scheme).
CHAIN_SEED = zlib.crc32(b"repro-netlog-chain-v1")

#: Record fields that carry integrity metadata (excluded from hashing).
INTEGRITY_FIELDS = ("crc", "chain")

#: Renders the canonical form.  One shared instance: ``json.dumps`` with
#: ``sort_keys``/``separators`` would build a new encoder on every call.
_canonical_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":")
).encode


def canonical_record_bytes(record: dict) -> bytes:
    """The canonical byte form of a record that checksums are computed over.

    Key order and whitespace are normalised so the writer and the verifier
    agree regardless of how the record was produced; the integrity fields
    themselves are excluded (a checksum cannot cover itself).
    """
    stripped = {
        key: value
        for key, value in record.items()
        if key not in INTEGRITY_FIELDS
    }
    return _canonical_encode(stripped).encode("utf-8")


def event_to_record(event: NetLogEvent) -> dict:
    """Convert one event to its JSON-serialisable record."""
    record: dict = {
        "time": event.time,
        "type": int(event.type),
        "source": {"id": event.source.id, "type": int(event.source.type)},
        "phase": int(event.phase),
    }
    if event.params:
        record["params"] = event.params
    return record


def build_constants(time_origin_ms: float = 0.0) -> dict:
    """The ``constants`` header block for a log."""
    return {
        "logFormatVersion": FORMAT_VERSION,
        "timeTickOffset": time_origin_ms,
        "logEventTypes": {name: value for value, name in EVENT_TYPE_NAMES.items()},
        "logSourceType": {name: value for value, name in SOURCE_TYPE_NAMES.items()},
        "logEventPhase": {name: value for value, name in PHASE_NAMES.items()},
    }


@functools.lru_cache(maxsize=8, typed=True)
def _constants_text(time_origin_ms: float) -> str:
    """The encoded ``constants`` block: identical in every document.

    ``typed`` keeps ``0`` and ``0.0`` apart: they encode differently.
    """
    return json.dumps(build_constants(time_origin_ms))


def write_document_head(
    fp: IO[str],
    *,
    time_origin_ms: float = 0.0,
    extra: dict | None = None,
) -> None:
    """Open a NetLog document: extra keys, ``constants``, ``"events": [``.

    ``extra`` adds top-level keys (e.g. a visit-metadata block) ahead of
    the ``constants`` header; both parsers skip keys they do not model.
    """
    fp.write("{")
    if extra:
        for key, value in extra.items():
            fp.write(json.dumps(key))
            fp.write(": ")
            fp.write(json.dumps(value))
            fp.write(", ")
    fp.write('"constants": ')
    fp.write(_constants_text(time_origin_ms))
    fp.write(', "events": [')


def write_document_tail(
    fp: IO[str], *, checksums: bool = False, count: int = 0, chain: int = CHAIN_SEED
) -> None:
    """Close the ``events`` array and, when checksummed, add the trailer."""
    fp.write("]")
    if checksums:
        fp.write(', "integrity": ')
        fp.write(
            json.dumps(
                {
                    "algorithm": CHECKSUM_ALGORITHM,
                    "events": count,
                    "chain": chain,
                }
            )
        )
    fp.write("}")


class RecordWriter:
    """Incrementally serialises the body of one ``events`` array.

    The single place event records are turned into bytes: :func:`dump`
    drives one over a whole iterable, and :class:`NetLogBuffer` (the
    streaming-capture sink) writes records as the browser emits them.
    Tracks the running count and rolling hash chain so the caller can
    close the document with :func:`write_document_tail`.
    """

    __slots__ = ("fp", "checksums", "count", "chain")

    def __init__(self, fp: IO[str], *, checksums: bool = False) -> None:
        self.fp = fp
        self.checksums = checksums
        self.count = 0
        self.chain = CHAIN_SEED

    def write(self, event: NetLogEvent) -> None:
        record = event_to_record(event)
        if self.checksums:
            # The fresh record has no integrity fields yet, so it is
            # encoded as is rather than through a stripped copy.
            payload = _canonical_encode(record).encode("utf-8")
            record["crc"] = zlib.crc32(payload)
            self.chain = zlib.crc32(payload, self.chain)
            record["chain"] = self.chain
        if self.count:
            self.fp.write(",\n")
        self.fp.write(json.dumps(record))
        self.count += 1


class NetLogBuffer:
    """`EventSink` that serialises events to record text as they arrive.

    The streaming replacement for buffering raw event objects on a crawl
    record until archive time: each event is rendered to its final JSON
    record immediately and the event object dropped, so a visit holds one
    compact text body instead of a Python object graph.  The buffered
    body is document-agnostic — the archive prepends the (late-bound)
    ``visitMeta`` head and appends the integrity trailer when the visit's
    final metadata is known, producing bytes identical to a one-shot
    :func:`dumps` of the same events.

    ``finish`` returns the buffer itself; read ``body``/``count``/
    ``chain`` or hand it to :meth:`~repro.netlog.archive.NetLogArchive.
    write_buffered`.
    """

    __slots__ = ("_io", "_writer")

    format = "json"

    def __init__(self, *, checksums: bool = True) -> None:
        self._io = io.StringIO()
        self._writer = RecordWriter(self._io, checksums=checksums)

    def accept(self, event: NetLogEvent) -> None:
        self._writer.write(event)

    def finish(self) -> "NetLogBuffer":
        return self

    @property
    def body(self) -> str:
        """The serialised ``events`` array body (no brackets)."""
        return self._io.getvalue()

    @property
    def count(self) -> int:
        return self._writer.count

    @property
    def chain(self) -> int:
        return self._writer.chain

    @property
    def checksums(self) -> bool:
        return self._writer.checksums


def dump(
    events: Iterable[NetLogEvent],
    fp: IO[str],
    *,
    time_origin_ms: float = 0.0,
    checksums: bool = False,
    extra: dict | None = None,
) -> int:
    """Write a complete NetLog document to ``fp``; returns event count.

    Events are streamed rather than materialised, so arbitrarily long logs
    can be written in constant memory — the property that makes NetLog
    usable for the paper's multi-terabyte crawls.

    ``checksums=True`` emits per-record CRC32s, the rolling hash chain
    and the ``integrity`` trailer (see the module docstring).  ``extra``
    adds top-level keys (e.g. a visit-metadata block) ahead of the
    ``constants`` header; both parsers skip keys they do not model.
    """
    write_document_head(fp, time_origin_ms=time_origin_ms, extra=extra)
    writer = RecordWriter(fp, checksums=checksums)
    for event in events:
        writer.write(event)
    write_document_tail(
        fp, checksums=checksums, count=writer.count, chain=writer.chain
    )
    return writer.count


def dumps(
    events: Iterable[NetLogEvent],
    *,
    time_origin_ms: float = 0.0,
    checksums: bool = False,
    extra: dict | None = None,
) -> str:
    """Serialise a NetLog document to a string."""
    buffer = io.StringIO()
    dump(
        events,
        buffer,
        time_origin_ms=time_origin_ms,
        checksums=checksums,
        extra=extra,
    )
    return buffer.getvalue()
