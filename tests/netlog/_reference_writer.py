"""Frozen ``json.dump`` NetLog writer: the reference for differential tests.

This is the JSON write path as it was before the writer switched to one
C-encoded ``json.dumps`` per value.  ``json.dump(obj, fp)`` never uses
CPython's C encoder, so every value went through the pure-Python
iterative encoder; the bytes it produced are the archive format, and the
fast writer must reproduce them exactly.  Covered here: the document
head and trailer, the per-record checksum fields, a whole-document
``dumps``, the archive's assembly of a buffered body into a document,
and the binary-to-JSON transcode.  Test-only: nothing under ``src/``
imports it.
"""

from __future__ import annotations

import io
import json
import zlib
from typing import IO, Iterable

from repro.netlog.binary import read_binary_document
from repro.netlog.constants import (
    EVENT_TYPE_NAMES,
    PHASE_NAMES,
    SOURCE_TYPE_NAMES,
)
from repro.netlog.events import NetLogEvent

FORMAT_VERSION = 1
CHECKSUM_ALGORITHM = "crc32-chain-v1"
CHAIN_SEED = zlib.crc32(b"repro-netlog-chain-v1")
INTEGRITY_FIELDS = ("crc", "chain")


def canonical_record_bytes(record: dict) -> bytes:
    stripped = {
        key: value
        for key, value in record.items()
        if key not in INTEGRITY_FIELDS
    }
    return json.dumps(stripped, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def event_to_record(event: NetLogEvent) -> dict:
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
    return {
        "logFormatVersion": FORMAT_VERSION,
        "timeTickOffset": time_origin_ms,
        "logEventTypes": {name: value for value, name in EVENT_TYPE_NAMES.items()},
        "logSourceType": {name: value for value, name in SOURCE_TYPE_NAMES.items()},
        "logEventPhase": {name: value for value, name in PHASE_NAMES.items()},
    }


def write_document_head(
    fp: IO[str],
    *,
    time_origin_ms: float = 0.0,
    extra: dict | None = None,
) -> None:
    fp.write("{")
    if extra:
        for key, value in extra.items():
            fp.write(json.dumps(key))
            fp.write(": ")
            json.dump(value, fp)
            fp.write(", ")
    fp.write('"constants": ')
    json.dump(build_constants(time_origin_ms), fp)
    fp.write(', "events": [')


def write_document_tail(
    fp: IO[str], *, checksums: bool = False, count: int = 0, chain: int = CHAIN_SEED
) -> None:
    fp.write("]")
    if checksums:
        fp.write(', "integrity": ')
        json.dump(
            {
                "algorithm": CHECKSUM_ALGORITHM,
                "events": count,
                "chain": chain,
            },
            fp,
        )
    fp.write("}")


class RecordWriter:
    def __init__(self, fp: IO[str], *, checksums: bool = False) -> None:
        self.fp = fp
        self.checksums = checksums
        self.count = 0
        self.chain = CHAIN_SEED

    def write(self, event: NetLogEvent) -> None:
        record = event_to_record(event)
        if self.checksums:
            payload = canonical_record_bytes(record)
            record["crc"] = zlib.crc32(payload)
            self.chain = zlib.crc32(payload, self.chain)
            record["chain"] = self.chain
        if self.count:
            self.fp.write(",\n")
        json.dump(record, self.fp)
        self.count += 1


def dumps(
    events: Iterable[NetLogEvent],
    *,
    time_origin_ms: float = 0.0,
    checksums: bool = False,
    extra: dict | None = None,
) -> str:
    fp = io.StringIO()
    write_document_head(fp, time_origin_ms=time_origin_ms, extra=extra)
    writer = RecordWriter(fp, checksums=checksums)
    for event in events:
        writer.write(event)
    write_document_tail(
        fp, checksums=checksums, count=writer.count, chain=writer.chain
    )
    return fp.getvalue()


def archived_document(
    events: Iterable[NetLogEvent], *, meta: dict | None, checksums: bool
) -> str:
    """The document the archive wrote for a buffered visit.

    The buffer held the record body; the archive wrapped it in the
    ``visitMeta`` head (at time origin 0) and the trailer.
    """
    body = io.StringIO()
    writer = RecordWriter(body, checksums=checksums)
    for event in events:
        writer.write(event)
    out = io.StringIO()
    write_document_head(
        out, extra={"visitMeta": meta} if meta is not None else None
    )
    out.write(body.getvalue())
    write_document_tail(
        out, checksums=checksums, count=writer.count, chain=writer.chain
    )
    return out.getvalue()


def to_json(document: bytes) -> str:
    """``repro.netlog.convert.to_json`` of a binary document."""
    header, records, trailer = read_binary_document(document, strict=True)
    out = io.StringIO()
    out.write("{")
    extra = (header or {}).get("extra")
    if isinstance(extra, dict):
        for key, value in extra.items():
            out.write(json.dumps(key))
            out.write(": ")
            json.dump(value, out)
            out.write(", ")
    constants = (header or {}).get("constants")
    if not isinstance(constants, dict):
        origin = (header or {}).get("timeTickOffset")
        constants = build_constants(
            origin if isinstance(origin, (int, float)) else 0.0
        )
    out.write('"constants": ')
    json.dump(constants, out)
    out.write(', "events": [')
    for index, record in enumerate(records):
        if index:
            out.write(",\n")
        json.dump(record, out)
    out.write("]")
    if trailer is not None and trailer.keys() != {"events"}:
        out.write(', "integrity": ')
        json.dump(trailer, out)
    out.write("}")
    return out.getvalue()
