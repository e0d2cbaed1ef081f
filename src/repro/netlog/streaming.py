"""Streaming NetLog parser for logs too large to hold in memory.

Real deployments of ``chrome --log-net-log`` produce multi-gigabyte
documents (the paper's study parsed 11 TB of telemetry).  ``json.load``
needs the whole document in memory; this module walks the top-level
object key by key and the ``events`` array record by record, yielding
one event at a time.  Memory is bounded by one input chunk plus the
largest single value.

Every JSON value — an object key, the ``constants`` block, each
``events`` record, the ``integrity`` trailer, a skipped top-level value
— is decoded by the stdlib's C scanner (``json.JSONDecoder.raw_decode``)
straight out of the chunk buffer, so value semantics are identical to
the whole-document parser.  Python only looks at the punctuation
between values.  The buffer is refilled only when a value runs past its
end; a value longer than one chunk is gathered chunk by chunk and joined
once.

A value the C decoder rejects takes the fallback: a string-aware bracket
scan finds where the value ends.  That scan is what tells the two kinds
of damage apart.  A value that closes but does not decode (in-place
corruption) is dropped and the walk goes on after it; a value that never
closes (the input was cut inside it) is truncation.

Damage tolerance: a NetLog from a killed browser ends mid-stream — no
closing ``]}``, sometimes a half-written record, sometimes a NUL-padded
tail (page-cache flush of a sparse file).  With ``strict=False`` the
walker yields every event up to the damage point and stops, recording
``truncated`` (and a dropped partial record, if any) in the optional
:class:`~repro.netlog.parser.ParseStats` instead of raising.
"""

from __future__ import annotations

import json
import re
from typing import IO, Iterator

from .constants import EventType
from .events import NetLogEvent
from .parser import (
    ChainVerifier,
    NetLogParseError,
    NetLogTruncationError,
    ParseStats,
    parse_record,
)

_CHUNK_SIZE = 64 * 1024

_raw_decode = json.JSONDecoder().raw_decode
_WHITESPACE = re.compile(r"[ \t\r\n]*")
#: The characters the fallback scan stops at: outside a string for each
#: bracket kind, and inside a string.
_OBJECT_MARKS = re.compile(r'["{}]')
_ARRAY_MARKS = re.compile(r'["[\]]')
_STRING_MARKS = re.compile(r'["\\]')
#: Where a skipped scalar ends: the enclosing structure's next delimiter.
_SCALAR_END = re.compile(r"[,}\]]")
#: First characters of the JSON values other than an object.
_VALUE_STARTS = frozenset('"[-0123456789tfn')


class _Scanner:
    """Cursor over a bounded chunk buffer of a text stream.

    A NUL character is treated as (sticky) end of input: real truncated
    NetLogs are often padded with NULs up to a block boundary, and no
    valid JSON contains a raw NUL outside an escape sequence.  A chunk is
    cut at its first NUL and nothing after it is ever read.
    """

    __slots__ = ("_fp", "_buffer", "_position", "_eof")

    def __init__(self, fp: IO[str]) -> None:
        self._fp = fp
        self._buffer = ""
        self._position = 0
        self._eof = False

    def _read_chunk(self) -> str:
        """The next chunk of input, or '' once input has ended."""
        if self._eof:
            return ""
        chunk = self._fp.read(_CHUNK_SIZE)
        nul = chunk.find("\x00")
        if nul >= 0:
            chunk = chunk[:nul]
            self._eof = True
        elif not chunk:
            self._eof = True
        return chunk

    def read_nonspace(self) -> str:
        """Consume the next non-whitespace character; '' at end of input."""
        while True:
            position = _WHITESPACE.match(self._buffer, self._position).end()
            if position < len(self._buffer):
                self._position = position + 1
                return self._buffer[position]
            self._buffer = self._read_chunk()
            self._position = 0
            if not self._buffer:
                return ""

    def push_back(self) -> None:
        """Return the character :meth:`read_nonspace` just consumed."""
        self._position -= 1

    def decode(self) -> object:
        """Decode the value under the cursor and move past it.

        Raises :class:`json.JSONDecodeError`, with the cursor already
        past the value, when the value closes but is not valid JSON, and
        :class:`NetLogTruncationError` when input ends inside it.
        """
        try:
            value, self._position = _raw_decode(self._buffer, self._position)
        except json.JSONDecodeError:
            start, end = self._extent()
            self._position = end
            try:
                value = _raw_decode(self._buffer, start)[0]
            except json.JSONDecodeError:
                # Undecodable: raise what decoding the value alone raises.
                value = json.loads(self._buffer[start:end])
        return value

    def skip(self, first: str) -> None:
        """Move past the value whose first character was just consumed."""
        if first == '"':
            # A skipped string is still decoded: a bad escape raises.
            self.push_back()
            self.decode()
        elif first in "{[":
            self.push_back()
            try:
                self._position = _raw_decode(self._buffer, self._position)[1]
            except json.JSONDecodeError:
                self._position = self._extent()[1]
        else:
            self._skip_scalar()

    def _skip_scalar(self) -> None:
        """Consume up to the next delimiter, tolerating any garbage.

        A comma is consumed, but a closing brace or bracket belongs to
        the enclosing structure and stays, so ``{"key": 1}`` still
        reaches the missing-events check instead of reading as truncated.
        """
        while True:
            match = _SCALAR_END.search(self._buffer, self._position)
            if match is not None:
                self._position = (
                    match.end() if match.group() == "," else match.start()
                )
                return
            self._buffer = self._read_chunk()
            self._position = 0
            if not self._buffer:
                return

    def _extent(self) -> tuple[int, int]:
        """Where the value under the cursor starts and ends in the buffer.

        The fallback for a value the C decoder rejects: a string-aware
        scan for its closing quote or bracket.  When the value runs past
        the buffer, later chunks are gathered until it closes and joined
        once, so the buffer is rebuilt to start at the value.
        """
        buffer = self._buffer
        start = self._position
        opener = buffer[start]
        marks, closer = (
            (_ARRAY_MARKS, "]") if opener == "[" else (_OBJECT_MARKS, "}")
        )
        in_string = opener == '"'
        depth = 0 if in_string else 1
        text = buffer
        index = start + 1
        pieces: list[str] = []
        while True:
            match = (_STRING_MARKS if in_string else marks).search(text, index)
            if match is None:
                # ``index`` may sit one past the end: an escape's
                # character is the next chunk's first.
                index = max(index - len(text), 0)
                text = self._read_chunk()
                if not text:
                    raise NetLogTruncationError("unterminated value")
                pieces.append(text)
                continue
            mark = match.group()
            index = match.end()
            if mark == "\\":
                index += 1
            elif mark == '"':
                in_string = not in_string
                if not in_string and not depth:
                    break
            elif mark == closer:
                depth -= 1
                if not depth:
                    break
            else:
                depth += 1
        if not pieces:
            return start, index
        head = buffer[start:]
        end = len(head) + sum(map(len, pieces[:-1])) + index
        self._buffer = "".join([head, *pieces])
        return 0, end


def iter_events_streaming(
    fp: "bytes | str | IO[str] | IO[bytes]",
    *,
    strict: bool = False,
    stats: ParseStats | None = None,
    require_events: bool = False,
) -> Iterator[NetLogEvent]:
    """Yield NetLog events from any document source with bounded memory.

    Accepts document text, document bytes, or a file object of either;
    the format is sniffed from the first byte.  Binary (``nlbin-v1``)
    documents take the zero-copy frame scanner in
    :mod:`repro.netlog.binary`; JSON documents take the chunked walk
    below, which reads the top-level object key by key — the
    ``constants`` block is decoded (for the event-type name table), every
    other non-``events`` key is skipped, and the ``events`` array is
    walked record by record, each value decoded by the C JSON decoder.

    Unknown event types are skipped when ``strict`` is False (the
    default here, unlike the whole-document parser, because real Chrome
    logs carry hundreds of event types beyond the modelled subset).
    Non-strict mode also tolerates physical damage: on a truncated or
    NUL-padded document the generator yields the intact event prefix,
    marks ``stats.truncated`` and stops instead of raising.

    ``require_events=True`` raises :class:`NetLogParseError` when a
    document *completes* without ever presenting an ``events`` array —
    matching the whole-document parser's rejection of arbitrary JSON
    objects — while still tolerating truncation as above (a cut-off
    document never reaches its closing brace, so the check cannot fire).
    """
    from .codec import FORMAT_BINARY, coerce_stream, sniff_format

    if isinstance(fp, (bytes, bytearray, memoryview)) and (
        sniff_format(fp) == FORMAT_BINARY
    ):
        # In-memory binary documents skip the stream wrapper entirely so
        # the fused zero-copy scanner sees the raw buffer.
        from .binary import iter_events_binary

        yield from iter_events_binary(fp, strict=strict, stats=stats)
        return
    format_name, stream = coerce_stream(fp)
    if format_name == FORMAT_BINARY:
        from .binary import iter_events_binary

        yield from iter_events_binary(stream, strict=strict, stats=stats)
        return
    try:
        yield from _iter_document(
            _Scanner(stream), strict, stats, require_events
        )
    except NetLogTruncationError:
        if strict:
            raise
        if stats is not None:
            stats.truncated = True


def _iter_document(
    scanner: _Scanner,
    strict: bool,
    stats: ParseStats | None,
    require_events: bool = False,
) -> Iterator[NetLogEvent]:
    opener = scanner.read_nonspace()
    if opener != "{":
        if not opener:
            raise NetLogTruncationError("empty NetLog document")
        raise NetLogParseError("NetLog document must be a JSON object")

    event_names: dict[str, int] = {}
    verifier = ChainVerifier()
    saw_events = False
    while True:
        ch = scanner.read_nonspace()
        if ch == "}":
            if require_events and not saw_events:
                raise NetLogParseError(
                    "NetLog document missing 'events' array"
                )
            return
        if ch == ",":
            continue
        if ch != '"':
            if not ch:
                raise NetLogTruncationError("document ended before '}'")
            raise NetLogParseError(f"expected object key, got {ch!r}")
        scanner.push_back()
        try:
            key = scanner.decode()
        except json.JSONDecodeError as exc:
            raise NetLogParseError(f"malformed object key: {exc}") from exc
        colon = scanner.read_nonspace()
        if colon != ":":
            if not colon:
                raise NetLogTruncationError("document ended after object key")
            raise NetLogParseError("expected ':' after object key")
        first = scanner.read_nonspace()
        if not first:
            raise NetLogTruncationError("document ended before a value")
        if key == "constants" and first == "{":
            scanner.push_back()
            try:
                constants = scanner.decode()
            except json.JSONDecodeError as exc:
                if strict:
                    raise NetLogParseError(
                        f"malformed constants block: {exc}"
                    ) from exc
                constants = {}
            event_names = constants.get("logEventTypes") or {}
        elif key == "events" and first == "[":
            saw_events = True
            yield from _iter_array_events(
                scanner, event_names, strict, stats, verifier
            )
        elif key == "integrity" and first == "{":
            scanner.push_back()
            try:
                trailer = scanner.decode()
            except json.JSONDecodeError:
                trailer = None
            verifier.check_trailer(trailer, strict=strict, stats=stats)
        else:
            try:
                scanner.skip(first)
            except json.JSONDecodeError as exc:
                raise NetLogParseError(f"malformed value: {exc}") from exc


def _iter_array_events(
    scanner: _Scanner,
    event_names: dict[str, int],
    strict: bool,
    stats: ParseStats | None,
    verifier: ChainVerifier,
) -> Iterator[NetLogEvent]:
    while True:
        ch = scanner.read_nonspace()
        if ch == "]":
            return
        if ch == ",":
            continue
        if ch != "{":
            if not ch:
                raise NetLogTruncationError("events array unterminated")
            if strict or ch not in _VALUE_STARTS:
                raise NetLogParseError(f"expected event object, got {ch!r}")
            # A value that is not an object is one malformed record, as
            # in the whole-document parser; a bad escape in it changes
            # nothing, since it is dropped either way.
            if stats is not None:
                stats.dropped_malformed += 1
            verifier.mark_gap(stats)
            try:
                scanner.skip(ch)
            except json.JSONDecodeError:
                pass
            continue
        scanner.push_back()
        try:
            record = scanner.decode()
        except NetLogTruncationError:
            # The cut fell inside this record: its prefix is unusable.
            if not strict and stats is not None:
                stats.dropped_malformed += 1
                verifier.mark_gap(stats)
            raise
        except json.JSONDecodeError as exc:
            if strict:
                raise NetLogParseError(f"malformed event object: {exc}") from exc
            # Balanced but undecodable (in-place corruption): the stream
            # is still in sync after the closing brace, so keep walking.
            if stats is not None:
                stats.dropped_malformed += 1
            verifier.mark_gap(stats)
            continue
        if not verifier.verify(record, strict=strict, stats=stats):
            continue
        event = parse_record(
            record, event_names=event_names, strict=strict, stats=stats
        )
        if event is not None:
            yield event


def count_event_types(fp: IO[str]) -> dict[EventType, int]:
    """Histogram of event types in a log, computed streamingly."""
    counts: dict[EventType, int] = {}
    for event in iter_events_streaming(fp):
        counts[event.type] = counts.get(event.type, 0) + 1
    return counts
