"""Frozen char-at-a-time NetLog scanner: the reference for differential tests.

This is the JSON walk that :mod:`repro.netlog.streaming` used before it
decoded values with the C JSON decoder.  It reads one character at a
time, finds each record's extent with a balanced-brace scan and decodes
it with ``json.loads``.  It is slow but simple, and its salvage
semantics (what is yielded, what every :class:`ParseStats` field ends up
as, which exception ends the walk) are the specification the fast walk
is checked against.  Test-only: nothing under ``src/`` imports it.

Two deliberate changes since it was frozen, each made in step with the
fast walk: a top-level key or skipped string that does not decode ends
the walk with :class:`NetLogParseError` rather than a bare
``json.JSONDecodeError`` (so ``fsck`` can report the document instead of
dying on it), and in salvage mode a non-object value in ``events``
counts as one dropped malformed record, as it does in the
whole-document parser.
"""

from __future__ import annotations

import json
from typing import IO, Iterator

from repro.netlog.events import NetLogEvent
from repro.netlog.parser import (
    ChainVerifier,
    NetLogParseError,
    NetLogTruncationError,
    ParseStats,
    parse_record,
)

_CHUNK_SIZE = 64 * 1024


class _Scanner:
    """Incremental reader with pushback over a text stream.

    A NUL byte is treated as (sticky) end of input: real truncated
    NetLogs are often padded with NULs up to a block boundary, and no
    valid JSON contains a raw NUL outside an escape sequence.
    """

    def __init__(self, fp: IO[str]) -> None:
        self._fp = fp
        self._buffer = ""
        self._position = 0
        self._eof = False

    def read_char(self) -> str:
        """Next character, or '' at EOF (or at a NUL — see class doc)."""
        if self._eof:
            return ""
        if self._position >= len(self._buffer):
            self._buffer = self._fp.read(_CHUNK_SIZE)
            self._position = 0
            if not self._buffer:
                self._eof = True
                return ""
        ch = self._buffer[self._position]
        self._position += 1
        if ch == "\x00":
            self._eof = True
            return ""
        return ch

    def push_back(self, ch: str) -> None:
        """Return one just-read character to the stream."""
        if not ch:
            return
        self._buffer = ch + self._buffer[self._position :]
        self._position = 0

    def read_nonspace(self) -> str:
        ch = self.read_char()
        while ch and ch in " \t\r\n":
            ch = self.read_char()
        return ch


def _read_string(scanner: _Scanner) -> str:
    """Read a JSON string body (opening quote already consumed)."""
    parts: list[str] = []
    while True:
        ch = scanner.read_char()
        if not ch:
            raise NetLogTruncationError("unterminated string")
        if ch == "\\":
            escaped = scanner.read_char()
            if not escaped:
                raise NetLogTruncationError("unterminated escape")
            parts.append(ch + escaped)
            continue
        if ch == '"':
            return json.loads('"' + "".join(parts) + '"')
        parts.append(ch)


def _read_balanced_object(scanner: _Scanner) -> str:
    """Read one {...} object as raw text (opening brace consumed)."""
    depth = 1
    parts: list[str] = ["{"]
    in_string = False
    while depth:
        ch = scanner.read_char()
        if not ch:
            raise NetLogTruncationError("unterminated object")
        parts.append(ch)
        if in_string:
            if ch == "\\":
                follow = scanner.read_char()
                if not follow:
                    raise NetLogTruncationError("unterminated escape")
                parts.append(follow)
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
    return "".join(parts)


def _skip_value(scanner: _Scanner, first: str) -> None:
    """Skip one JSON value whose first character is ``first``."""
    if first == '"':
        _read_string(scanner)
        return
    if first == "{":
        _read_balanced_object(scanner)
        return
    if first == "[":
        depth = 1
        in_string = False
        while depth:
            ch = scanner.read_char()
            if not ch:
                raise NetLogTruncationError("unterminated array")
            if in_string:
                if ch == "\\":
                    scanner.read_char()
                elif ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
            elif ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
        return
    # Scalar: consume until a delimiter.  A comma is the caller's to
    # tolerate, but a closing brace/bracket belongs to the enclosing
    # structure — push it back so `{"key": 1}` still reaches the
    # missing-events check instead of reading as truncated.
    while True:
        ch = scanner.read_char()
        if not ch or ch == ",":
            return
        if ch in "}]":
            scanner.push_back(ch)
            return


def iter_events_reference(
    fp: IO[str],
    *,
    strict: bool = False,
    stats: ParseStats | None = None,
    require_events: bool = False,
) -> Iterator[NetLogEvent]:
    """The JSON branch of ``iter_events_streaming``, over a text stream."""
    try:
        yield from _iter_document(
            _Scanner(fp), strict, stats, require_events
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
        try:
            key = _read_string(scanner)
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
            raw = _read_balanced_object(scanner)
            try:
                constants = json.loads(raw)
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
            raw = _read_balanced_object(scanner)
            try:
                trailer = json.loads(raw)
            except json.JSONDecodeError:
                trailer = None
            verifier.check_trailer(trailer, strict=strict, stats=stats)
        else:
            try:
                _skip_value(scanner, first)
            except json.JSONDecodeError as exc:
                raise NetLogParseError(f"malformed value: {exc}") from exc


def _iter_array_events(
    scanner: _Scanner,
    event_names: dict[str, int],
    strict: bool,
    stats: ParseStats | None,
    verifier: ChainVerifier | None = None,
) -> Iterator[NetLogEvent]:
    if verifier is None:
        verifier = ChainVerifier()
    while True:
        ch = scanner.read_nonspace()
        if ch == "]":
            return
        if ch == ",":
            continue
        if ch != "{":
            if not ch:
                raise NetLogTruncationError("events array unterminated")
            if strict or ch not in '"[-0123456789tfn':
                raise NetLogParseError(f"expected event object, got {ch!r}")
            # A non-object value is one malformed record, as in the
            # whole-document parser.
            if stats is not None:
                stats.dropped_malformed += 1
            verifier.mark_gap(stats)
            try:
                _skip_value(scanner, ch)
            except json.JSONDecodeError:
                pass
            continue
        try:
            raw = _read_balanced_object(scanner)
        except NetLogTruncationError:
            # The cut fell inside this record: its prefix is unusable.
            if not strict and stats is not None:
                stats.dropped_malformed += 1
                verifier.mark_gap(stats)
            raise
        try:
            record = json.loads(raw)
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
