"""Differential oracle: the JSON writer against the frozen ``json.dump`` one.

The writer renders every value with one C-encoded ``json.dumps`` and
caches the ``constants`` header; ``_reference_writer`` is the
``json.dump`` writer it replaced.  The archive format is the old bytes,
so every write route must reproduce them exactly: a whole-document
``dumps``, a streamed :class:`NetLogBuffer` assembled by
:meth:`NetLogArchive.write_buffered`, and the binary-to-JSON transcode.
Events carry escape-heavy and non-ASCII strings, nested params, floats
whose shortest repr is long, ints past 64 bits, and empty params.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlog import NetLogArchive, dumps
from repro.netlog.binary import dumps_binary
from repro.netlog.constants import EventPhase, EventType, SourceType
from repro.netlog.convert import to_binary, to_json
from repro.netlog.events import NetLogEvent, NetLogSource
from repro.netlog.pipeline import feed
from repro.netlog.writer import NetLogBuffer, canonical_record_bytes

from . import _reference_writer as reference

_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((191.52800000000002, 0.1 + 0.2, -0.0, 1e300, 5e-324)),
)
_INTS = st.one_of(
    st.integers(-(2**31), 2**31),
    st.sampled_from((2**53 + 1, -(2**63), 2**64, 10**30, -(10**30))),
)
_TEXT = st.one_of(
    st.text(max_size=12),
    st.text(
        alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f é€😀 aZ{}[]:,',
        max_size=12,
    ),
)
_JSON = st.recursive(
    st.none() | st.booleans() | _INTS | _FLOATS | _TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_TEXT, children, max_size=3),
    max_leaves=10,
)
_EVENTS = st.lists(
    st.builds(
        NetLogEvent,
        time=st.one_of(_FLOATS, st.integers(-(2**40), 2**40)),
        type=st.sampled_from(list(EventType)),
        source=st.builds(
            NetLogSource,
            id=st.integers(0, 2**32 - 1),
            type=st.sampled_from(list(SourceType)),
        ),
        phase=st.sampled_from(list(EventPhase)),
        params=st.dictionaries(_TEXT, _JSON, max_size=4),
    ),
    max_size=5,
)
_META = st.none() | st.dictionaries(_TEXT, _JSON, max_size=4)

_SETTINGS = settings(max_examples=120, deadline=None)


def _extra(meta):
    return {"visitMeta": meta} if meta is not None else None


@given(
    events=_EVENTS,
    checksums=st.booleans(),
    meta=_META,
    origin=st.sampled_from((0.0, 0, 1234.5, -7)),
)
@_SETTINGS
def test_dumps_matches_reference(events, checksums, meta, origin):
    expected = reference.dumps(
        events, time_origin_ms=origin, checksums=checksums, extra=_extra(meta)
    )
    for _ in range(2):  # the second document reuses the encoded header
        assert (
            dumps(
                events,
                time_origin_ms=origin,
                checksums=checksums,
                extra=_extra(meta),
            )
            == expected
        )


@given(events=_EVENTS, checksums=st.booleans(), meta=_META)
@_SETTINGS
def test_buffered_archive_document_matches_reference(events, checksums, meta):
    buffer = feed(events, NetLogBuffer(checksums=checksums))
    with tempfile.TemporaryDirectory() as root:
        path = NetLogArchive(root).write_buffered(
            "top2020", "windows", "example.com", buffer, meta=meta
        )
        written = path.read_bytes()
    expected = reference.archived_document(
        events, meta=meta, checksums=checksums
    )
    assert written == expected.encode("utf-8")


@given(events=_EVENTS, checksums=st.booleans(), meta=_META)
@_SETTINGS
def test_binary_to_json_matches_reference(events, checksums, meta):
    document = dumps_binary(events, checksums=checksums, extra=_extra(meta))
    assert to_json(document) == reference.to_json(document)
    # A document this package wrote survives the round trip byte for byte.
    text = reference.dumps(events, checksums=checksums, extra=_extra(meta))
    assert to_json(to_binary(text)) == text


@given(
    record=st.fixed_dictionaries(
        {"time": _FLOATS, "type": _INTS, "params": st.dictionaries(_TEXT, _JSON)},
        optional={"crc": _INTS, "chain": _INTS},
    )
)
@_SETTINGS
def test_canonical_form_matches_reference(record):
    assert canonical_record_bytes(record) == reference.canonical_record_bytes(
        record
    )
