"""Differential oracle: the streaming walk against the frozen char scanner.

``iter_events_streaming`` decodes each JSON value with the C decoder and
keeps a character-level bracket scan only as the fallback for values the
decoder rejects.  ``_reference_scanner`` is the char-at-a-time walk it
replaced.  For every document in the corpus below — clean, cut, NUL
padded, bit-flipped, spliced, and foreign-shaped — both walks must yield
the same events, leave every :class:`ParseStats` field (including
``first_divergence``) at the same value, and end with the same exception
type.  Chunk sizes of 7 and 64 characters make records, keys, escapes
and multibyte characters straddle chunk boundaries.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crawler.vm import OSEnvironment
from repro.netlog import dumps, loads, streaming
from repro.netlog.codec import coerce_stream
from repro.netlog.parser import NetLogParseError, ParseStats
from repro.web.population import build_top_population

from . import _reference_scanner as reference
from .test_binary import _event

CHUNK_SIZES = (7, 64)


def _walk(iterate, stream, strict, require_events):
    stats = ParseStats()
    events = []
    error = None
    try:
        for event in iterate(
            stream, strict=strict, stats=stats, require_events=require_events
        ):
            events.append(event)
    except Exception as exc:  # the exception type is part of the contract
        error = type(exc)
    return events, dataclasses.astuple(stats), error


def _source(document, as_stream):
    """A fresh source for one walk: text/bytes, or a file object of it."""
    if not as_stream:
        return document
    if isinstance(document, str):
        return io.StringIO(document)
    return io.BytesIO(document)


def assert_same_walk(document, *, strict=False, require_events=False):
    """Both walks agree on ``document`` (str or bytes) at every chunk size.

    The reference sees exactly the text stream the old entry point built:
    the same source coercion (UTF-8 decoding with replacement, newline
    translation for byte streams) feeds both walks.
    """
    for chunk_size in CHUNK_SIZES:
        for as_stream in (False, True):
            with mock.patch.object(
                streaming, "_CHUNK_SIZE", chunk_size
            ), mock.patch.object(reference, "_CHUNK_SIZE", chunk_size):
                fast = _walk(
                    streaming.iter_events_streaming,
                    _source(document, as_stream),
                    strict,
                    require_events,
                )
                _, text_stream = coerce_stream(_source(document, as_stream))
                slow = _walk(
                    reference.iter_events_reference,
                    text_stream,
                    strict,
                    require_events,
                )
            assert fast == slow, (chunk_size, as_stream, document)


@functools.lru_cache(maxsize=None)
def _archive_documents() -> tuple[str, ...]:
    """Simulated visits, checksummed exactly like archived documents."""
    population = build_top_population(2020, scale=0.001)
    documents = []
    for os_name, index in (("windows", 3), ("linux", 0), ("mac", 7)):
        site = population.websites[index]
        browser = OSEnvironment.for_os(os_name).browser()
        documents.append(
            dumps(browser.visit(site.page()).events, checksums=True)
        )
    return tuple(documents)


def _small_document(checksums=True) -> str:
    return dumps(
        [
            _event(time=float(i), source_id=i + 1)
            for i in range(4)
        ],
        checksums=checksums,
    )


#: A params value longer than either test chunk size, with escapes,
#: raw multibyte UTF-8 and an astral-plane character.
_AWKWARD = 'wss://localhost:5939/ "quoted" \\ back\\slash\n\t ünï€ 😀 ' * 3


def _foreign_documents() -> tuple[str, ...]:
    clean = _small_document()
    decoded = json.loads(clean)
    pretty = json.dumps(decoded, indent=2)
    unknown = {
        "constants": {"logEventTypes": {"TCP_CONNECT": 30}},
        "events": [
            {"time": 0, "type": 987654, "source": {"id": 1, "type": 1}},
            {"time": 1, "type": "FUTURE_EVENT", "source": {"id": 2, "type": 1}},
            {"time": 2, "type": "TCP_CONNECT", "source": {"id": 3, "type": 2}},
        ],
    }
    trailing_keys = dict(decoded)
    trailing_keys["polledData"] = {"nested": [1, [2, {"x": "]}"}], "y"]}
    trailing_keys["comment"] = 'closing "]}" inside a string'
    trailing_keys["count"] = -12.5e3
    trailing_keys["flag"] = True
    trailing_keys["nothing"] = None
    big_record = dumps(
        [_event(params={"url": "http://192.168.0.1/", "blob": _AWKWARD})],
        checksums=True,
    )
    raw_multibyte = json.dumps(
        {
            "constants": {},
            "events": [
                {
                    "time": 1,
                    "type": 2,
                    "source": {"id": 1, "type": 1},
                    "params": {"note": _AWKWARD},
                }
            ],
            "ünicode-kéy": "välue",
        },
        ensure_ascii=False,
    )
    events_first = (
        '{"events": [{"time": 1, "type": 1, "source": {"id": 1, "type": 1}}],'
        ' "constants": {"logEventTypes": {}}}'
    )
    return (
        pretty,
        pretty.replace("\n", "\r\n"),
        _small_document(checksums=False),
        json.dumps(unknown),
        json.dumps(trailing_keys),
        big_record,
        raw_multibyte,
        events_first,
    )


def _corpus() -> tuple[str, ...]:
    return _archive_documents() + _foreign_documents()


class TestFixedCorpus:
    def test_clean_documents(self):
        for document in _corpus():
            for strict in (False, True):
                assert_same_walk(document, strict=strict)
            assert_same_walk(document, require_events=True)

    def test_every_cut_point(self):
        document = _small_document()
        for cut in range(len(document) + 1):
            assert_same_walk(document[:cut])

    def test_every_cut_point_strict_and_requiring_events(self):
        document = _small_document(checksums=False)
        for cut in range(0, len(document) + 1, 3):
            assert_same_walk(document[:cut], strict=True)
            assert_same_walk(document[:cut], require_events=True)

    def test_nul_padding_inside_a_chunk_and_at_chunk_edges(self):
        document = _archive_documents()[1]
        cuts = {5, 100, 1001}
        for chunk_size in CHUNK_SIZES:
            for edge in (chunk_size * 3, chunk_size * 40):
                cuts.update((edge - 1, edge, edge + 1))
        for cut in sorted(cuts):
            assert_same_walk(document[:cut] + "\x00" * 64)
            assert_same_walk(document[:cut] + "\x00" + document[cut:])

    def test_escapes_at_every_chunk_alignment(self):
        # Leading whitespace shifts the text so that, at some offset, an
        # escape's backslash is the last character of a chunk and the
        # escaped quote or backslash the first of the next.
        document = dumps(
            [_event(params={"q": 'a"b\\c' * 4, "k\\": '"'})], checksums=True
        )
        for pad in range(max(CHUNK_SIZES)):
            assert_same_walk(" " * pad + document)
            assert_same_walk(" " * pad + document[:-40])

    def test_shapes_that_end_the_walk_early(self):
        for document in (
            "",
            "   ",
            "[1, 2]",
            "{}",
            '{"key": 1}',
            '{"key": }',
            '{"key": , "events": []}',
            '{"events": [1, 2]}',
            '{"events": {"not": "an array"}}',
            '{"constants": 5, "events": []}',
            '{"constants": {"logEventTypes": {"X": 1}} "events": []}',
            '{"events": [], "tail": tru',
            '{"events": [] "garbage"}',
            '{"a\\q": 1, "events": []}',
            '{"events": [], "note": "bad \\q escape"}',
            '{"ev\x01nts": []}',
            '{"events": [{"time": 1,, "type": 1}, {"time": 2, "type": 1, '
            '"source": {"id": 1, "type": 1}}]}',
            '{"integrity": {"events": 0, "chain": 1,}, "events": []}',
            '{"constants": {"logEventTypes": {"X": 1},}, "events": []}',
            '{"events": [{"time": 1, "type": 1, "source": {"id": 1, '
            '"type": 1}, "params": {"s": "\\',
        ):
            for strict in (False, True):
                for require_events in (False, True):
                    assert_same_walk(
                        document, strict=strict, require_events=require_events
                    )

    def test_non_object_records(self):
        for document in (
            '{"events": [1]}',
            '{"events": [1, "x", [2, {"a": "]"}], null, true, -3.5]}',
            '{"events": ["bad \\q", {"time": 1, "type": 1, '
            '"source": {"id": 1, "type": 1}}]}',
            '{"events": [z]}',
            '{"events": [1}',
            '{"events": [[1, ',
            '{"events": ["cut',
        ):
            for strict in (False, True):
                assert_same_walk(document, strict=strict)

    def test_corpus_reaches_every_fallback(self):
        # The oracle only speaks for the fallback paths it exercises.
        calls = {"_extent": 0, "_skip_scalar": 0}

        def counting(name):
            original = getattr(streaming._Scanner, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)

            return wrapper

        with mock.patch.object(
            streaming._Scanner, "_extent", counting("_extent")
        ), mock.patch.object(
            streaming._Scanner, "_skip_scalar", counting("_skip_scalar")
        ):
            self.test_clean_documents()
            self.test_shapes_that_end_the_walk_early()
            self.test_non_object_records()
        assert all(calls.values()), calls


def _with_events(document: str, *insertions) -> str:
    """``document`` with values inserted into its ``events`` array."""
    decoded = json.loads(document)
    for index, value in insertions:
        decoded["events"].insert(index, value)
    return json.dumps(decoded)


class TestBatchAgreement:
    """Where the whole document decodes, salvage streaming ≡ batch."""

    def test_non_object_records_drop_as_in_batch(self):
        checksummed = _small_document()
        for document in (
            '{"events": [1]}',
            '{"events": [1, "x", [2, {"a": "]"}], null, true, -3.5]}',
            _with_events(checksummed, (2, 1)),
            _with_events(checksummed, (0, "x"), (3, [{"time": 1}])),
            _with_events(_small_document(checksums=False), (4, None)),
        ):
            batch_stats, stream_stats = ParseStats(), ParseStats()
            batch = loads(document, strict=False, stats=batch_stats)
            streamed = list(
                streaming.iter_events_streaming(
                    document, strict=False, stats=stream_stats
                )
            )
            assert streamed == batch, document
            assert stream_stats == batch_stats, document
            assert stream_stats.dropped_malformed >= 1

    def test_undecodable_key_or_string_is_a_parse_error(self):
        for document in (
            '{"ev\x01nts": []}',
            '{"a\\q": 1, "events": []}',
            '{"events": [], "note": "bad \\q escape"}',
        ):
            for strict in (False, True):
                with pytest.raises(NetLogParseError):
                    list(
                        streaming.iter_events_streaming(
                            document, strict=strict
                        )
                    )
                with pytest.raises(NetLogParseError):
                    loads(document, strict=strict)


def _flip_bits(data: bytes, flips) -> bytes:
    flipped = bytearray(data)
    for position, bit in flips:
        flipped[position % len(flipped)] ^= 1 << bit
    return bytes(flipped)


@st.composite
def damaged_documents(draw):
    corpus = _corpus()
    document = draw(st.sampled_from(corpus))
    shape = draw(
        st.sampled_from(("clean", "cut", "nul", "flip", "splice"))
    )
    if shape == "cut":
        return document[: draw(st.integers(0, len(document)))]
    if shape == "nul":
        cut = draw(st.integers(0, len(document)))
        pad = "\x00" * draw(st.integers(1, 80))
        keep_tail = draw(st.booleans())
        return document[:cut] + pad + (document[cut:] if keep_tail else "")
    if shape == "flip":
        data = document.encode("utf-8")
        flips = draw(
            st.lists(
                st.tuples(st.integers(0, len(data) - 1), st.integers(0, 7)),
                min_size=1,
                max_size=3,
            )
        )
        return _flip_bits(data, flips)
    if shape == "splice":
        other = draw(st.sampled_from(corpus))
        head = draw(st.integers(0, len(document)))
        tail = draw(st.integers(0, len(other)))
        return document[:head] + other[tail:]
    return document


class TestDamagedCorpus:
    @given(
        document=damaged_documents(),
        strict=st.booleans(),
        require_events=st.booleans(),
    )
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_same_walk_on_damaged_documents(
        self, document, strict, require_events
    ):
        assert_same_walk(
            document, strict=strict, require_events=require_events
        )

    @given(
        document=st.sampled_from(_corpus()),
        flips=st.lists(
            st.tuples(st.integers(0, 1 << 16), st.sampled_from((0, 1, 2, 5))),
            min_size=1,
            max_size=2,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_walk_on_flips_that_keep_or_break_structure(
        self, document, flips
    ):
        # Low bits turn '"' into '#' or '!' and '{' into 'z' or '}': some
        # flips leave a record balanced but undecodable, others unbalance it.
        assert_same_walk(_flip_bits(document.encode("utf-8"), flips))
