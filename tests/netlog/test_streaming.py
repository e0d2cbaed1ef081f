"""Tests for the streaming NetLog parser."""

import io
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlog import EventPhase, EventType, NetLogEvent, NetLogSource, SourceType, dumps, loads
from repro.netlog import streaming
from repro.netlog.parser import NetLogParseError, ParseStats
from repro.netlog.streaming import count_event_types, iter_events_streaming


def _event(time=0.0, type=EventType.URL_REQUEST_START_JOB, source_id=1,
           params=None):
    return NetLogEvent(
        time=time,
        type=type,
        source=NetLogSource(id=source_id, type=SourceType.URL_REQUEST),
        phase=EventPhase.BEGIN,
        params=params or {},
    )


class TestStreamingParser:
    def test_matches_whole_document_parser(self):
        events = [
            _event(params={"url": "wss://localhost:5939/", "note": 'quote " and \\ inside'}),
            _event(time=5.0, type=EventType.TCP_CONNECT, source_id=2),
        ]
        text = dumps(events)
        streamed = list(iter_events_streaming(io.StringIO(text)))
        assert streamed == loads(text)

    def test_bounded_memory_over_many_events(self):
        # 10k events streamed from a file-like source in one pass.
        events = [_event(time=float(i), source_id=i + 1) for i in range(10_000)]
        text = dumps(events)
        count = sum(1 for _ in iter_events_streaming(io.StringIO(text)))
        assert count == 10_000

    def test_skips_unknown_event_types_by_default(self):
        document = {
            "constants": {"logEventTypes": {}},
            "events": [
                {"time": 0, "type": 987654, "source": {"id": 1, "type": 1}},
                {
                    "time": 1,
                    "type": int(EventType.TCP_CONNECT),
                    "source": {"id": 2, "type": 2},
                },
            ],
        }
        events = list(iter_events_streaming(io.StringIO(json.dumps(document))))
        assert len(events) == 1
        assert events[0].type is EventType.TCP_CONNECT

    def test_strict_mode_raises_on_unknown(self):
        document = {
            "events": [
                {"time": 0, "type": 987654, "source": {"id": 1, "type": 1}}
            ]
        }
        with pytest.raises(NetLogParseError):
            list(
                iter_events_streaming(
                    io.StringIO(json.dumps(document)), strict=True
                )
            )

    def test_extra_top_level_keys_skipped(self):
        document = {
            "polledData": {"huge": [1, 2, 3, {"nested": "x"}]},
            "constants": {"logEventTypes": {"TCP_CONNECT": 30}},
            "comment": "captured by chrome --log-net-log",
            "events": [
                {
                    "time": 2,
                    "type": "TCP_CONNECT",
                    "source": {"id": 5, "type": 2},
                }
            ],
        }
        events = list(iter_events_streaming(io.StringIO(json.dumps(document))))
        assert len(events) == 1
        assert events[0].source.id == 5

    def test_events_before_constants_use_numeric_types(self):
        # Key order is not guaranteed; numeric types always work.
        text = (
            '{"events": [{"time": 1, "type": %d, '
            '"source": {"id": 1, "type": 1}}], "constants": {}}'
            % int(EventType.REQUEST_ALIVE)
        )
        events = list(iter_events_streaming(io.StringIO(text)))
        assert events[0].type is EventType.REQUEST_ALIVE

    def test_non_object_document_rejected(self):
        with pytest.raises(NetLogParseError):
            list(iter_events_streaming(io.StringIO("[1, 2]")))

    def test_truncated_document_rejected_when_strict(self):
        text = dumps([_event()])[:-10]
        with pytest.raises(NetLogParseError):
            list(iter_events_streaming(io.StringIO(text), strict=True))

    def test_truncated_document_salvaged_by_default(self):
        # Non-strict (the default) yields the intact prefix and stops.
        events = [_event(time=float(i), source_id=i + 1) for i in range(5)]
        text = dumps(events)[:-10]
        stats = ParseStats()
        salvaged = list(iter_events_streaming(io.StringIO(text), stats=stats))
        assert len(salvaged) == 4
        assert stats.truncated

    def test_record_larger_than_a_chunk_parses_in_linear_memory(self, tmp_path):
        # One 4 MB params record read through 64 KB chunks: the record is
        # gathered chunk by chunk and joined once, not re-concatenated
        # on every refill or collected character by character.
        assert streaming._CHUNK_SIZE == 64 * 1024
        blob = "x" * (4 * 1024 * 1024)
        path = tmp_path / "big.json"
        path.write_text(dumps([_event(params={"blob": blob})], checksums=True))
        size = path.stat().st_size
        with open(path, encoding="utf-8") as fp:
            tracemalloc.start()
            try:
                events = list(iter_events_streaming(fp))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert [event.params["blob"] for event in events] == [blob]
        assert peak < 5 * size

    def test_count_event_types(self):
        events = [
            _event(),
            _event(type=EventType.TCP_CONNECT),
            _event(type=EventType.TCP_CONNECT),
        ]
        counts = count_event_types(io.StringIO(dumps(events)))
        assert counts[EventType.TCP_CONNECT] == 2
        assert counts[EventType.URL_REQUEST_START_JOB] == 1


_params = st.dictionaries(
    st.sampled_from(["url", "method", "note"]),
    st.text(max_size=30),  # arbitrary text exercises string escaping
    max_size=3,
)


class TestStreamingProperties:
    @given(
        st.lists(
            st.builds(
                _event,
                time=st.floats(min_value=0, max_value=1e6, allow_nan=False),
                type=st.sampled_from(list(EventType)),
                source_id=st.integers(1, 1000),
                params=_params,
            ),
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_streaming_equals_whole_document(self, events):
        text = dumps(events)
        assert list(iter_events_streaming(io.StringIO(text))) == loads(text)
