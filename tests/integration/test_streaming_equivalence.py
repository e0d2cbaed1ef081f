"""Streaming pipeline equivalence: the single pass changes nothing.

The refactor's acceptance bar: a visit driven through the sink pipeline
(detection + archiving folded into the browser's event stream) must be
observationally identical to the buffered path — same events, same
detection, and byte-identical archived NetLog documents.
"""

from repro.browser.chrome import SimulatedChrome
from repro.browser.useragent import identity_for
from repro.core.detector import LocalTrafficDetector
from repro.crawler.crawl import Crawler
from repro.crawler.vm import OSEnvironment
from repro.netlog import NetLogArchive, dumps, loads
from repro.netlog.pipeline import ListSink, Tee


def _active_site(population):
    return population.website(sorted(population.active_domains)[0])


class TestVisitSinkMode:
    def test_sink_mode_streams_the_batch_event_sequence(
        self, top2020_population
    ):
        site = _active_site(top2020_population)
        batch = SimulatedChrome(identity_for("windows")).visit(site.page())
        sink = ListSink()
        streamed = SimulatedChrome(identity_for("windows")).visit(
            site.page(), sink=sink
        )
        assert streamed.success == batch.success
        assert streamed.events == []  # sink mode does not buffer
        assert sink.events == batch.events

    def test_sink_mode_detection_equals_batch_detection(
        self, top2020_population
    ):
        site = _active_site(top2020_population)
        detector = LocalTrafficDetector()
        batch = SimulatedChrome(identity_for("windows")).visit(site.page())
        expected = detector.detect(batch.events)

        detection_sink = detector.sink()
        SimulatedChrome(identity_for("windows")).visit(
            site.page(), sink=detection_sink
        )
        assert detection_sink.finish() == expected

    def test_tee_runs_detection_and_capture_in_one_pass(
        self, top2020_population
    ):
        site = _active_site(top2020_population)
        detector = LocalTrafficDetector()
        collector = ListSink()
        detection_sink = detector.sink()
        SimulatedChrome(identity_for("windows")).visit(
            site.page(), sink=Tee(detection_sink, collector)
        )
        assert detection_sink.finish() == detector.detect(collector.events)


class TestCrawlerCaptureModes:
    def test_capture_netlog_serialises_the_captured_events(
        self, top2020_population
    ):
        site = _active_site(top2020_population)
        buffered = Crawler(
            OSEnvironment.for_os("windows"), capture_events=True
        ).crawl_site(site)
        streamed = Crawler(
            OSEnvironment.for_os("windows"), capture_netlog=True
        ).crawl_site(site)
        assert buffered.success and streamed.success
        assert streamed.netlog is not None
        assert buffered.events is not None
        # The streamed buffer holds exactly the record text a batch dump
        # of the captured events would produce.
        assert streamed.netlog.count == len(buffered.events)
        assert loads(dumps(buffered.events)) == buffered.events

    def test_archived_documents_are_byte_identical(
        self, top2020_population, tmp_path
    ):
        site = _active_site(top2020_population)
        meta = {"crawl": "t", "domain": site.domain, "os": "windows"}

        buffered = Crawler(
            OSEnvironment.for_os("windows"), capture_events=True
        ).crawl_site(site)
        batch_archive = NetLogArchive(tmp_path / "batch")
        batch_path = batch_archive.write(
            "t", "windows", site.domain, buffered.events, meta=meta
        )

        streamed = Crawler(
            OSEnvironment.for_os("windows"), capture_netlog=True
        ).crawl_site(site)
        stream_archive = NetLogArchive(tmp_path / "stream")
        stream_path = stream_archive.write_buffered(
            "t", "windows", site.domain, streamed.netlog, meta=meta
        )
        assert stream_archive.close() == 0  # the document is in place

        assert batch_path.read_bytes() == stream_path.read_bytes()

    def test_detection_identical_across_capture_modes(
        self, top2020_population
    ):
        site = _active_site(top2020_population)
        plain = Crawler(OSEnvironment.for_os("windows")).crawl_site(site)
        capturing = Crawler(
            OSEnvironment.for_os("windows"),
            capture_events=True,
            capture_netlog=True,
        ).crawl_site(site)
        assert plain.detection == capturing.detection
        assert capturing.detection == LocalTrafficDetector().detect(
            capturing.events
        )
