"""Ablation: streaming sink pipeline vs. the buffered batch path.

The single-pass pipeline's contract has three legs:

* **invariance** — per-site detections and archived NetLog documents are
  byte-identical whether a visit streams through the sink graph or
  buffers events and runs the batch APIs afterwards;
* **memory** — streaming detection memory is bounded by the number of
  open flows: growing a document 10× in event count (same flow count)
  must not grow the streaming peak proportionally, while it does grow
  the batch peak;
* **throughput** — the streaming visit (detection folded into emission)
  is at least as fast as the buffered visit plus a batch detection pass,
  within a noise budget (``REPRO_PIPELINE_SLACK``, default 10%).
"""

import json
import os
import time
import tracemalloc

from repro.browser.chrome import SimulatedChrome
from repro.browser.useragent import identity_for
from repro.core.detector import LocalTrafficDetector
from repro.crawler.crawl import Crawler
from repro.crawler.vm import OSEnvironment
from repro.netlog import (
    EventPhase,
    EventType,
    NetLogArchive,
    NetLogEvent,
    NetLogSource,
    SourceType,
    dumps,
    iter_events_streaming,
)
from repro.web.population import build_top_population

from .conftest import write_artifact

ABLATION_SCALE = 0.002  # 200 sites incl. all seeded ones
TIMING_REPS = 5
PIPELINE_SLACK = float(os.environ.get("REPRO_PIPELINE_SLACK", "0.10"))
#: Absolute timing slack: one scheduler preemption on a loaded CI host.
EPSILON_S = 0.05

#: Synthetic-document shape for the memory leg: a few long-lived flows
#: carrying many events each — the scanner-socket profile that made the
#: buffered path's memory O(events).
MEMORY_FLOWS = 50
MEMORY_EVENTS_PER_FLOW = 40
MEMORY_GROWTH = 10


def _population():
    return build_top_population(2020, scale=ABLATION_SCALE)


def test_streaming_matches_buffered_per_site(tmp_path):
    """Detection and archive bytes agree between the two capture paths."""
    population = _population()
    environment = OSEnvironment.for_os("windows")
    crawler = Crawler(
        environment, capture_events=True, capture_netlog=True
    )
    batch_archive = NetLogArchive(tmp_path / "batch")
    stream_archive = NetLogArchive(tmp_path / "stream")
    detector = LocalTrafficDetector()
    sites = compared = 0
    for website in population.websites:
        record = crawler.crawl_site(website)
        if not record.success:
            continue
        sites += 1
        # Streamed detection (built by the DetectionSink during the
        # visit) vs. batch detection over the buffered event list.
        assert record.detection == detector.detect(record.events)
        if not record.has_local_activity:
            continue
        compared += 1
        meta = {"crawl": "bench", "domain": website.domain, "os": "windows"}
        batch = batch_archive.write(
            "bench", "windows", website.domain, record.events, meta=meta
        )
        streamed = stream_archive.write_buffered(
            "bench", "windows", website.domain, record.netlog, meta=meta
        )
        assert stream_archive.flush() == 0  # the document is in place
        assert batch.read_bytes() == streamed.read_bytes()
    stream_archive.close()
    batch_archive.close()
    assert sites > 0 and compared > 0  # the diff was not vacuous
    write_artifact(
        "pipeline-invariance.json",
        json.dumps(
            {"sites": sites, "archives_byte_identical": compared}, indent=2
        ),
    )


def _synthetic_document(events_per_flow: int) -> str:
    events = []
    for step in range(events_per_flow):
        for flow in range(MEMORY_FLOWS):
            source = NetLogSource(
                id=flow + 1, type=SourceType.URL_REQUEST
            )
            if step == 0:
                events.append(
                    NetLogEvent(
                        time=float(step),
                        type=EventType.URL_REQUEST_START_JOB,
                        source=source,
                        phase=EventPhase.BEGIN,
                        params={"url": f"http://localhost:{6000 + flow}/"},
                    )
                )
            else:
                events.append(
                    NetLogEvent(
                        time=float(step),
                        type=EventType.HTTP_TRANSACTION_READ_HEADERS,
                        source=source,
                        phase=EventPhase.NONE,
                        params={"byte_count": 64},
                    )
                )
    return dumps(events)


def _batch_peak(path: str) -> int:
    from repro.netlog import load

    tracemalloc.start()
    with open(path) as fp:
        events = load(fp, strict=False)
    LocalTrafficDetector().detect(events)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def _streaming_peak(path: str) -> int:
    tracemalloc.start()
    sink = LocalTrafficDetector().sink()
    with open(path) as fp:
        for event in iter_events_streaming(fp, strict=False):
            sink.accept(event)
    sink.finish()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_streaming_memory_is_bounded_by_open_flows(tmp_path):
    paths = {}
    for growth in (1, MEMORY_GROWTH):
        path = tmp_path / f"synthetic-{growth}x.json"
        path.write_text(_synthetic_document(MEMORY_EVENTS_PER_FLOW * growth))
        paths[growth] = str(path)

    batch_1 = _batch_peak(paths[1])
    batch_10 = _batch_peak(paths[MEMORY_GROWTH])
    stream_1 = _streaming_peak(paths[1])
    stream_10 = _streaming_peak(paths[MEMORY_GROWTH])

    write_artifact(
        "pipeline-memory.json",
        json.dumps(
            {
                "flows": MEMORY_FLOWS,
                "events_1x": MEMORY_FLOWS * MEMORY_EVENTS_PER_FLOW,
                "events_10x": MEMORY_FLOWS
                * MEMORY_EVENTS_PER_FLOW
                * MEMORY_GROWTH,
                "batch_peak_bytes": {"1x": batch_1, "10x": batch_10},
                "streaming_peak_bytes": {"1x": stream_1, "10x": stream_10},
            },
            indent=2,
        ),
    )

    # The buffered path materialises every event: its peak must track the
    # event count.  The streaming path holds open-flow summaries plus
    # parse scratch: 10× the events must cost far less than 10× the peak.
    assert stream_10 < stream_1 * 3, (
        f"streaming peak grew with event count: "
        f"{stream_1} -> {stream_10} bytes over {MEMORY_GROWTH}x events"
    )
    assert stream_10 < batch_10 / 3, (
        f"streaming peak {stream_10} not meaningfully below "
        f"batch peak {batch_10}"
    )


def _min_of_n(fn, reps: int = TIMING_REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_streaming_visit_throughput_at_least_buffered():
    population = _population()
    pages = [w.page() for w in population.websites]
    detector = LocalTrafficDetector()

    def buffered():
        chrome = SimulatedChrome(identity_for("windows"))
        total = 0
        for page in pages:
            result = chrome.visit(page)
            total += len(detector.detect(result.events).requests)
        return total

    def streaming():
        chrome = SimulatedChrome(identity_for("windows"))
        total = 0
        for page in pages:
            sink = detector.sink()
            chrome.visit(page, sink=sink)
            total += len(sink.finish().requests)
        return total

    assert buffered() == streaming()  # same requests before timing
    buffered()  # warm caches before either arm is timed
    t_buffered = _min_of_n(buffered)
    t_streaming = _min_of_n(streaming)

    # Report events/s for the streaming arm alongside the comparison.
    chrome = SimulatedChrome(identity_for("windows"))
    events_total = sum(len(chrome.visit(p).events) for p in pages)
    write_artifact(
        "pipeline-throughput.json",
        json.dumps(
            {
                "sites": len(pages),
                "buffered_s": round(t_buffered, 4),
                "streaming_s": round(t_streaming, 4),
                "streaming_events_per_s": round(
                    events_total / t_streaming
                ),
                "slack": PIPELINE_SLACK,
            },
            indent=2,
        ),
    )

    budget = t_buffered * (1.0 + PIPELINE_SLACK) + EPSILON_S
    assert t_streaming <= budget, (
        f"streaming visits slower than buffered + batch detection: "
        f"{t_streaming:.3f}s vs {t_buffered:.3f}s "
        f"(budget {budget:.3f}s = +{PIPELINE_SLACK:.0%} and {EPSILON_S}s slack)"
    )
