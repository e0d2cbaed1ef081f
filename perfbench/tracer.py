"""Layer spans recorded from outside the program.

The benchmark times each layer by wrapping that layer's public entry
points (class methods and module functions of ``repro``) for the length
of one traced pass, then restoring the originals, so untraced passes run
the program exactly as shipped.  Nothing under ``src/`` knows about it.

Every wrapped call is a span.  A span's *self time* is its duration minus
the time of the wrapped calls it made (its child spans); summing self
times by layer partitions the traced wall time, and whatever no span
covers is ``unattributed_s``.  Spans of one visit share the key
``crawl:os:domain``.  Per-event entry points (the detection and encoding
sinks) are aggregated only; coarser spans are also kept, in memory, for
the Chrome ``trace_event`` export written when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: Layer that owns each span's self time.  ``serve.analyze_report``'s self
#: time is the NetLog parse it drives (detection and classification are
#: child spans), so it belongs to ``netlog``.
SPAN_LAYERS = {
    "crawler.campaign": "crawler",
    "crawler.crawl_site": "crawler",
    "browser.visit": "browser",
    "core.detect_accept": "core",
    "core.detect_finish": "core",
    "core.classify": "core",
    "core.classify_per_os": "core",
    "netlog.encode_accept": "netlog",
    "netlog.encode_finish": "netlog",
    "netlog.doc_head": "netlog",
    "netlog.doc_tail": "netlog",
    "netlog.archive_write": "netlog",
    "netlog.verify_paths": "netlog",
    "netlog.verify_document": "netlog",
    "serve.analyze_report": "netlog",
    "storage.record_visit": "storage",
    "storage.commit": "storage",
    "storage.fsck": "storage",
    "storage.campaign_digest": "storage",
    "fabric.run": "fabric",
}

LAYERS = ("crawler", "browser", "core", "netlog", "storage", "fabric")

#: Spans kept for the Chrome trace; later ones are only counted, so a long
#: traced run stays a trace file of a few megabytes.
MAX_EVENTS = 100_000


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric, and the end-to-end metric it should move."""

    name: str
    unit: str
    better: str
    moves: str


def _m(name: str, unit: str, better: str, moves: str) -> LayerMetric:
    return LayerMetric(name, unit, better, moves)


#: Every metric a traced run reports, in output order.  ``moves`` names
#: the end-to-end metric (and workload) a change to that layer should
#: move; ``BENCHMARK.json`` lists the same names, units and directions.
LAYER_METRICS: tuple[LayerMetric, ...] = (
    _m("crawler.visits", "count", "higher", "ops_per_s on crawl"),
    _m("crawler.visit_self_s", "s", "lower", "ops_per_s on crawl"),
    _m("crawler.campaign_self_s", "s", "lower", "ops_per_s on crawl"),
    _m("browser.visit_calls", "count", "higher", "ops_per_s on crawl"),
    _m("browser.events", "count", "higher", "ops_per_s on crawl"),
    _m("browser.visit_self_s", "s", "lower", "ops_per_s on crawl"),
    _m("browser.visit_p50_us", "us", "lower", "ops_per_s on crawl"),
    _m("browser.visit_p99_us", "us", "lower", "ops_per_s on crawl"),
    _m("core.detect_s", "s", "lower",
       "ops_per_s on crawl; analyze_p50_ms on audit"),
    _m("core.flows", "count", "higher", "ops_per_s on crawl"),
    _m("core.local_requests", "count", "higher", "ops_per_s on crawl"),
    _m("core.local_active_share", "ratio", "higher",
       "input property: cite it with any scanner-specific change"),
    _m("core.classify_s", "s", "lower",
       "nothing: about 0.3% of crawl wall time"),
    _m("core.classify_calls", "count", "lower",
       "nothing: about 0.3% of crawl wall time"),
    _m("netlog.encode_s", "s", "lower", "ops_per_s on crawl-archive"),
    _m("netlog.encode_bytes", "bytes", "lower",
       "ops_per_s on crawl-archive"),
    _m("netlog.archive_write_self_s", "s", "lower",
       "ops_per_s on crawl-archive"),
    _m("netlog.archive_docs", "count", "higher",
       "ops_per_s on crawl-archive"),
    _m("netlog.archive_files", "count", "lower",
       "ops_per_s on crawl-archive and audit"),
    _m("netlog.archive_bytes", "bytes", "lower",
       "disk_bytes_per_visit on crawl-archive"),
    _m("netlog.archive_write_p50_us", "us", "lower",
       "ops_per_s on crawl-archive"),
    _m("netlog.archive_write_p99_us", "us", "lower",
       "ops_per_s on crawl-archive"),
    _m("netlog.archive_write_failures", "count", "lower",
       "error gate on crawl-archive"),
    _m("netlog.verify_s", "s", "lower", "ops_per_s on audit"),
    _m("netlog.verify_docs", "count", "higher", "ops_per_s on audit"),
    _m("netlog.verify_bytes", "bytes", "lower", "ops_per_s on audit"),
    _m("netlog.verify_mb_per_s", "MB/s", "higher", "ops_per_s on audit"),
    _m("netlog.analyze_parse_s", "s", "lower",
       "analyze_p50_ms and analyze_p99_ms on audit"),
    _m("storage.record_visit_s", "s", "lower", "ops_per_s on crawl-archive"),
    _m("storage.record_visit_calls", "count", "higher",
       "ops_per_s on crawl-archive"),
    _m("storage.commit_s", "s", "lower", "ops_per_s on crawl-archive"),
    _m("storage.commits", "count", "lower", "ops_per_s on crawl-archive"),
    _m("storage.commit_p99_ms", "ms", "lower", "ops_per_s on crawl-archive"),
    _m("storage.db_bytes", "bytes", "lower",
       "disk_bytes_per_visit on crawl-archive"),
    _m("storage.fsck_visit_scan_s", "s", "lower", "ops_per_s on audit"),
    _m("storage.campaign_digest_s", "s", "lower", "ops_per_s on audit"),
    _m("serve.analyze_report_s", "s", "lower",
       "analyze_p50_ms and analyze_p99_ms on audit"),
    _m("serve.analyze_docs", "count", "higher",
       "analyze_p50_ms and analyze_p99_ms on audit"),
    _m("fabric.run_s", "s", "lower", "ops_per_s on crawl-shards"),
    _m("fabric.merge_s", "s", "lower", "ops_per_s on crawl-shards"),
    _m("fabric.assemble_s", "s", "lower", "ops_per_s on crawl-shards"),
    _m("fabric.supervise_s", "s", "lower", "ops_per_s on crawl-shards"),
    _m("fabric.merge_rows", "count", "higher", "ops_per_s on crawl-shards"),
    _m("fabric.archive_docs_merged", "count", "higher",
       "ops_per_s on crawl-shards"),
    _m("fabric.chunks", "count", "lower", "ops_per_s on crawl-shards"),
    _m("fabric.restarts", "count", "lower", "ops_per_s on crawl-shards"),
    _m("crawler.self_s", "s", "lower", "ops_per_s on the crawl workloads"),
    _m("browser.self_s", "s", "lower", "ops_per_s on the crawl workloads"),
    _m("core.self_s", "s", "lower", "ops_per_s on every workload"),
    _m("netlog.self_s", "s", "lower",
       "ops_per_s on crawl-archive, crawl-shards and audit"),
    _m("storage.self_s", "s", "lower",
       "ops_per_s on crawl-archive, crawl-shards and audit"),
    _m("fabric.self_s", "s", "lower", "ops_per_s on crawl-shards"),
    _m("traced_wall_s", "s", "lower", "all end-to-end metrics"),
    _m("unattributed_s", "s", "lower", "nothing: residual no span covers"),
    _m("unattributed_share", "ratio", "lower",
       "nothing: residual no span covers"),
    _m("trace_overhead_ratio", "ratio", "lower",
       "nothing: cost of the wrappers"),
    _m("fsck_docs_per_s", "docs/s", "higher", "ops_per_s on audit"),
    _m("analyze_p50_ms", "ms", "lower", "ops_per_s on audit"),
    _m("analyze_p99_ms", "ms", "lower", "ops_per_s on audit"),
    _m("disk_bytes_per_visit", "bytes", "lower",
       "ops_per_s on crawl-archive and crawl-shards"),
    _m("cpu_ms_per_op", "ms", "lower",
       "ops_per_s on crawl-shards: CPU of the coordinator and its shards"),
    _m("error_ratio", "ratio", "lower", "the correctness gate"),
)


class _Frame:
    __slots__ = ("name", "key", "child")

    def __init__(self, name: str, key: str | None) -> None:
        self.name = name
        self.key = key
        self.child = 0.0


class _Agg:
    __slots__ = ("count", "total", "self_time", "samples")

    def __init__(self, keep_samples: bool) -> None:
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.samples: list[float] | None = [] if keep_samples else None


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[int(q) - 1]


def _visit_key(crawl_arg: int, os_arg: int, domain_arg: int):
    def key_of(args: tuple, parent_key: str | None) -> str:
        return f"{args[crawl_arg]}:{args[os_arg]}:{args[domain_arg]}"

    return key_of


def _crawl_site_key(args: tuple, parent_key: str | None) -> str:
    crawler, website = args[0], args[1]
    return f"{parent_key}:{crawler.environment.os_name}:{website.domain}"


def _campaign_key(args: tuple, parent_key: str | None) -> str:
    return args[1].name


class Tracer:
    """Collects spans from the wrapped layer entry points.

    ``install()`` wraps every entry point; ``uninstall()`` restores the
    originals.  Aggregates accumulate across every installed interval, so
    a run that traces several passes reports their sum (the caller
    divides by the pass count).
    """

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.aggs: dict[str, _Agg] = {}
        #: ``(span, parent span) -> [count, inclusive seconds]``.
        self.pairs: dict[tuple[str, str | None], list] = {}
        self.events: list[tuple[str, float, float, str | None]] = []
        self.dropped_events = 0
        self.origin = time.perf_counter()
        # Facts read off return values, cheaply, at span exit.
        self.detections = 0
        self.active_detections = 0
        self.flows = 0
        self.local_requests = 0
        self.archive_failures = 0
        self.written_paths: list[Any] = []
        self.verified_paths: list[Any] = []
        self.fabric_reports: list[Any] = []
        self._originals: list[tuple[Any, str, Any]] = []

    # -- the wrapper -------------------------------------------------------

    def _wrap(
        self,
        fn: Callable,
        name: str,
        *,
        emit: bool,
        keep_samples: bool,
        key_of: Callable[[tuple, str | None], str] | None,
        on_exit: Callable[[tuple, Any], None] | None,
    ) -> Callable:
        stack = self.stack
        pairs = self.pairs
        events = self.events
        agg = self.aggs.setdefault(name, _Agg(keep_samples))
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_key = parent.key if parent is not None else None
            frame = _Frame(
                name, key_of(args, parent_key) if key_of else parent_key
            )
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                agg.count += 1
                agg.total += elapsed
                agg.self_time += elapsed - frame.child
                if agg.samples is not None:
                    agg.samples.append(elapsed)
                pair = (name, parent.name if parent is not None else None)
                slot = pairs.get(pair)
                if slot is None:
                    pairs[pair] = [1, elapsed]
                else:
                    slot[0] += 1
                    slot[1] += elapsed
                if parent is not None:
                    parent.child += elapsed
                if emit:
                    if len(events) < MAX_EVENTS:
                        events.append((name, start, elapsed, frame.key))
                    else:
                        tracer.dropped_events += 1
            if on_exit is not None:
                on_exit(args, result)
            return result

        return wrapper

    # -- what gets wrapped -------------------------------------------------

    def _on_detection(self, args: tuple, result: Any) -> None:
        self.detections += 1
        self.flows += result.total_flows
        self.local_requests += len(result.requests)
        if result.requests:
            self.active_detections += 1

    def _on_campaign(self, args: tuple, result: Any) -> None:
        self.archive_failures += args[0].archive_failures

    def _entry_points(self) -> list[tuple]:
        """``(module, owner attribute or None, attribute, span, options)``."""
        records = {"emit": True, "keep_samples": True}
        aggregate = {"emit": False, "keep_samples": False}
        return [
            ("repro.crawler.campaign", "Campaign", "run", "crawler.campaign",
             {"emit": True, "keep_samples": False, "key_of": _campaign_key,
              "on_exit": self._on_campaign}),
            ("repro.crawler.crawl", "Crawler", "crawl_site",
             "crawler.crawl_site",
             {"emit": True, "keep_samples": False,
              "key_of": _crawl_site_key}),
            ("repro.browser.chrome", "SimulatedChrome", "visit",
             "browser.visit", records),
            ("repro.core.detector", "DetectionSink", "accept",
             "core.detect_accept", aggregate),
            ("repro.core.detector", "DetectionSink", "finish",
             "core.detect_finish",
             {"emit": False, "keep_samples": False,
              "on_exit": self._on_detection}),
            ("repro.core.classifier", "BehaviorClassifier", "classify",
             "core.classify", aggregate),
            ("repro.core.classifier", "BehaviorClassifier", "classify_per_os",
             "core.classify_per_os", aggregate),
            ("repro.netlog.writer", "NetLogBuffer", "accept",
             "netlog.encode_accept", aggregate),
            ("repro.netlog.writer", "NetLogBuffer", "finish",
             "netlog.encode_finish", aggregate),
            ("repro.netlog.archive", None, "write_document_head",
             "netlog.doc_head", aggregate),
            ("repro.netlog.archive", None, "write_document_tail",
             "netlog.doc_tail", aggregate),
            ("repro.netlog.archive", "NetLogArchive", "write_buffered",
             "netlog.archive_write",
             {"emit": True, "keep_samples": True,
              "key_of": _visit_key(1, 2, 3),
              "on_exit": lambda args, path: self.written_paths.append(path)}),
            ("repro.netlog.parallel", None, "verify_paths",
             "netlog.verify_paths", {"emit": True, "keep_samples": False}),
            ("repro.netlog.parallel", None, "verify_document",
             "netlog.verify_document",
             {"emit": True, "keep_samples": False,
              "on_exit": lambda args, stats: self.verified_paths.append(
                  args[0])}),
            ("repro.serve.report", None, "analyze_report",
             "serve.analyze_report", records),
            ("repro.storage.db", "TelemetryStore", "record_visit",
             "storage.record_visit",
             {"emit": True, "keep_samples": False,
              "key_of": _visit_key(1, 3, 2)}),
            ("repro.storage.db", "TelemetryStore", "commit",
             "storage.commit", records),
            ("repro.storage.integrity", None, "fsck", "storage.fsck",
             {"emit": True, "keep_samples": False}),
            ("repro.storage.integrity", None, "campaign_digest",
             "storage.campaign_digest", {"emit": True, "keep_samples": False}),
            ("repro.crawler.fabric", "CrawlFabric", "run", "fabric.run",
             {"emit": True, "keep_samples": False,
              "on_exit": lambda args, outcome: self.fabric_reports.append(
                  outcome.report)}),
        ]

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module_name, owner_name, attr, span, options in self._entry_points():
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            wrapped = self._wrap(
                original,
                span,
                emit=options["emit"],
                keep_samples=options["keep_samples"],
                key_of=options.get("key_of"),
                on_exit=options.get("on_exit"),
            )
            setattr(owner, attr, wrapped)
            self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def _agg(self, name: str) -> _Agg:
        return self.aggs.get(name) or _Agg(False)

    def _pair_total(self, name: str, parent: str) -> float:
        slot = self.pairs.get((name, parent))
        return slot[1] if slot else 0.0

    def _pair_count(self, name: str, parent: str) -> int:
        slot = self.pairs.get((name, parent))
        return slot[0] if slot else 0

    def layer_self_seconds(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, agg in self.aggs.items():
            totals[SPAN_LAYERS[name]] += agg.self_time
        return totals

    def metrics(
        self,
        *,
        traced_walls: list[float],
        untraced_walls: list[float],
        facts: dict[str, float],
    ) -> dict[str, float]:
        """Per-layer metrics, averaged per traced pass.

        ``facts`` carries what only the workload can measure: on-disk
        sizes after the pass and the untraced-pass figures that are
        reported beside the layer split.
        """
        passes = max(len(traced_walls), 1)
        a = self._agg
        out: dict[str, float] = {}

        def per_pass(value: float) -> float:
            return value / passes

        visits = a("crawler.crawl_site").count
        out["crawler.visits"] = per_pass(visits)
        out["crawler.visit_self_s"] = per_pass(a("crawler.crawl_site").self_time)
        out["crawler.campaign_self_s"] = per_pass(
            a("crawler.campaign").self_time
        )
        browser = a("browser.visit")
        out["browser.visit_calls"] = per_pass(browser.count)
        out["browser.events"] = per_pass(
            self._pair_count("core.detect_accept", "browser.visit")
        )
        out["browser.visit_self_s"] = per_pass(browser.self_time)
        out["browser.visit_p50_us"] = percentile(browser.samples or [], 50) * 1e6
        out["browser.visit_p99_us"] = percentile(browser.samples or [], 99) * 1e6
        out["core.detect_s"] = per_pass(
            a("core.detect_accept").total + a("core.detect_finish").total
        )
        out["core.flows"] = per_pass(self.flows)
        out["core.local_requests"] = per_pass(self.local_requests)
        out["core.local_active_share"] = (
            self.active_detections / (visits or self.detections)
            if (visits or self.detections)
            else 0.0
        )
        out["core.classify_s"] = per_pass(
            a("core.classify").self_time + a("core.classify_per_os").self_time
        )
        out["core.classify_calls"] = per_pass(a("core.classify").count)
        out["netlog.encode_s"] = per_pass(
            sum(
                a(name).total
                for name in (
                    "netlog.encode_accept",
                    "netlog.encode_finish",
                    "netlog.doc_head",
                    "netlog.doc_tail",
                )
            )
        )
        out["netlog.encode_bytes"] = facts["encode_bytes"]
        write = a("netlog.archive_write")
        out["netlog.archive_write_self_s"] = per_pass(write.self_time)
        out["netlog.archive_docs"] = per_pass(write.count)
        out["netlog.archive_files"] = facts["archive_files"]
        out["netlog.archive_bytes"] = facts["archive_bytes"]
        out["netlog.archive_write_p50_us"] = (
            percentile(write.samples or [], 50) * 1e6
        )
        out["netlog.archive_write_p99_us"] = (
            percentile(write.samples or [], 99) * 1e6
        )
        out["netlog.archive_write_failures"] = per_pass(self.archive_failures)
        verify = a("netlog.verify_document")
        out["netlog.verify_s"] = per_pass(verify.total)
        out["netlog.verify_docs"] = per_pass(verify.count)
        out["netlog.verify_bytes"] = facts["verify_bytes"]
        out["netlog.verify_mb_per_s"] = (
            facts["verify_bytes"] / 1e6 / out["netlog.verify_s"]
            if out["netlog.verify_s"]
            else 0.0
        )
        analyze = a("serve.analyze_report")
        out["netlog.analyze_parse_s"] = per_pass(analyze.self_time)
        out["storage.record_visit_s"] = per_pass(a("storage.record_visit").total)
        out["storage.record_visit_calls"] = per_pass(
            a("storage.record_visit").count
        )
        commit = a("storage.commit")
        out["storage.commit_s"] = per_pass(commit.total)
        out["storage.commits"] = per_pass(commit.count)
        out["storage.commit_p99_ms"] = percentile(commit.samples or [], 99) * 1e3
        out["storage.db_bytes"] = facts["db_bytes"]
        out["storage.fsck_visit_scan_s"] = per_pass(a("storage.fsck").self_time)
        out["storage.campaign_digest_s"] = per_pass(
            a("storage.campaign_digest").total
        )
        out["serve.analyze_report_s"] = per_pass(analyze.total)
        out["serve.analyze_docs"] = per_pass(analyze.count)
        run = a("fabric.run").total
        merge = sum(report.merge_seconds for report in self.fabric_reports)
        assemble = self._pair_total("crawler.campaign", "fabric.run")
        out["fabric.run_s"] = per_pass(run)
        out["fabric.merge_s"] = per_pass(merge)
        out["fabric.assemble_s"] = per_pass(assemble)
        out["fabric.supervise_s"] = per_pass(run - merge - assemble)
        out["fabric.merge_rows"] = per_pass(
            sum(report.rows_merged for report in self.fabric_reports)
        )
        out["fabric.archive_docs_merged"] = per_pass(
            sum(report.archive_docs_merged for report in self.fabric_reports)
        )
        out["fabric.chunks"] = per_pass(
            sum(report.chunks for report in self.fabric_reports)
        )
        out["fabric.restarts"] = per_pass(
            sum(report.total_restarts for report in self.fabric_reports)
        )
        layer_self = self.layer_self_seconds()
        for layer in LAYERS:
            out[f"{layer}.self_s"] = per_pass(layer_self[layer])
        wall = per_pass(sum(traced_walls))
        attributed = sum(out[f"{layer}.self_s"] for layer in LAYERS)
        out["traced_wall_s"] = wall
        out["unattributed_s"] = wall - attributed
        out["unattributed_share"] = (wall - attributed) / wall if wall else 0.0
        out["trace_overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(untraced_walls)
            - 1.0
            if traced_walls and untraced_walls
            else 0.0
        )
        for name in (
            "fsck_docs_per_s",
            "analyze_p50_ms",
            "analyze_p99_ms",
            "disk_bytes_per_visit",
            "cpu_ms_per_op",
            "error_ratio",
        ):
            out[name] = facts[name]
        return out

    def write_chrome_trace(self, path: Path, *, meta: dict) -> None:
        """Write the kept spans as Chrome ``trace_event`` JSON (Perfetto)."""
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "perfbench " + str(meta.get("workload"))}},
        ]
        for name, start, elapsed, key in self.events:
            event = {
                "name": name,
                "cat": SPAN_LAYERS[name],
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round(elapsed * 1e6, 3),
                "pid": 1,
                "tid": 1,
            }
            if key is not None:
                event["args"] = {"key": key}
            events.append(event)
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(meta, dropped_events=self.dropped_events),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))
