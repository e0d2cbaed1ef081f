"""The four benchmark workloads, their set-up and their correctness gate.

Every workload is a single-process closed loop: a pass starts only when
the previous one has finished.  The population is the paper's
``top2021`` list at :data:`SCALE` (fixed by the paper's tables); the
workload seed permutes the crawl order and picks the documents ``audit``
analyzes.  Crawl order does not change what a study finds, so every seed
has the same correct output, pinned in ``expected.json``.

* ``crawl`` — a serial study with no store and no archive: browser
  simulation plus detection.  Encode, archive, store and parse are
  skipped, so a change to them should not move it.
* ``crawl-archive`` — the same loop with a store and a JSON NetLog
  archive: the write path.
* ``audit`` — the read path over what ``crawl-archive`` writes: a serial
  ``fsck`` over the whole archive, then ``analyze_report`` on a seeded
  sample of documents.  The archive is built once per run, untimed.
* ``crawl-shards`` — the ``crawl-archive`` job through the process
  fabric with :data:`SHARDS` shard processes; ``crawl-archive`` is its
  serial baseline.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.crawler.campaign import Campaign, CampaignResult, finding_fingerprint
from repro.crawler.fabric import CrawlFabric, FabricConfig
from repro.crawler.retry import RetryPolicy
from repro.crawler.shard import PopulationSpec
from repro.netlog.archive import NetLogArchive
from repro.serve import report as serve_report
from repro.storage import integrity
from repro.storage.db import TelemetryStore
from repro.web.population import CrawlPopulation, build_top_population

POPULATION = "top2021"
#: Share of the 100K top list crawled: 1,000 sites on two OSes, 2,000
#: visits.  Every seeded (behaviour-carrying) site is kept at any scale.
#: Small enough that a run makes several passes, and the median over
#: passes rides out the shared machine's slow spells.
SCALE = 0.01
#: Shard processes for ``crawl-shards``: one per CPU of a 2-CPU machine.
SHARDS = 2
#: Documents ``audit`` analyzes per pass; over a run's passes this puts
#: well over ten samples beyond the p99.
ANALYZE_SAMPLE = 500
#: The archive format the write path uses (the CLI default).
NETLOG_FORMAT = "json"

EXPECTED_PATH = Path(__file__).with_name("expected.json")
RUN_SCRIPT = Path(__file__).with_name("run.py")


# -- inputs ------------------------------------------------------------------


def build_population(scale: float, order_seed: int | None) -> CrawlPopulation:
    """The benchmark population, its crawl order permuted by ``order_seed``."""
    population = build_top_population(2021, scale=scale)
    if order_seed is None:
        return population
    websites = list(population.websites)
    random.Random(order_seed).shuffle(websites)
    return CrawlPopulation(
        name=population.name,
        websites=websites,
        oses=population.oses,
        top_list=population.top_list,
        by_domain=population.by_domain,
        active_domains=population.active_domains,
        webrtc_policy=population.webrtc_policy,
    )


@dataclass(frozen=True, slots=True)
class ShuffledSpec(PopulationSpec):
    """A population spec whose crawl order is permuted by ``order_seed``.

    Shard processes rebuild the population from the spec, so the order
    has to travel inside it.
    """

    order_seed: int = 0

    def build(self) -> CrawlPopulation:
        return build_population(self.scale, self.order_seed)


# -- the correctness gate ----------------------------------------------------


def finding_hash(finding) -> str:
    """Short digest of everything a finding means (source ids excluded)."""
    text = repr(finding_fingerprint(finding))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def table1(result: CampaignResult) -> dict[str, list]:
    """Table 1 counts per OS: successes, failures, errors by bucket."""
    return {
        os_name: [
            stats.successes,
            stats.failures,
            sorted((stats.errors or {}).items()),
        ]
        for os_name, stats in sorted(result.stats.items())
    }


def canonical(scale: float) -> dict:
    """The correct output at ``scale``: a serial archived study in list order."""
    population = build_population(scale, None)
    with tempfile.TemporaryDirectory() as tmp:
        store = TelemetryStore(os.path.join(tmp, "crawl.db"))
        archive = NetLogArchive(os.path.join(tmp, "netlogs"))
        result = _campaign(store, archive).run(population)
        store.commit()
        digest = integrity.campaign_digest(store, population.name)
        store.close()
        paths = list(archive.entries())
        events = sum(
            json.loads(path.read_text())["integrity"]["events"] for path in paths
        )
    return {
        "visits": sum(stats.total for stats in result.stats.values()),
        "documents": len(paths),
        "events": events,
        "campaign_digest": digest,
        "table1": json.loads(json.dumps(table1(result))),
        "findings": {
            finding.domain: [finding_hash(finding), len(finding.per_os)]
            for finding in result.findings
        },
    }


def load_expected(scale: float) -> dict:
    pins = json.loads(EXPECTED_PATH.read_text())
    key = f"{POPULATION}@{scale:g}"
    if key not in pins:
        raise SystemExit(
            f"no pinned output for {key} in {EXPECTED_PATH.name}; "
            f"generate it with: python3 perfbench/run.py --pin --scale {scale:g}"
        )
    return pins[key]


def check_campaign(result: CampaignResult, expected: dict) -> int:
    """Visits whose outcome differs from the pinned study.

    A finding that differs, is missing or is extra counts each of its
    visits; a Table 1 count that differs counts by how much.
    """
    failed = 0
    got = {finding.domain: finding for finding in result.findings}
    for domain, (digest, visits) in expected["findings"].items():
        finding = got.pop(domain, None)
        if finding is None or finding_hash(finding) != digest:
            failed += visits
    failed += sum(len(finding.per_os) for finding in got.values())
    observed = json.loads(json.dumps(table1(result)))
    for os_name, (successes, failures, errors) in expected["table1"].items():
        o_successes, o_failures, o_errors = observed.get(os_name, [0, 0, []])
        failed += abs(o_successes - successes) + abs(o_failures - failures)
        if o_errors != errors:
            failed += max(failures, 1)
    return failed


def check_store(store_path: str, archive_root: str, expected: dict) -> int:
    """Failed visits of a written store and archive.

    The store's campaign digest must equal the pinned one (else every
    visit counts as failed), and the archive must hold every document.
    """
    digest = _digest_of(store_path)
    failed = 0 if digest == expected["campaign_digest"] else expected["visits"]
    documents = sum(1 for _ in NetLogArchive(archive_root).entries())
    return failed + abs(documents - expected["documents"])


def check_analysis(report: dict, detection) -> bool:
    """Whether an analyzed document's local requests match the stored ones."""
    stored = [] if detection is None else [
        [
            request.locality.value,
            request.scheme,
            request.host,
            request.port,
            request.path,
            request.time,
            request.method,
            request.via_redirect,
            request.initiator,
        ]
        for request in detection.requests
    ]
    analyzed = [
        [
            request["locality"],
            request["scheme"],
            request["host"],
            request["port"],
            request["path"],
            request["time"],
            request["method"],
            request["via_redirect"],
            request["initiator"],
        ]
        for request in report["requests"]
    ]
    return analyzed == stored


# -- disk accounting ---------------------------------------------------------


def disk_usage(*roots: str) -> tuple[int, int]:
    """``(files, on-disk bytes)`` under ``roots``."""
    files = blocks = 0
    for root in roots:
        if os.path.isfile(root):
            entries = [root]
        elif os.path.isdir(root):
            entries = [
                os.path.join(directory, name)
                for directory, _, names in os.walk(root)
                for name in names
            ]
        else:
            continue
        for path in entries:
            info = os.stat(path)
            files += 1
            blocks += info.st_blocks * 512
    return files, blocks


def _db_files(store_path: str) -> list[str]:
    return [store_path + suffix for suffix in ("", "-wal", "-shm", "-journal")]


# -- workloads ---------------------------------------------------------------


@dataclass
class PassResult:
    """One timed pass: its wall and CPU time, its operations and failures."""

    wall_s: float
    cpu_s: float
    ops: int
    failed: int = 0
    #: Per-document ``analyze_report`` latencies (``audit`` only).
    analyze_s: list[float] = field(default_factory=list)
    fsck_s: float = 0.0
    fsck_docs: int = 0
    #: On-disk size of everything the pass left behind.
    disk_bytes: int = 0
    facts: dict = field(default_factory=dict)


def _cpu_seconds() -> float:
    """CPU time of this process and its reaped children (shard processes)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class _Clock:
    start = 0.0
    wall = 0.0
    cpu = 0.0


@contextlib.contextmanager
def _timing(tracer):
    """Time the enclosed work; trace it when a tracer is given.

    The tracer's wrappers are installed only inside this block, so set-up
    and the gate never show up in the layer split.
    """
    clock = _Clock()
    if tracer is not None:
        tracer.install()
    try:
        cpu = _cpu_seconds()
        clock.start = time.perf_counter()
        yield clock
        clock.wall = time.perf_counter() - clock.start
        clock.cpu = _cpu_seconds() - cpu
    finally:
        if tracer is not None:
            tracer.uninstall()


def _traced_sizes(tracer, result: PassResult) -> None:
    """Bytes the traced pass encoded and verified (read before clean-up)."""
    if tracer is None:
        return
    result.facts["encode_bytes"] = sum(
        os.stat(path).st_size for path in tracer.written_paths
    )
    result.facts["verify_bytes"] = sum(
        os.stat(path).st_size for path in tracer.verified_paths
    )
    tracer.written_paths.clear()
    tracer.verified_paths.clear()


def _campaign(store: TelemetryStore | None, archive: NetLogArchive | None) -> Campaign:
    """A campaign configured as ``repro study`` configures it."""
    return Campaign(
        store=store,
        retry_policy=RetryPolicy(max_attempts=1),
        check_connectivity=False,
        checkpoint_every=100 if store is not None else 0,
        netlog_archive=archive,
        netlog_format=NETLOG_FORMAT if archive is not None else None,
    )


class Workload:
    """One workload: per-pass set-up, the timed pass, and its gate."""

    name = ""

    def __init__(self, workdir: Path, scale: float, seed: int) -> None:
        self.workdir = workdir
        self.scale = scale
        self.rng = random.Random(seed)
        self.expected = load_expected(scale)
        self._passes = 0

    def prepare(self) -> None:
        """Build untimed inputs shared by every pass."""

    def setup(self, directory: Path, order_seed: int):
        """Everything before work starts; returns the pass context."""
        raise NotImplementedError

    def timed(self, context) -> tuple[object, int]:
        """The timed work; returns its outcome and operation count."""
        raise NotImplementedError

    def check(self, context, outcome, result: PassResult) -> None:
        """Gate one pass: fill ``result.failed`` (and its facts)."""
        raise NotImplementedError

    def run_pass(self, tracer=None) -> PassResult:
        """Set up, run the timed work (traced when ``tracer`` is given), gate."""
        self._passes += 1
        directory = self.workdir / f"pass-{self._passes}"
        directory.mkdir(parents=True)
        context = self.setup(directory, self.rng.getrandbits(32))
        with _timing(tracer) as clock:
            outcome, ops = self.timed(context)
        result = PassResult(wall_s=clock.wall, cpu_s=clock.cpu, ops=ops)
        self.check(context, outcome, result)
        _traced_sizes(tracer, result)
        shutil.rmtree(directory, ignore_errors=True)
        # Settle the disk now, untimed, so the next pass does not share it
        # with the write-back of this one.
        os.sync()
        return result

    def close(self) -> None:
        """Release what :meth:`prepare` opened."""


class CrawlWorkload(Workload):
    name = "crawl"

    def setup(self, directory: Path, order_seed: int):
        return build_population(self.scale, order_seed), _campaign(None, None)

    def timed(self, context):
        population, campaign = context
        result = campaign.run(population)
        return result, sum(stats.total for stats in result.stats.values())

    def check(self, context, outcome, result: PassResult) -> None:
        result.failed = check_campaign(outcome, self.expected)
        result.facts = {
            "local_active_visits": sum(len(f.per_os) for f in outcome.findings)
        }


class CrawlArchiveWorkload(Workload):
    name = "crawl-archive"

    def setup(self, directory: Path, order_seed: int):
        population = build_population(self.scale, order_seed)
        store_path = str(directory / "crawl.db")
        archive_root = str(directory / "netlogs")
        store = TelemetryStore(store_path)
        archive = NetLogArchive(archive_root)
        return population, store, archive, store_path, archive_root

    def timed(self, context):
        population, store, archive, _, _ = context
        result = _campaign(store, archive).run(population)
        store.commit()
        store.close()
        return result, sum(stats.total for stats in result.stats.values())

    def check(self, context, outcome, result: PassResult) -> None:
        _, _, _, store_path, archive_root = context
        result.failed = check_campaign(outcome, self.expected)
        result.failed += check_store(store_path, archive_root, self.expected)
        _fill_disk_facts(result, _db_files(store_path), archive_root, [])
        result.facts["local_active_visits"] = sum(
            len(f.per_os) for f in outcome.findings
        )


class ShardsWorkload(Workload):
    name = "crawl-shards"

    def setup(self, directory: Path, order_seed: int):
        store_path = str(directory / "crawl.db")
        archive_root = str(directory / "netlogs")
        spec = ShuffledSpec(
            population=POPULATION, scale=self.scale, order_seed=order_seed
        )
        # The population is built here only as ``repro study --shards``
        # builds it before starting the fabric (for its progress line);
        # the fabric rebuilds it from the spec in every process.
        spec.build()
        fabric = CrawlFabric(
            spec,
            FabricConfig(shards=SHARDS, retries=1, netlog_format=NETLOG_FORMAT),
            workdir=store_path + ".shards",
            rollup_path=store_path,
            archive_root=archive_root,
        )
        return fabric, store_path, archive_root

    def timed(self, context):
        fabric, _, _ = context
        outcome = fabric.run()
        return outcome, sum(
            stats.total for stats in outcome.result.stats.values()
        )

    def check(self, context, outcome, result: PassResult) -> None:
        _, store_path, archive_root = context
        result.failed = check_campaign(outcome.result, self.expected)
        result.failed += check_store(store_path, archive_root, self.expected)
        report = outcome.report
        if report.total_restarts or report.dead_shards:
            result.failed += 1
        _fill_disk_facts(
            result, _db_files(store_path), archive_root, [store_path + ".shards"]
        )
        result.facts["local_active_visits"] = sum(
            len(f.per_os) for f in outcome.result.findings
        )


def _fill_disk_facts(
    result: PassResult, db_files: list[str], archive_root: str, extra: list[str]
) -> None:
    _, db_bytes = disk_usage(*db_files)
    archive_files, archive_bytes = disk_usage(archive_root)
    _, extra_bytes = disk_usage(*extra)
    result.disk_bytes = db_bytes + archive_bytes + extra_bytes
    result.facts.update(
        {
            "db_bytes": db_bytes,
            "archive_files": archive_files,
            "archive_bytes": archive_bytes,
        }
    )


def write_archive(directory: str, scale: float, order_seed: int) -> None:
    """Child-process body: the ``crawl-archive`` study ``audit`` reads."""
    store = TelemetryStore(os.path.join(directory, "crawl.db"))
    archive = NetLogArchive(os.path.join(directory, "netlogs"))
    _campaign(store, archive).run(build_population(scale, order_seed))
    store.commit()
    store.close()


class AuditWorkload(Workload):
    name = "audit"

    def prepare(self) -> None:
        self.data_dir = self.workdir / "archive"
        self.data_dir.mkdir(parents=True)
        # A separate process writes the archive, so its memory does not
        # count toward this run's peak RSS.  A plain subprocess (not a
        # multiprocessing one) starts no helper processes that outlive it.
        writer = subprocess.run(
            [
                sys.executable, str(RUN_SCRIPT),
                "--scale", repr(self.scale),
                "--seed", str(self.rng.getrandbits(32)),
                "--write-archive", str(self.data_dir),
            ],
            capture_output=True,
            text=True,
            timeout=150,
            check=False,
        )
        if writer.returncode != 0:
            raise RuntimeError(
                f"archive writer exited with {writer.returncode}:\n{writer.stderr}"
            )
        # Flush the freshly written archive now rather than during the
        # timed passes.
        os.sync()
        self.store_path = str(self.data_dir / "crawl.db")
        self.archive_root = str(self.data_dir / "netlogs")
        # The writer's digest: fsck must report exactly this.
        self.writer_digest = _digest_of(self.store_path)
        self.documents = sum(1 for _ in NetLogArchive(self.archive_root).entries())
        self.store, self.archive, paths = self.setup(self.data_dir, 0)
        sample = sorted(
            self.rng.sample(paths, min(ANALYZE_SAMPLE, len(paths)))
        )
        # Uploads arrive as bytes; reading them is not part of analysis.
        self.uploads = [(path, path.read_bytes()) for path in sample]
        self.detections = {
            os_name: self.store.detections_for(POPULATION, os_name)
            for os_name in {path.parent.name for path in paths}
        }

    def setup(self, directory: Path, order_seed: int):
        store = TelemetryStore(str(directory / "crawl.db"))
        archive = NetLogArchive(directory / "netlogs")
        return store, archive, list(archive.entries())

    def run_pass(self, tracer=None) -> PassResult:
        latencies: list[float] = []
        analyses = []
        with _timing(tracer) as clock:
            report = integrity.fsck(self.store, self.archive)
            fsck_s = time.perf_counter() - clock.start
            for path, data in self.uploads:
                began = time.perf_counter()
                analyses.append(serve_report.analyze_report(data))
                latencies.append(time.perf_counter() - began)
        result = PassResult(
            wall_s=clock.wall,
            cpu_s=clock.cpu,
            ops=report.scanned_archives + len(analyses),
            analyze_s=latencies,
            fsck_s=fsck_s,
            fsck_docs=report.scanned_archives,
        )
        failed = len(report.findings)
        if report.campaign_digests.get(POPULATION) != self.writer_digest:
            failed += report.scanned_archives
        failed += abs(report.scanned_archives - self.documents)
        for (path, _), analysis in zip(self.uploads, analyses):
            detection = self.detections[path.parent.name].get(path.stem)
            if not check_analysis(analysis, detection):
                failed += 1
        result.failed = failed
        _fill_disk_facts(result, _db_files(self.store_path), self.archive_root, [])
        result.facts["local_active_visits"] = sum(
            len(detections) for detections in self.detections.values()
        )
        _traced_sizes(tracer, result)
        return result

    def check_prepared(self) -> int:
        """Failed visits of the prepared input itself (pinned digest)."""
        failed = 0
        if self.writer_digest != self.expected["campaign_digest"]:
            failed += self.expected["visits"]
        return failed + abs(self.documents - self.expected["documents"])

    def close(self) -> None:
        if hasattr(self, "store"):
            self.store.close()


def _digest_of(store_path: str) -> str:
    store = TelemetryStore(store_path)
    try:
        return integrity.campaign_digest(store, POPULATION)
    finally:
        store.close()


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (CrawlWorkload, CrawlArchiveWorkload, AuditWorkload, ShardsWorkload)
}
WORKLOADS = tuple(WORKLOAD_CLASSES)
