"""Write-behind NetLog archive: bytes, the commit barrier and lifetimes.

Campaign documents are assembled in the crawl process and created on
disk by the archive's writer process.  These tests pin what that must
not change — every document is the ``dumps`` of its visit, serial or
with ``--workers`` — and what it adds: no commit names a document that
is not on disk yet, write failures are counted and leave fsck holes, a
writer that dies fails the run and a resume repairs it, and no writer
process or temp file outlives a run.
"""

from __future__ import annotations

import os
import signal
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.crawler import campaign as campaign_module
from repro.crawler.campaign import Campaign
from repro.crawler.crawl import Crawler
from repro.crawler.executor import ExecutorConfig
from repro.crawler.retry import RetryPolicy
from repro.faults.injector import InjectedCrashError
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.netlog import dumps
from repro.netlog.archive import META_KEY, ArchiveWriterError, NetLogArchive
from repro.netlog.binary import dumps_binary
from repro.storage.db import TelemetryStore
from repro.storage.integrity import FsckKind, fsck
from repro.web.population import build_top_population

SCALE = 0.002


@pytest.fixture(scope="module")
def population():
    return build_top_population(2020, scale=SCALE)


def _workers(count: int) -> ExecutorConfig:
    return ExecutorConfig(workers=count, handle_signals=False)


def _reaped(pid: int) -> bool:
    """Whether ``pid`` is neither running nor a zombie child of ours."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return not os.path.exists(f"/proc/{pid}")
    return False


def _writer_pid(archive: NetLogArchive) -> int | None:
    process = archive._process
    return process.pid if process is not None else None


def _temp_files(root: Path) -> list[Path]:
    return [path for path in root.rglob("*") if path.name.endswith(".tmp")]


# -- bytes -------------------------------------------------------------------


@pytest.mark.parametrize("format", ["json", "binary"])
@pytest.mark.parametrize("workers", [0, 2])
def test_campaign_documents_equal_dumps(
    population, tmp_path, monkeypatch, format, workers
):
    """Every archived document is byte-equal to ``dumps`` of its events."""
    events_of: dict[int, list] = {}

    class CapturingCrawler(Crawler):
        def __init__(self, *args, **kwargs):
            kwargs["capture_events"] = True
            super().__init__(*args, **kwargs)

        def crawl_site(self, website):
            record = super().crawl_site(website)
            if record.netlog is not None:
                events_of[id(record.netlog)] = record.events
            return record

    expected: dict[Path, bytes] = {}
    write_buffered = NetLogArchive.write_buffered

    def spy(self, crawl, os_name, domain, buffer, *, meta=None, **kwargs):
        path = write_buffered(
            self, crawl, os_name, domain, buffer, meta=meta, **kwargs
        )
        encode = dumps_binary if format == "binary" else dumps
        document = encode(
            events_of.pop(id(buffer)), checksums=True, extra={META_KEY: meta}
        )
        expected[path] = (
            document.encode("utf-8") if isinstance(document, str) else document
        )
        return path

    monkeypatch.setattr(campaign_module, "Crawler", CapturingCrawler)
    monkeypatch.setattr(NetLogArchive, "write_buffered", spy)
    store = TelemetryStore(
        str(tmp_path / "crawl.db"),
        serialized=bool(workers),
        commit_every=25 if workers else 0,
    )
    archive = NetLogArchive(tmp_path / "netlogs")
    with store:
        Campaign(
            store=store,
            checkpoint_every=0 if workers else 40,
            executor=_workers(workers) if workers else None,
            netlog_archive=archive,
            netlog_format=format,
        ).run(population)
    written = {path: path.read_bytes() for path in archive.entries()}
    assert len(written) > 100
    assert written == expected
    assert not _temp_files(archive.root)


# -- the commit barrier --------------------------------------------------------


class _BarrierSpy(TelemetryStore):
    """After every commit, checks each committed row's document exists.

    A second connection sees only committed rows; every successful one
    must already have its document on disk.
    """

    def __init__(self, path: str, archive: NetLogArchive, **kwargs) -> None:
        super().__init__(path, **kwargs)
        self.path = path
        self.archive = archive
        self.checked: list[int] = []

    def _timed_commit(self, kind: str) -> None:
        super()._timed_commit(kind)
        reader = sqlite3.connect(self.path)
        try:
            rows = reader.execute(
                "SELECT crawl, os_name, domain FROM visits WHERE success = 1"
            ).fetchall()
        finally:
            reader.close()
        missing = [row for row in rows if not self.archive.exists(*row)]
        assert not missing, f"committed rows without documents: {missing[:3]}"
        self.checked.append(len(rows))


@pytest.mark.parametrize("workers", [0, 2])
def test_every_committed_row_has_its_document(population, tmp_path, workers):
    archive = NetLogArchive(tmp_path / "netlogs")
    store = _BarrierSpy(
        str(tmp_path / "crawl.db"),
        archive,
        serialized=bool(workers),
        commit_every=9 if workers else 0,
    )
    with store:
        Campaign(
            store=store,
            checkpoint_every=0 if workers else 7,
            executor=_workers(workers) if workers else None,
            netlog_archive=archive,
        ).run(population)
    # Many commits, each seeing more rows, the last seeing them all.
    assert len(store.checked) > 10
    assert store.checked[-1] == sum(
        1 for _ in archive.entries()
    ) > store.checked[0]


def test_store_commit_is_skipped_when_the_barrier_raises(tmp_path):
    path = str(tmp_path / "crawl.db")
    store = TelemetryStore(path)
    store.record_visit("c", "a.com", "linux", success=True, error=0)

    def barrier() -> None:
        raise ArchiveWriterError("writer gone")

    store.before_commit = barrier
    with pytest.raises(ArchiveWriterError):
        store.commit()
    reader = sqlite3.connect(path)
    assert reader.execute("SELECT COUNT(*) FROM visits").fetchone() == (0,)
    reader.close()
    store.before_commit = None
    store.commit()
    store.close()


# -- failures ------------------------------------------------------------------


def test_unwritable_directory_is_counted_and_leaves_fsck_holes(
    population, tmp_path
):
    root = tmp_path / "netlogs"
    blocked = root / population.name / "linux"
    blocked.parent.mkdir(parents=True)
    blocked.write_text("not a directory")  # no document can go under it
    archive = NetLogArchive(root)
    with TelemetryStore(str(tmp_path / "crawl.db")) as store:
        campaign = Campaign(
            store=store,
            retry_policy=RetryPolicy(max_attempts=2),
            checkpoint_every=50,
            netlog_archive=archive,
        )
        result = campaign.run(population)
        linux_ok = result.stats["linux"].successes
        assert campaign.archive_failures == linux_ok > 0
        report = fsck(store, archive)
    holes = report.findings_of(FsckKind.MISSING_ARCHIVE)
    assert len(holes) == linux_ok
    assert {finding.os_name for finding in holes} == {"linux"}
    assert not _temp_files(root)


def test_killed_writer_fails_the_run_and_resume_repairs(population, tmp_path):
    archive = NetLogArchive(tmp_path / "netlogs")
    db = str(tmp_path / "crawl.db")
    visits: list = []
    killed: list[int] = []

    def kill_writer(record) -> None:
        visits.append(record)
        if len(visits) == 60:
            pid = _writer_pid(archive)
            assert pid is not None
            killed.append(pid)
            os.kill(pid, signal.SIGKILL)

    with TelemetryStore(db) as store:
        with pytest.raises(ArchiveWriterError):
            Campaign(
                store=store,
                checkpoint_every=25,
                netlog_archive=archive,
                on_visit=kill_writer,
            ).run(population)
        assert killed and _reaped(killed[0])
        committed = store.visit_count()
        assert 0 < committed < 2 * len(population.websites)
        Campaign(store=store, checkpoint_every=25, netlog_archive=archive).run(
            population, resume=True
        )
        report = fsck(store, archive)
    assert report.clean, report.findings


def test_a_writer_that_cannot_start_fails_the_run(
    population, tmp_path, monkeypatch
):
    """Not a disk fault: no retry, no silent hole per document."""
    monkeypatch.setattr(sys, "executable", str(tmp_path / "no-python"))
    campaign = Campaign(
        retry_policy=RetryPolicy(max_attempts=3),
        netlog_archive=NetLogArchive(tmp_path / "netlogs"),
    )
    with pytest.raises(ArchiveWriterError, match="cannot start"):
        campaign.run(population)
    assert campaign.archive_failures == 0


# -- lifetimes -----------------------------------------------------------------


def test_no_writer_or_temp_file_survives_a_run(population, tmp_path):
    archive = NetLogArchive(tmp_path / "netlogs")
    seen: set[int] = set()

    def note_writer(record) -> None:
        if _writer_pid(archive) is not None:
            seen.add(_writer_pid(archive))

    Campaign(netlog_archive=archive, on_visit=note_writer).run(population)
    assert len(seen) == 1
    assert _writer_pid(archive) is None
    assert all(_reaped(pid) for pid in seen)
    assert not _temp_files(archive.root)


def test_no_writer_or_temp_file_survives_an_exception(population, tmp_path):
    archive = NetLogArchive(tmp_path / "netlogs")
    seen: set[int] = set()

    def note_writer(record) -> None:
        if _writer_pid(archive) is not None:
            seen.add(_writer_pid(archive))

    plan = FaultPlan(
        seed="crash", faults=(FaultSpec(kind=FaultKind.CRASH, at_count=50),)
    )
    with TelemetryStore(str(tmp_path / "crawl.db")) as store:
        with pytest.raises(InjectedCrashError):
            Campaign(
                store=store,
                fault_plan=plan,
                netlog_archive=archive,
                on_visit=note_writer,
            ).run(population)
        # The crash checkpoint flushed first: every committed successful
        # row's document is on disk.
        (successes,) = store.connection.execute(
            "SELECT COUNT(*) FROM visits WHERE success = 1"
        ).fetchone()
        assert successes == sum(1 for _ in archive.entries()) > 0
    assert seen and _writer_pid(archive) is None
    assert all(_reaped(pid) for pid in seen)
    assert not _temp_files(archive.root)


def _session_members(session: int) -> list[int]:
    members = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_bytes()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, pgrp, sid.
        if int(stat[stat.rfind(b")") + 2:].split()[3]) == session:
            members.append(int(entry.name))
    return members


def _study(tmp_path, *extra: str) -> subprocess.Popen:
    """An archived ``repro study`` run to completion in a new session."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "study", "--scale", "0.002",
            "--db", str(tmp_path / "crawl.db"),
            "--netlog-dir", str(tmp_path / "netlogs"), *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    _, stderr = process.communicate(timeout=170)
    assert process.returncode == 0, stderr
    assert not _temp_files(tmp_path / "netlogs")
    assert any(NetLogArchive(tmp_path / "netlogs").entries())
    return process


@pytest.mark.slow
def test_archived_study_leaves_no_process_behind(tmp_path):
    process = _study(tmp_path)
    assert _session_members(process.pid) == []


@pytest.mark.slow
def test_sharded_archived_study_leaves_no_writer_behind(tmp_path):
    """Each shard reaps its writers; none is running once the study ends.

    Only writers are looked for: multiprocessing's resource tracker, which
    the fabric's spawned shards start, exits on its own just after the
    coordinator does.
    """
    process = _study(tmp_path, "--shards", "2")
    writers = []
    for pid in _session_members(process.pid):
        try:
            command = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        if b"_archive_writer" in command:
            writers.append(pid)
    assert writers == []
