"""On-disk archive of per-visit NetLog documents.

The paper kept every capture ("11 TB across the study") so telemetry
could be re-parsed when the reduction pipeline changed.  This archive
reproduces that design at laptop scale: one checksummed NetLog document
per (crawl, OS, domain) visit, laid out as
``root/<crawl>/<os>/<domain>.json`` (or ``.nlbin`` for the binary
format — see :mod:`repro.netlog.codec`; a visit is stored in exactly one
format, and every read path auto-detects which by magic byte).

Every document is written with ``checksums=True`` (per-record CRC32s,
rolling hash chain, integrity trailer — see :mod:`repro.netlog.writer`)
and carries a ``visitMeta`` header block with the visit's row-level
metadata, so ``repro fsck`` can rebuild a damaged database row from the
archive alone.  Writes go through a temp file and an atomic rename; the
simulated torn writes, bit flips and disk-full failures of the fault
injector enter through the ``corrupt`` / pre-write hooks instead of by
racing the real filesystem.

The files are created write-behind.  The calling process assembles each
document (its bytes, and every fault hook, are decided here, in visit
order) and sends it down a pipe to one writer process per archive
(:mod:`repro.netlog._archive_writer`), which does the file-system work on
another core.  The pipe buffer is the only queue, so a slow disk pushes
back on the crawl.  :meth:`NetLogArchive.flush` is the barrier: once it
returns, every document sent before it is in place — so a caller that
flushes before committing never commits a row whose document is not on
disk.  :meth:`NetLogArchive.close` flushes and reaps the writer.
"""

from __future__ import annotations

import errno
import io
import json
import os
import struct
import sys
import threading
import time
import weakref
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Union

from .. import obs
from . import _archive_writer as _writer
from .codec import (
    ARCHIVE_SUFFIXES,
    FORMAT_BINARY,
    codec_for_suffix,
    get_codec,
    sniff_format,
)
from .events import NetLogEvent
from .parser import ParseStats
from .pipeline import EventSink, ListSink, feed
from .streaming import iter_events_streaming
from .writer import (
    NetLogBuffer,
    write_document_head,
    write_document_tail,
)

_ENCODE_SECONDS = obs.histogram(
    "repro_netlog_encode_seconds",
    "NetLog document assembly time (buffered body to final document "
    "bytes) by format",
    ("format",),
)
_WRITE_SECONDS = obs.histogram(
    "repro_netlog_archive_write_seconds",
    "NetLog document file write time in the archive writer process "
    "(temp file write, atomic rename, sibling removal) by format",
    ("format",),
)
_FLUSH_SECONDS = obs.histogram(
    "repro_netlog_archive_flush_seconds",
    "time the crawl waits at an archive flush for the writer process to "
    "put every sent document in place",
)

if TYPE_CHECKING:
    import subprocess

#: The top-level key carrying visit metadata in archived documents.
META_KEY = "visitMeta"

#: A document-mangling hook applied to the serialised document before it
#: hits disk (the fault injector's ``corrupt_netlog``).  Receives text
#: for JSON documents and bytes for binary ones, and must return the
#: same kind.
CorruptHook = Callable[[Union[str, bytes], str], Union[str, bytes]]


class ArchiveWriterError(RuntimeError):
    """The archive's writer process died; unflushed documents may be lost.

    Not an :class:`OSError`, so no write-retry loop mistakes it for a
    transient disk fault: the caller must not commit rows naming those
    documents (a resumed run re-crawls them).
    """


def _stop_writer(process: "subprocess.Popen[bytes]") -> int:
    """End the writer's input, let it finish, reap it; its exit status."""
    assert process.stdin is not None and process.stdout is not None
    try:
        process.stdin.close()
    except OSError:
        pass  # it died with bytes still buffered for it
    process.stdout.close()
    return process.wait()


def _safe_component(name: str) -> str:
    """A path-safe single component (domains may not traverse)."""
    return name.replace(os.sep, "_").replace("..", "_") or "_"


class NetLogArchive:
    """Per-visit checksummed NetLog documents under one root directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # The writer process, started by the first document (see _send).
        self._lock = threading.Lock()
        self._process: subprocess.Popen[bytes] | None = None
        self._reaper: weakref.finalize | None = None
        self._unflushed = 0
        self._timed_formats: list[str] = []

    # -- layout ------------------------------------------------------------

    def path_for(
        self,
        crawl: str,
        os_name: str,
        domain: str,
        *,
        format: str | None = None,
    ) -> Path:
        """The document path for one visit.

        With ``format`` given, the path that format would occupy.
        Without it, the path of whichever format the visit is currently
        stored in — falling back to the JSON path for visits that do not
        exist yet (the archive's historical default).
        """
        directory = self.crawl_dir(crawl) / _safe_component(os_name)
        stem = _safe_component(domain)
        if format is not None:
            return directory / (stem + get_codec(format).suffix)
        for suffix in ARCHIVE_SUFFIXES:
            candidate = directory / (stem + suffix)
            if candidate.exists():
                return candidate
        return directory / (stem + ARCHIVE_SUFFIXES[0])

    def crawl_dir(self, crawl: str) -> Path:
        """The directory holding one crawl's documents (per-OS subdirectories)."""
        return self.root / _safe_component(crawl)

    def exists(self, crawl: str, os_name: str, domain: str) -> bool:
        return self.path_for(crawl, os_name, domain).exists()

    def entries(self, crawl: str | None = None) -> Iterator[Path]:
        """All archived documents (optionally for one crawl), sorted."""
        roots = [self.crawl_dir(crawl) if crawl is not None else self.root]
        for base in roots:
            if base.is_dir():
                found = [
                    path
                    for suffix in ARCHIVE_SUFFIXES
                    for path in base.rglob(f"*{suffix}")
                ]
                yield from sorted(found)

    # -- write -------------------------------------------------------------

    def write(
        self,
        crawl: str,
        os_name: str,
        domain: str,
        events: Iterable[NetLogEvent],
        *,
        meta: dict | None = None,
        corrupt: CorruptHook | None = None,
        format: str | None = None,
    ) -> Path:
        """Archive one visit's events and wait until the file is in place.

        :meth:`write_buffered` over a capture buffer filled from
        ``events``, then :meth:`flush`; raises :class:`OSError` when the
        document could not be written.  The crawl pipeline instead
        streams events into a capture buffer as the visit runs and hands
        the finished buffer to :meth:`write_buffered`.  ``format`` picks
        the document encoding (None → the codec default, normally JSON).
        """
        from .codec import make_capture_buffer

        path = self.write_buffered(
            crawl,
            os_name,
            domain,
            feed(events, make_capture_buffer(format, checksums=True)),
            meta=meta,
            corrupt=corrupt,
        )
        if self.flush():
            raise OSError(errno.EIO, "could not write NetLog document", str(path))
        return path

    def write_buffered(
        self,
        crawl: str,
        os_name: str,
        domain: str,
        buffer: NetLogBuffer,
        *,
        meta: dict | None = None,
        corrupt: CorruptHook | None = None,
        attempts: int = 1,
    ) -> Path:
        """Send a visit's document to the archive writer; returns its path.

        The buffer holds the serialised ``events`` body built while the
        visit ran — its type (text :class:`~repro.netlog.writer.NetLogBuffer`
        or binary :class:`~repro.netlog.binary.BinaryNetLogBuffer`)
        decides the document format.  This assembles the final document
        around it — the late-bound ``visitMeta`` head (attempt counts
        and success are only known once the visit settles) and the
        integrity trailer — producing bytes identical to a one-shot dump
        of the same events.  ``corrupt`` (the injector's netlog seam)
        mangles the serialised document before it is sent, keyed by
        ``crawl:os:domain`` — so the same fault plan damages the same
        files at any worker count.

        The file itself is created behind the caller's back by the
        archive's writer process: the document lands under a temp name
        and is renamed into place, then the visit's stale other-format
        sibling is removed, preserving one-document-per-visit.  A write
        that fails with ``OSError`` is retried up to ``attempts`` times in
        the writer.  The document is on disk only once :meth:`flush` has
        returned; raises :class:`ArchiveWriterError` when the writer has
        died.
        """
        format_name = getattr(buffer, "format", "json")
        codec = get_codec(format_name)
        extra = {META_KEY: meta} if meta is not None else None
        started = time.perf_counter()
        document: str | bytes
        if codec.binary:
            from .binary import write_binary_head, write_binary_tail

            bout = io.BytesIO()
            write_binary_head(bout, extra=extra)
            bout.write(buffer.body)
            write_binary_tail(
                bout,
                checksums=buffer.checksums,
                count=buffer.count,
                chain=buffer.chain,
            )
            document = bout.getvalue()
        else:
            out = io.StringIO()
            write_document_head(out, extra=extra)
            out.write(buffer.body)
            write_document_tail(
                out,
                checksums=buffer.checksums,
                count=buffer.count,
                chain=buffer.chain,
            )
            document = out.getvalue()
        if _ENCODE_SECONDS.enabled:
            _ENCODE_SECONDS.observe(
                time.perf_counter() - started, labels=(format_name,)
            )
        if corrupt is not None:
            document = corrupt(document, f"{crawl}:{os_name}:{domain}")
        if isinstance(document, str):
            document = document.encode("utf-8")
        path = self.path_for(crawl, os_name, domain, format=format_name)
        stem = str(path)[: -len(codec.suffix)]
        siblings = [stem + s for s in ARCHIVE_SUFFIXES if s != codec.suffix]
        names = b"\0".join(map(os.fsencode, [str(path), *siblings]))
        self._send(names, document, attempts, format_name)
        return path

    def _send(
        self, names: bytes, document: bytes, attempts: int, format_name: str
    ) -> None:
        timed = _WRITE_SECONDS.enabled
        frame = (
            _writer.HEADER.pack(
                _writer.TIMED if timed else _writer.WRITE,
                min(attempts, 255),
                len(names),
                len(document),
            )
            + names
            + document
        )
        with self._lock:
            if self._process is None:
                self._start_writer()
            assert self._process is not None and self._process.stdin
            try:
                self._process.stdin.write(frame)
            except (OSError, ValueError) as exc:
                raise ArchiveWriterError(
                    f"archive writer for {self.root} is gone: {exc}"
                ) from exc
            self._unflushed += 1
            if timed:
                self._timed_formats.append(format_name)

    def flush(self) -> int:
        """Wait until every sent document is in place.

        Returns how many of the documents sent since the last flush could
        not be written even after their retries (each is a hole
        ``repro fsck`` will flag).  Raises :class:`ArchiveWriterError` when
        the writer died, because then the fate of those documents is
        unknown.  Cheap when nothing was sent since the last flush.
        """
        with self._lock:
            if not self._unflushed:
                return 0
            started = time.perf_counter()
            process = self._process
            assert process is not None and process.stdin and process.stdout
            try:
                process.stdin.write(_writer.HEADER.pack(_writer.FLUSH, 0, 0, 0))
                process.stdin.flush()
                ack = process.stdout.read(_writer.ACK.size)
                failures, count = _writer.ACK.unpack(ack)
                timings = struct.unpack(
                    f"<{count}d", process.stdout.read(8 * count)
                )
            except (OSError, ValueError, struct.error) as exc:
                raise ArchiveWriterError(
                    f"archive writer for {self.root} died with "
                    f"{self._unflushed} document(s) unacknowledged"
                ) from exc
            formats, self._timed_formats = self._timed_formats, []
            self._unflushed = 0
        for format_name, seconds in zip(formats, timings):
            if seconds >= 0:
                _WRITE_SECONDS.observe(seconds, labels=(format_name,))
        if _FLUSH_SECONDS.enabled:
            _FLUSH_SECONDS.observe(time.perf_counter() - started)
        return failures

    def close(self) -> int:
        """Flush, then stop and reap the writer process.

        Returns :meth:`flush`'s failure count.  The archive stays usable:
        the next document starts a new writer.  Raises
        :class:`ArchiveWriterError` when the writer had died.
        """
        try:
            failures = self.flush()
        finally:
            with self._lock:
                process, self._process = self._process, None
                self._unflushed = 0
                self._timed_formats = []
                if self._reaper is not None:
                    self._reaper.detach()
                    self._reaper = None
            status = _stop_writer(process) if process is not None else 0
        if status:
            raise ArchiveWriterError(
                f"archive writer for {self.root} exited with status {status}"
            )
        return failures

    def _start_writer(self) -> None:
        import subprocess

        try:
            self._process = subprocess.Popen(
                [sys.executable, "-I", "-S", _writer.__file__],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        except OSError as exc:  # not a disk fault: no retry can help
            raise ArchiveWriterError(
                f"cannot start the archive writer: {exc}"
            ) from exc
        # An archive dropped without close() still reaps its writer.
        self._reaper = weakref.finalize(self, _stop_writer, self._process)

    # -- read --------------------------------------------------------------

    def read_events(
        self,
        crawl: str,
        os_name: str,
        domain: str,
        *,
        stats: ParseStats | None = None,
    ) -> list[NetLogEvent] | None:
        """Salvage-parse one archived document; None when absent."""
        return self.stream_into(
            crawl, os_name, domain, ListSink(), stats=stats
        )

    def stream_into(
        self,
        crawl: str,
        os_name: str,
        domain: str,
        sink: EventSink,
        *,
        stats: ParseStats | None = None,
    ) -> Any | None:
        """Feed one archived document through a sink with bounded memory.

        Salvage-parses the document — whichever format it is stored in —
        and pushes each event into ``sink`` as it is decoded (fsck's
        reparse tier runs detection this way without materialising the
        event list); returns ``sink.finish()``, or None when the
        document is absent.
        """
        path = self.path_for(crawl, os_name, domain)
        if not path.exists():
            return None
        with path.open("rb") as fp:
            return feed(
                iter_events_streaming(fp, strict=False, stats=stats), sink
            )

    def read_meta(self, path: Path) -> dict | None:
        """The ``visitMeta`` block of a document, damage-tolerant.

        The block is written at the very front of the document in both
        formats, so it survives every tail-side damage shape; a document
        corrupted before its first few hundred bytes yields None.
        """
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        if sniff_format(raw) == FORMAT_BINARY:
            from .binary import read_binary_header

            header = read_binary_header(raw)
            if header is None:
                return None
            extra = header.get("extra")
            if not isinstance(extra, dict):
                return None
            meta = extra.get(META_KEY)
            return meta if isinstance(meta, dict) else None
        head = raw.decode("utf-8", errors="replace")
        marker = f'"{META_KEY}": '
        start = head.find(marker)
        if start < 0:
            return None
        decoder = json.JSONDecoder()
        try:
            meta, _ = decoder.raw_decode(head, start + len(marker))
        except ValueError:
            return None
        return meta if isinstance(meta, dict) else None

    def verify(self, path: Path) -> ParseStats:
        """Parse one document in salvage mode, returning its stats.

        Binary documents get the ``full`` verification regime here —
        canonical crc32-chain-v1 re-derivation per record, the same
        contract the JSON parser always applies — because this is the
        audit path ``repro fsck`` trusts.
        """
        from .parallel import verify_document

        return verify_document(path)
