"""Archive writer: creates NetLog document files for one archive.

:class:`repro.netlog.archive.NetLogArchive` starts this file as a child
process (``python -I -S _archive_writer.py``) on its first document and
streams finished documents to it, so creating one file per visit — the
kernel's inode work, the dominant cost of archiving — runs on another
core while the crawl goes on.  It imports only the standard library and
never ``repro``, so it starts in a few milliseconds.

Protocol, all integers little-endian:

* Every frame starts with ``<BBII``: kind, attempt budget, names length,
  data length.
* ``W`` (write) and ``T`` (timed write) frames carry the names — the
  document path, then the paths of its other-format siblings, as
  NUL-separated filesystem bytes — followed by the document bytes.  The
  document is written to ``<path>.<pid>.tmp`` and renamed over
  ``<path>``; then every sibling is unlinked.  An ``OSError`` retries the
  whole write up to the attempt budget; a document that still fails is
  counted as a failure.
* ``F`` (flush) is answered on stdout only once every earlier document
  is in place: ``<II`` (failures, timings) and then one float64 per
  ``T`` frame since the last flush — its write time in seconds, or -1
  for a failed document.  Both tallies then start again.
* End of input: every document already received is written, then the
  process exits 0.  A frame cut short by a sender that died is dropped.

SIGINT and SIGTERM are ignored: a Ctrl-C or a group-wide stop reaches
this process too, while the crawl drains; the crawl decides when the
writer stops, by closing its input (or by dying).
"""

import os
import struct
import sys
import time

HEADER = struct.Struct("<BBII")
ACK = struct.Struct("<II")
WRITE = ord("W")
TIMED = ord("T")
FLUSH = ord("F")


def write_document(path, siblings, data, attempts, tmp_suffix, made):
    """Write one document atomically; True once it is in place."""
    directory = os.path.dirname(path)
    tmp = path + tmp_suffix
    for _ in range(max(attempts, 1)):
        try:
            if directory not in made:
                os.makedirs(directory, exist_ok=True)
                made.add(directory)
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
            os.replace(tmp, path)
            for sibling in siblings:
                try:
                    os.unlink(sibling)
                except FileNotFoundError:
                    pass
            return True
        except OSError:
            # The directory may have gone away under us: make it again
            # on the next attempt.
            made.discard(directory)
            try:
                os.unlink(tmp)
            except OSError:
                pass
    return False


def serve(source, sink):
    """Write documents from ``source`` until it ends; ack flushes on ``sink``."""
    tmp_suffix = b".%d.tmp" % os.getpid()
    made = set()
    failures = 0
    timings = []
    while True:
        header = source.read(HEADER.size)
        if len(header) < HEADER.size:
            return
        kind, attempts, names_size, data_size = HEADER.unpack(header)
        if kind == FLUSH:
            sink.write(
                ACK.pack(failures, len(timings))
                + struct.pack(f"<{len(timings)}d", *timings)
            )
            sink.flush()
            failures = 0
            timings = []
            continue
        body = source.read(names_size + data_size)
        if len(body) < names_size + data_size:
            return
        names = body[:names_size].split(b"\0")
        started = time.perf_counter()
        written = write_document(
            names[0],
            names[1:],
            memoryview(body)[names_size:],
            attempts,
            tmp_suffix,
            made,
        )
        if not written:
            failures += 1
        if kind == TIMED:
            timings.append(time.perf_counter() - started if written else -1.0)


def main():
    # Imported here: the archive imports this module for its protocol.
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    try:
        serve(sys.stdin.buffer, sys.stdout.buffer)
    except BrokenPipeError:
        # The crawl died while waiting for an ack: nobody is listening.
        pass


if __name__ == "__main__":
    main()
