"""Run one benchmark workload; print its result as the last stdout line.

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src/``.  With ``--trace 0`` the result carries the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it carries
the per-layer metrics, and the spans are written as Chrome
``trace_event`` JSON under ``.perfbench/traces/``.  The line before the
result records the input properties and the machine.

``--pin`` prints the correct study output for ``--scale`` (the gate's
reference, kept in ``perfbench/expected.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Set-up is measured this many times per run, each in a fresh process
#: (so the program's imports count), and reported as the median.
SETUP_PROBES = 7
#: Fewest timed passes per run, so every median has something to stand on.
MIN_PASSES = 3
#: Stop starting passes after this long, whatever the minimum says.
MAX_RUN_S = 120.0

#: The end-to-end metrics of an untraced run, with their units.
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: repro imported from {repro.__file__}")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=None,
        help="population scale (default: the benchmark's)",
    )
    parser.add_argument(
        "--pin", action="store_true",
        help="print the correct output at --scale for expected.json",
    )
    parser.add_argument(
        "--setup-probe", metavar="DIR", default=None,
        help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--write-archive", metavar="DIR", default=None,
        help=argparse.SUPPRESS,
    )
    return parser.parse_args(argv)


def _setup_probe(args: argparse.Namespace) -> int:
    """Child-process body: time one set-up, imports included."""
    start = time.perf_counter()
    use_checkout_sources()
    from perfbench import workloads

    workload = workloads.WORKLOAD_CLASSES[args.workload](
        Path(args.setup_probe), args.scale, args.seed
    )
    workload.setup(Path(args.setup_probe), args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def _measure_setup(args: argparse.Namespace, workload, work: Path) -> float:
    """Set-up time of a fresh process; ``audit`` opens the prepared input."""
    if args.workload == "audit":
        probe_dir = workload.data_dir
    else:
        probe_dir = work / "setup"
        probe_dir.mkdir()
    try:
        completed = subprocess.run(
            [
                sys.executable, __file__,
                "--workload", args.workload,
                "--scale", repr(args.scale),
                "--seed", str(args.seed),
                "--setup-probe", str(probe_dir),
            ],
            capture_output=True,
            text=True,
            timeout=60,
            check=False,
        )
    finally:
        if args.workload != "audit":
            shutil.rmtree(probe_dir, ignore_errors=True)
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{completed.stderr}")
    return json.loads(completed.stdout.splitlines()[-1])["setup_s"]


def _child_pids() -> list[int]:
    """Pids of this process's living children, read from ``/proc``."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The fields after the parenthesised command name: state, ppid, ...
        fields = stat[stat.rfind(b")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == me:
            children.append(int(entry))
    return children


def _stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``CrawlFabric`` starts its shards with multiprocessing's spawn method,
    which also starts a resource-tracker process that would otherwise
    outlive this one.
    """
    from multiprocessing import active_children, resource_tracker

    active_children()
    resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def _fast_rate(passes: list) -> float:
    """Median rate of the fastest quarter of the passes (at least one).

    The shared host slows down in spells of seconds, and a slow spell can
    only make a pass slower.  So the fastest passes are the steadiest
    estimate of what the program costs.
    """
    rates = sorted((p.ops / p.wall_s for p in passes), reverse=True)
    return statistics.median(rates[: -(-len(rates) // 4)])


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _machine() -> dict:
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "system": platform.system(),
    }


def _pin(args: argparse.Namespace) -> int:
    from perfbench import workloads

    key = f"{workloads.POPULATION}@{args.scale:g}"
    print(json.dumps({key: workloads.canonical(args.scale)}, indent=1, sort_keys=True))
    return 0


def _run(args: argparse.Namespace) -> int:
    from perfbench import workloads
    from perfbench.tracer import LAYER_METRICS, Tracer, percentile

    name = args.workload
    work = OUT / "work" / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.WORKLOAD_CLASSES[name](work / "run", args.scale, args.seed)
    tracer = Tracer() if args.trace else None
    passes: list = []
    traced: list = []
    failed = 0
    errors = 0
    try:
        workload.prepare()
        if name == "audit":
            failed += workload.check_prepared()
        setup: list[float] = []
        probes = 0 if args.trace else SETUP_PROBES
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            # Set-up probes are spread over the run, between passes, so a
            # slow spell on the shared machine does not hit all of them.
            if len(setup) < probes and elapsed >= len(setup) * args.seconds / probes:
                setup.append(_measure_setup(args, workload, work))
                continue
            enough = (
                len(passes) >= MIN_PASSES
                and (not args.trace or len(traced) >= MIN_PASSES)
            )
            if elapsed >= MAX_RUN_S or (elapsed >= args.seconds and enough):
                break
            # A traced run alternates untraced and traced passes, so the
            # tracing overhead is measured under the same conditions.
            use_tracer = tracer if args.trace and len(traced) < len(passes) else None
            try:
                result = workload.run_pass(use_tracer)
            except Exception:
                traceback.print_exc()
                errors += 1
                break
            (traced if use_tracer is not None else passes).append(result)
        while len(setup) < probes and not errors:
            setup.append(_measure_setup(args, workload, work))
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    every = passes + traced
    attempted = sum(p.ops for p in every)
    failed += sum(p.failed for p in every)
    if errors:
        # The pass that raised attempted a whole population's worth of work.
        attempted += workload.expected["visits"]
        failed += workload.expected["visits"]
    attempted = max(attempted, 1)
    sample = passes[-1] if passes else None
    visits = workload.expected["visits"]
    properties = {
        "workload": name,
        "seed": args.seed,
        "scale": args.scale,
        "population": workloads.POPULATION,
        "visits": visits,
        "documents": sample.facts.get("archive_files", 0) if sample else 0,
        "archived_events": workload.expected["events"],
        "disk_bytes": sample.disk_bytes if sample else 0,
        "local_active_share": (
            sample.facts.get("local_active_visits", 0) / visits if sample else 0
        ),
        "passes": len(passes),
        "traced_passes": len(traced),
        "pass_ops": [p.ops for p in passes],
        "pass_wall_s": [round(p.wall_s, 6) for p in passes],
        "setup_probe_s": [round(value, 6) for value in setup],
        **_machine(),
    }
    if args.trace and passes and traced:
        last = traced[-1]
        analyze = [s for p in passes for s in p.analyze_s]
        facts = {
            "encode_bytes": statistics.fmean(
                p.facts.get("encode_bytes", 0) for p in traced
            ),
            "verify_bytes": statistics.fmean(
                p.facts.get("verify_bytes", 0) for p in traced
            ),
            "archive_files": last.facts.get("archive_files", 0),
            "archive_bytes": last.facts.get("archive_bytes", 0),
            "db_bytes": last.facts.get("db_bytes", 0),
            "fsck_docs_per_s": statistics.median(
                p.fsck_docs / p.fsck_s if p.fsck_s else 0.0 for p in passes
            ),
            "analyze_p50_ms": percentile(analyze, 50) * 1e3,
            "analyze_p99_ms": percentile(analyze, 99) * 1e3,
            "disk_bytes_per_visit": statistics.median(
                p.disk_bytes / p.ops for p in passes
            ) if name != "audit" else sample.disk_bytes / visits,
            "cpu_ms_per_op": statistics.median(
                p.cpu_s * 1e3 / p.ops for p in passes
            ),
            "error_ratio": failed / attempted,
        }
        metrics = tracer.metrics(
            traced_walls=[p.wall_s for p in traced],
            untraced_walls=[p.wall_s for p in passes],
            facts=facts,
        )
        units = {m.name: m.unit for m in LAYER_METRICS}
        trace_path = OUT / "traces" / f"{name}-seed{args.seed}.trace.json"
        tracer.write_chrome_trace(trace_path, meta=properties)
        properties["trace"] = str(trace_path.relative_to(ROOT))
    elif not args.trace and passes:
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": _fast_rate(passes),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = UNITS
    else:
        metrics, units = {}, {}
    print(json.dumps({"properties": properties}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(metrics),
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()
                },
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(_parse(argv))
    finally:
        _stop_children()


def _main(args: argparse.Namespace) -> int:
    if args.setup_probe is not None:
        return _setup_probe(args)
    use_checkout_sources()
    from perfbench import workloads

    if args.scale is None:
        args.scale = workloads.SCALE
    if args.write_archive is not None:
        workloads.write_archive(args.write_archive, args.scale, args.seed)
        return 0
    if args.pin:
        return _pin(args)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"error: --workload must be one of {', '.join(workloads.WORKLOADS)}"
        )
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
