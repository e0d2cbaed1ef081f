"""The benchmark's own fast tests, at a tiny population.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run

run.use_checkout_sources()

from perfbench import workloads  # noqa: E402
from perfbench.tracer import LAYER_METRICS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Smallest scale with a pinned output: 400 visits, every seeded site.
TINY = 0.002


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.UNITS
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in LAYER_METRICS
    ]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    completed = _run(
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", trace, "--scale", str(TINY),
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        layers = sum(
            metrics[f"{layer}.self_s"]
            for layer in ("crawler", "browser", "core", "netlog", "storage",
                          "fabric")
        )
        assert layers + metrics["unattributed_s"] == pytest.approx(
            metrics["traced_wall_s"]
        )
        trace_file = ROOT / json.loads(completed.stdout.splitlines()[-2])[
            "properties"]["trace"]
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert any(event.get("ph") == "X" for event in events)


def test_damaged_archive_document_trips_the_audit_gate(tmp_path):
    audit = workloads.AuditWorkload(tmp_path, TINY, seed=5)
    try:
        audit.prepare()
        assert audit.check_prepared() == 0
        assert audit.run_pass().failed == 0
        document = sorted(Path(audit.archive_root).rglob("*.json"))[7]
        text = document.read_text()
        middle = len(text) // 2
        digit = next(i for i in range(middle, len(text)) if text[i].isdigit())
        flipped = "1" if text[digit] != "1" else "2"
        document.write_text(text[:digit] + flipped + text[digit + 1:])
        assert audit.run_pass().failed > 0
    finally:
        audit.close()


def test_wrong_study_output_trips_the_crawl_gate(tmp_path):
    crawl = workloads.CrawlWorkload(tmp_path, TINY, seed=5)
    assert crawl.run_pass().failed == 0
    domain = next(iter(crawl.expected["findings"]))
    crawl.expected["findings"][domain][0] = "0" * 16
    crawl.expected["campaign_digest"] = "0" * 64
    assert crawl.run_pass().failed > 0
    archive = workloads.CrawlArchiveWorkload(tmp_path / "a", TINY, seed=5)
    archive.expected = crawl.expected
    assert archive.run_pass().failed > archive.expected["visits"]


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


@pytest.mark.parametrize("workload", ["audit", "crawl-shards"])
def test_a_run_leaves_no_process_behind(workload):
    process = subprocess.Popen(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "2", "--seconds", "0",
            "--trace", "0", "--scale", str(TINY),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    _, stderr = process.communicate(timeout=170)
    assert process.returncode == 0, stderr
    assert _session_members(process.pid) == []


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = _run(
        "--workload", "crawl", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
