"""Smoke test of the end-to-end benchmark (not part of tier-1).

    python -m pytest benchmarks/e2e -q

Runs every workload once at ``--scale 0.05`` exactly the way the driver
does — a fresh process per workload, the last stdout line parsed as the
result — and checks the contract with ``BENCHMARK.json``: exit code 0,
every declared metric present under its declared unit, names made of
``[A-Za-z0-9_.-]``, no failed operation, and no process of the run still
alive after it returned.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def survivors(session: int) -> list[str]:
    """Command lines of live processes in the finished run's session."""
    alive = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            if int(fields[3]) == session and fields[0] != "Z":
                alive.append((entry / "cmdline").read_text().replace("\0", " "))
        except (OSError, IndexError, ValueError):
            continue  # the process ended while we were looking
    return alive


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    process = subprocess.Popen(
        [
            sys.executable, "benchmarks/e2e/run.py",
            "--workload", workload, "--seed", "5", "--seconds", "2",
            "--trace", str(trace), "--scale", "0.05",
        ],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # session id == pid: finds reparented orphans
    )
    stdout, stderr = process.communicate(timeout=170)
    return process, stdout, stderr


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_meets_the_contract(workload: str, trace: int) -> None:
    if trace and workload not in ("build-part", "serve-drill"):
        pytest.skip("two traced workloads cover both traced code paths")
    process, stdout, stderr = run_benchmark(workload, trace)
    assert process.returncode == 0, stderr[-2000:]
    assert survivors(process.pid) == []
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        assert NAME.fullmatch(metric["name"])
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0, metric["name"]
    assert not list((HERE / "_out").glob("work-*")), "scratch left behind"


def test_refuses_to_run_outside_a_checkout(tmp_path: Path) -> None:
    """Only BENCHMARK.json + the benchmark's files: no src/, so no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("_out", "__pycache__"),
    )
    process, stdout, _stderr = run_benchmark("build-mem", 0, cwd=tmp_path)
    assert process.returncode != 0
    assert not stdout.strip()
    assert not (tmp_path / "benchmarks" / "e2e" / "_out").exists()
