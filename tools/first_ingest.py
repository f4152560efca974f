"""Wall, CPU and peak RSS of the first and the second ``python -m repro
ingest`` into a bundle built under a memory budget.

For each row count, the seeded ``retail`` input of ``benchmarks/e2e`` is
written as CSV with one 50-row delta from ``retail.generate_delta``, and
``python -m repro build --variant CURE+ --pool 20000 --memory-budget B
--workers 2`` saves a bundle (B is 1,000,000 bytes below 10^6 rows and
3,000,000 from 10^6 on, unless ``--budget`` is given).  Each run copies
that bundle and ingests the delta into the copy twice: the first ingest
recovers the saved ``cube.v2``, the second the generation the first
committed.  Every step is its own child process, and each child's wall
time, CPU (user + system) and peak RSS are read from ``os.wait4`` for
that child alone.  This process imports nothing that holds data: a
child's ``ru_maxrss`` counts the image it was forked from.

Prints the build line, what the first ingest said of the saved cube, and
one Markdown table: per row count and ingest the fastest and the median
wall and CPU seconds and the largest peak RSS over ``--runs`` runs, then
the first ingest's median wall ÷ the second's.

    python3 tools/first_ingest.py --rows 100000 1000000 --runs 3
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DELTA_ROWS = 50

#: Writes ``fact.csv``, ``spec.json`` and ``delta.csv`` under argv[1]:
#: argv[2] fact rows, seed argv[3]; a delta row is base members by name,
#: then measures, the order ``python -m repro ingest`` reads.
WRITE_INPUT = """
import sys
from pathlib import Path
import retail
directory, n_rows, seed = Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
retail.write_input(directory, retail.generate_facts(seed, n_rows))
prefixes = [levels[0][1] for _name, levels in retail.DIMENSIONS]
with open(directory / "delta.csv", "w") as handle:
    for row in retail.generate_delta(seed, {rows}).tolist():
        names = [f"{{p}}{{c}}" for p, c in zip(prefixes, row)]
        handle.write(",".join(names + [str(m) for m in row[len(prefixes):]]) + "\\n")
""".format(rows=DELTA_ROWS)


def budget_bytes(n_rows: int) -> int:
    return 3_000_000 if n_rows >= 1_000_000 else 1_000_000


def run_child(argv: list[str], output: Path) -> tuple[float, float, float]:
    """Run one child to its end: wall s, CPU s, peak RSS MB of it alone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO / "benchmarks" / "e2e")]
    )
    with open(output, "w") as handle:
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, *argv], stdout=handle, stderr=subprocess.STDOUT, env=env
        )
        _pid, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        sys.exit(f"{' '.join(argv)} exited {child.returncode}:\n{output.read_text()}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def measure(n_rows: int, args, scratch: Path) -> list[str]:
    work = scratch / f"rows{n_rows}"
    log = scratch / "child.out"
    run_child(["-c", WRITE_INPUT, str(work), str(n_rows), str(args.seed)], log)
    saved = work / "saved"
    budget = args.budget or budget_bytes(n_rows)
    run_child(
        [
            "-m", "repro", "build", "--csv", str(work / "fact.csv"),
            "--spec", str(work / "spec.json"), "--out", str(saved),
            "--variant", "CURE+", "--pool", "20000",
            "--memory-budget", str(budget), "--workers", "2",
        ],
        log,
    )
    built = log.read_text().splitlines()
    partitions = next((line.strip() for line in built if "partitions:" in line), "not partitioned")
    print(f"{n_rows:,} rows, budget {budget:,} B: {built[0]}; {partitions}")
    ingest = ["-m", "repro", "ingest", "--csv", str(work / "delta.csv"), "--cube"]
    timings: dict[str, list[tuple[float, float, float]]] = {"first": [], "second": []}
    for run in range(args.runs):
        bundle = work / f"run{run}"
        shutil.copytree(saved, bundle)
        for which in ("first", "second"):
            timings[which].append(run_child([*ingest, str(bundle)], log))
            if run == 0 and which == "first":
                print(f"  first ingest: {log.read_text().splitlines()[0]}")
        shutil.rmtree(bundle)
    lines = []
    for which, samples in timings.items():
        walls, cpus, peaks = zip(*samples)
        lines.append(
            f"| {n_rows:,} | {which} | {min(walls):.2f} | {statistics.median(walls):.2f} "
            f"| {min(cpus):.2f} | {statistics.median(cpus):.2f} | {max(peaks):.0f} |"
        )
    ratio = statistics.median(s[0] for s in timings["first"]) / statistics.median(
        s[0] for s in timings["second"]
    )
    lines.append(f"| {n_rows:,} | first ÷ second wall | {ratio:.2f}× | | | | |")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, nargs="+", default=[100_000, 1_000_000])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--budget", type=int, default=0,
        help="build memory budget in bytes (0: by row count, see above)",
    )
    args = parser.parse_args(argv)
    table = [
        "| rows | ingest | wall s, min | median | CPU s, min | median | peak RSS MB, max |",
        "|---|---|---|---|---|---|---|",
    ]
    with tempfile.TemporaryDirectory(prefix="first_ingest") as scratch:
        for n_rows in args.rows:
            table += measure(n_rows, args, Path(scratch))
    print()
    print("\n".join(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
