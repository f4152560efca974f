"""Time a partitioned build with ``workers=1`` against ``workers=2``.

For each row count, the seeded ``retail`` input of ``benchmarks/e2e`` is
written as CSV, loaded once and stored in a fresh catalog per build;
only ``CURE+`` (pool 20,000) ``.build(..., workers=w)`` is timed, with
the two worker counts alternating (1, 2, then 2, 1, ...).  CPU is this
process's plus that of its reaped children, so helper processes are
charged.  Prints one Markdown table: per row count and worker count the
fastest and the median CPU and wall seconds, then the median and range
of the per-pair wall speedup (``workers=1`` wall ÷ ``workers=2`` wall)
and how many pairs ``workers=2`` won on the wall.

    python3 tools/pool_sweep.py --rows 24000 100000 --pairs 7

The budget beyond the signature pool is 250,000 B below 10^6 rows (the
``build-part`` budget: six city partitions at 24,000 rows) and
2,500,000 B from 10^6 rows on (17 partitions).
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks" / "e2e")]

import retail  # noqa: E402 - the benchmark's generator, read-only

from repro import VARIANTS, Engine  # noqa: E402
from repro.core.signature import SignaturePool  # noqa: E402
from repro.datasets.loader import DimensionSpec, MeasureSpec, load_csv  # noqa: E402
from repro.relational.catalog import Catalog  # noqa: E402
from repro.relational.memory import MemoryManager  # noqa: E402

POOL_CAPACITY = 20_000
CONFIG = VARIANTS["CURE+"].with_pool(POOL_CAPACITY)


def allowance_bytes(n_rows: int) -> int:
    return 2_500_000 if n_rows >= 1_000_000 else 250_000


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def load(directory: Path, seed: int, n_rows: int):
    csv_path, _spec = retail.write_input(
        directory, retail.generate_facts(seed, n_rows)
    )
    dimensions = [
        DimensionSpec.of(name, *(field for field, _p, _c in levels))
        for name, levels in retail.DIMENSIONS
    ]
    measures = [MeasureSpec.of(name) for name in retail.MEASURES]
    loaded = load_csv(csv_path, dimensions, measures, retail.AGGREGATES)
    return loaded.schema, loaded.table


def timed_build(root: Path, schema, table, budget: int, workers: int):
    """``(cpu s, wall s, stats)`` of one build in a fresh catalog."""
    engine = Engine(Catalog(root), MemoryManager(budget))
    try:
        engine.store_table("fact", table)
        cpu, wall = cpu_seconds(), time.perf_counter()
        result, _plus = CONFIG.build(
            schema, engine=engine, relation="fact", workers=workers
        )
        cpu, wall = cpu_seconds() - cpu, time.perf_counter() - wall
    finally:
        engine.destroy()
    return cpu, wall, result.stats


def sweep(n_rows: int, pairs: int, seed: int, scratch: Path) -> list[str]:
    schema, table = load(scratch / f"input{n_rows}", seed, n_rows)
    budget = (
        SignaturePool.size_bytes(POOL_CAPACITY, schema.n_aggregates)
        + allowance_bytes(n_rows)
    )
    runs: dict[int, list[tuple[float, float]]] = {1: [], 2: []}
    stats = None
    for pair in range(pairs):
        for workers in (1, 2) if pair % 2 == 0 else (2, 1):
            cpu, wall, stats = timed_build(
                scratch / f"build{n_rows}.{pair}.{workers}",
                schema, table, budget, workers,
            )
            runs[workers].append((cpu, wall))
    speedups = [one[1] / two[1] for one, two in zip(runs[1], runs[2])]
    wins = sum(speedup > 1 for speedup in speedups)
    lines = []
    for workers in (1, 2):
        cpus = [cpu for cpu, _wall in runs[workers]]
        walls = [wall for _cpu, wall in runs[workers]]
        lines.append(
            f"| {n_rows:,} | {stats.partitions_created} | {workers} "
            f"| {min(cpus):.3f} / {statistics.median(cpus):.3f} "
            f"| {min(walls):.3f} / {statistics.median(walls):.3f} "
            + (
                f"| {statistics.median(speedups):.2f} "
                f"({min(speedups):.2f}–{max(speedups):.2f}) "
                f"| {wins} of {pairs} |"
                if workers == 2 else "| | |"
            )
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rows", type=int, nargs="+", default=[24_000, 100_000, 1_000_000]
    )
    parser.add_argument("--pairs", type=int, default=7)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    print(
        "| rows | partitions | workers | CPU s, min / median "
        "| wall s, min / median | wall speedup, median (range) "
        "| pairs won by 2 |"
    )
    print("|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory(prefix="pool_sweep") as scratch:
        for n_rows in args.rows:
            for line in sweep(n_rows, args.pairs, args.seed, Path(scratch)):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
