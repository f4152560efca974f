"""CPU time of one incremental apply and of one checkpoint write, per
1-row and per 50-row record.

For each row count, the seeded ``retail`` input of ``benchmarks/e2e`` is
written as CSV, loaded and cubed in memory with CURE+ post-processing,
as the streaming ingestor bootstraps.  Records from
``retail.generate_delta`` are then folded in one at a time: ``--records``
1-row records, then as many 50-row records.  ``apply_delta`` is timed
(this process's CPU); CURE+ is restored after each record, untimed, as
``StreamingIngestor.apply_ready`` does; then one ``write_v2`` of the
maintained cube and fact table — the container a checkpoint publishes —
is timed into a scratch file.  Prints one Markdown table: per row count
and record size the fastest and the median CPU ms of an apply and of a
``write_v2``, and the process's peak RSS once that row count is done
(``ru_maxrss`` only grows, so run one row count per process to read
each size's own peak).

    python3 tools/apply_sweep.py --rows 8000 100000
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

from repro import build_cube  # noqa: E402
from repro.core.incremental import apply_delta  # noqa: E402
from repro.core.postprocess import postprocess_plus  # noqa: E402
from repro.datasets.loader import DimensionSpec, MeasureSpec, load_csv  # noqa: E402
from repro.storage2 import write_v2  # noqa: E402

RECORD_ROWS = (1, 50)


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


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sweep(n_rows: int, records: int, seed: int, scratch: Path) -> list[str]:
    schema, table = load(scratch / f"input{n_rows}", seed, n_rows)
    storage = build_cube(schema, table=table).storage
    postprocess_plus(storage)
    delta = retail.generate_delta(seed, records * sum(RECORD_ROWS)).tolist()
    container = scratch / f"sweep{n_rows}.cube.v2"
    lines = []
    for size in RECORD_ROWS:
        applies, writes = [], []
        for _ in range(records):
            record, delta = delta[:size], delta[size:]
            cpu = time.process_time()
            apply_delta(storage, schema, table, record)
            applies.append(time.process_time() - cpu)
            postprocess_plus(storage)
            cpu = time.process_time()
            write_v2(container, schema, storage, table.as_batch())
            writes.append(time.process_time() - cpu)
        lines.append(
            f"| {n_rows:,} | {size} | {min(applies) * 1e3:.1f} "
            f"| {statistics.median(applies) * 1e3:.1f} "
            f"| {min(writes) * 1e3:.1f} | {statistics.median(writes) * 1e3:.1f} "
        )
    rss = peak_rss_mb()
    return [f"{line}| {rss:.0f} |" for line in lines]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, nargs="+", default=[8_000, 100_000])
    parser.add_argument("--records", type=int, default=15)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    print(
        "| rows | record rows | apply CPU ms, min | median "
        "| write_v2 CPU ms, min | median | peak RSS MB |"
    )
    print("|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory(prefix="apply_sweep") as scratch:
        for n_rows in args.rows:
            for line in sweep(n_rows, args.records, args.seed, Path(scratch)):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
