"""CPU time of one incremental apply and of one checkpoint write, per
1-row and per 50-row record, split by stage.

For each row count, the seeded ``retail`` input of ``benchmarks/e2e`` is
written as CSV, loaded and cubed in memory with CURE+ post-processing,
as the streaming ingestor bootstraps.  Records from
``retail.generate_delta`` are then folded in one at a time: ``--records``
1-row records, then as many 50-row records.  ``apply_delta`` is timed
(this process's CPU); the cube stays a CURE+ cube with no further pass,
as in ``StreamingIngestor.apply_ready``; then one ``write_v2`` of the
maintained cube and fact table — the container a checkpoint publishes —
is timed into a scratch file.  Prints two Markdown tables.  The first:
per row count and record size the fastest and the median CPU ms of an
apply and of a ``write_v2``, and the process's peak RSS once that row
count is done (``ru_maxrss`` only grows, so run one row count per
process to read each size's own peak).  The second: the median CPU ms
of each stage — *membership* (the delta merger's lookups of every
stored row's kept group key), *devalue* (re-placing the touched TTs,
its own lookups included), *write-back* (from the new groups found to
the relations and kept keys replaced), *encode* (every section's
payload and directory entry, per-section SHA-256 included) and
*hash+write* (streaming the container to disk while hashing it, the
renames and ``fsync``s).  The stages are timed by wrapping the
functions that carry them, so the split adds a little to the totals.

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
from repro.core import incremental  # noqa: E402
from repro.core.incremental import apply_delta  # noqa: E402
from repro.core.postprocess import postprocess_plus  # noqa: E402
from repro.datasets.loader import DimensionSpec, MeasureSpec, load_csv  # noqa: E402
from repro.storage2 import publish  # noqa: E402
from repro.storage2 import write_v2  # noqa: E402

RECORD_ROWS = (1, 50)
STAGES = ("membership", "devalue", "write-back", "encode", "hash+write")


class Stages:
    """CPU seconds per stage, accumulated by wrapping what carries each."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self._depth = 0  # inside ``_devalue``: its lookups are its own
        self._found = 0.0
        merger = incremental._DeltaMerger
        self._wrap(merger, "_members", lambda: "membership" if not self._depth else None)
        self._wrap(merger, "_devalue", lambda: "devalue", nested=True)
        self._wrap(publish, "cube_writer", lambda: "encode")
        self._wrap(publish, "add_fact_sections", lambda: "encode")
        self._wrap(publish, "publish", lambda: "hash+write")
        new_groups, run = merger._new_groups, merger.run

        def found(*args):
            result = new_groups(*args)
            self._found = time.process_time()
            return result

        def write_back(*args):
            run(*args)
            self.seconds["write-back"] += time.process_time() - self._found

        merger._new_groups, merger.run = found, write_back

    def _wrap(self, owner, name: str, stage, nested: bool = False) -> None:
        function = getattr(owner, name)

        def timed(*args, **kwargs):
            label = stage()
            self._depth += nested
            started = time.process_time()
            try:
                return function(*args, **kwargs)
            finally:
                self._depth -= nested
                if label:
                    self.seconds[label] += time.process_time() - started

        setattr(owner, name, timed)

    def take(self) -> dict[str, float]:
        seconds, self.seconds = self.seconds, dict.fromkeys(STAGES, 0.0)
        return seconds


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


def sweep(
    n_rows: int, records: int, seed: int, scratch: Path, stages: Stages
) -> tuple[list[str], list[str]]:
    schema, table = load(scratch / f"input{n_rows}", seed, n_rows)
    storage = build_cube(schema, table=table).storage
    postprocess_plus(storage)
    delta = retail.generate_delta(seed, records * sum(RECORD_ROWS)).tolist()
    container = scratch / f"sweep{n_rows}.cube.v2"
    lines, splits = [], []
    for size in RECORD_ROWS:
        applies, writes = [], []
        split: dict[str, list[float]] = {stage: [] for stage in STAGES}
        for _ in range(records):
            record, delta = delta[:size], delta[size:]
            stages.take()
            cpu = time.process_time()
            apply_delta(storage, schema, table, record)
            applies.append(time.process_time() - cpu)
            cpu = time.process_time()
            write_v2(container, schema, storage, table.as_batch())
            writes.append(time.process_time() - cpu)
            for stage, seconds in stages.take().items():
                split[stage].append(seconds)
        lines.append(
            f"| {n_rows:,} | {size} | {min(applies) * 1e3:.1f} "
            f"| {statistics.median(applies) * 1e3:.1f} "
            f"| {min(writes) * 1e3:.1f} | {statistics.median(writes) * 1e3:.1f} "
        )
        splits.append(
            f"| {n_rows:,} | {size} | "
            + " | ".join(
                f"{statistics.median(split[stage]) * 1e3:.2f}" for stage in STAGES
            )
            + " |"
        )
    rss = peak_rss_mb()
    return [f"{line}| {rss:.0f} |" for line in lines], splits


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
    stages = Stages()
    splits = []
    with tempfile.TemporaryDirectory(prefix="apply_sweep") as scratch:
        for n_rows in args.rows:
            lines, split = sweep(n_rows, args.records, args.seed, Path(scratch), stages)
            splits += split
            for line in lines:
                print(line, flush=True)
    print()
    print("| rows | record rows | " + " | ".join(f"{stage} CPU ms" for stage in STAGES) + " |")
    print("|---|---|" + "---|" * len(STAGES))
    for line in splits:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
