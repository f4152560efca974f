"""Time selective slices over a mapped CURE+ bundle, and what they hold.

For each row count, the seeded ``retail`` input of ``benchmarks/e2e`` is
written as CSV, loaded, built in memory as ``CURE+`` (pool 20,000) and
saved as a bundle; every measurement opens that bundle and answers
through ``bundle.planner()``.  The requests are the slice ops among the
first ``--ops`` of ``workloads.make_ops(**DRILL)`` (``serve-drill``'s
shape), answered with ``CubePlanner.execute`` so no result cache helps.
Prints one Markdown table, per row count:

* per-slice answer time: all slice ops once to warm, then the fastest of
  ``--passes`` passes over them, divided by their number;
* the first slice on each dimension: a fresh open, the unsliced node
  answered once (its sections and grouping fact columns decoded), then
  the first sliced request on that dimension timed — the fastest of
  three opens;
* the fact-side bytes a serving process holds after the passes: the
  decoded fact columns, plus the postings of any inverted index the
  planner built beside them.

    python3 tools/slice_sweep.py --rows 8000 100000 1000000 --passes 7

It touches only API that predates the removal of the fact-table index,
so it runs unchanged on either side of it.
"""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks" / "e2e")]

import retail  # noqa: E402 - the benchmark's generator, read-only
import workloads  # noqa: E402 - the benchmark's request shapes, read-only

from repro import VARIANTS  # noqa: E402
from repro.bundle import open_bundle, save_bundle  # noqa: E402
from repro.datasets.loader import DimensionSpec, MeasureSpec, load_csv  # noqa: E402
from repro.query.planner import QueryRequest  # noqa: E402

CONFIG = VARIANTS["CURE+"].with_pool(20_000)
FIRST_SLICE_OPENS = 3


def publish(directory: Path, seed: int, n_rows: int) -> Path:
    """CSV → ``load_csv`` → in-memory CURE+ build → saved bundle."""
    csv_path, _spec = retail.write_input(
        directory, retail.generate_facts(seed, n_rows)
    )
    dimensions = [
        DimensionSpec.of(name, *(field for field, _p, _c in levels))
        for name, levels in retail.DIMENSIONS
    ]
    measures = [MeasureSpec.of(name) for name in retail.MEASURES]
    loaded = load_csv(csv_path, dimensions, measures, retail.AGGREGATES)
    result, _plus = CONFIG.build(loaded.schema, table=loaded.table)
    return save_bundle(
        directory / "bundle", loaded.schema, loaded.table, result.storage
    )


def slice_requests(schema, n_ops: int, seed: int) -> list[QueryRequest]:
    ops = workloads.make_ops(
        schema, n_ops, random.Random(seed), **workloads.DRILL
    )
    return [
        QueryRequest(op.node, tuple(op.slices))
        for op in ops
        if op.kind == "slice"
    ]


def fact_side_bytes(bundle) -> tuple[int, int]:
    """``(decoded fact column bytes, index posting bytes)`` held now."""
    decoded = bundle.v2.file._decoded
    columns = sum(
        array.nbytes for name, array in decoded.items()
        if name.startswith("fact/")
    )
    built = getattr(getattr(bundle.v2, "indices", None), "_cache", {})
    postings = sum(
        index.offsets.nbytes + index.rowids.nbytes for index in built.values()
    )
    return columns, postings


def per_slice_us(bundle_dir: Path, requests, passes: int):
    """Fastest pass ÷ slice count, and the bytes held after the passes."""
    with open_bundle(bundle_dir) as bundle:
        planner = bundle.planner()
        for request in requests:
            planner.execute(request)
        best = float("inf")
        for _ in range(passes):
            began = time.perf_counter()
            for request in requests:
                planner.execute(request)
            best = min(best, time.perf_counter() - began)
        held = fact_side_bytes(bundle)
    return 1e6 * best / len(requests), held


def first_slice_ms(bundle_dir: Path, schema, requests) -> list[str]:
    """Per dimension, the first sliced request on it after a fresh open."""
    cells = []
    for dim, dimension in enumerate(schema.dimensions):
        request = next(
            (r for r in requests if any(s.dim == dim for s in r.slices)), None
        )
        if request is None:
            cells.append(f"{dimension.name} –")
            continue
        best = float("inf")
        for _ in range(FIRST_SLICE_OPENS):
            with open_bundle(bundle_dir) as bundle:
                planner = bundle.planner()
                planner.execute(QueryRequest.of(request.node))
                began = time.perf_counter()
                planner.execute(request)
                best = min(best, time.perf_counter() - began)
        cells.append(f"{dimension.name} {1e3 * best:.2f}")
    return cells


def sweep(n_rows: int, args, scratch: Path) -> str:
    bundle_dir = publish(scratch / f"rows{n_rows}", args.seed, n_rows)
    with open_bundle(bundle_dir) as bundle:
        schema = bundle.schema
    requests = slice_requests(schema, args.ops, args.seed)
    per_slice, (columns, postings) = per_slice_us(
        bundle_dir, requests, args.passes
    )
    first = first_slice_ms(bundle_dir, schema, requests)
    return (
        f"| {n_rows:,} | {len(requests)} | {per_slice:.0f} "
        f"| {' · '.join(first)} "
        f"| {columns / 1e6:.2f} + {postings / 1e6:.2f} |"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rows", type=int, nargs="+", default=[8_000, 100_000, 1_000_000]
    )
    parser.add_argument("--passes", type=int, default=7)
    parser.add_argument("--ops", type=int, default=400)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    print(
        "| rows | slice ops | per slice, µs "
        "| first slice per dimension, ms "
        "| fact-side MB held: columns + postings |"
    )
    print("|---|---|---|---|---|")
    with tempfile.TemporaryDirectory(prefix="slice_sweep") as scratch:
        for n_rows in args.rows:
            print(sweep(n_rows, args, Path(scratch)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
