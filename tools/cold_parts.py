"""Time each stage of a cold start: open a cube bundle, answer once, close.

The seeded ``retail`` input of ``benchmarks/e2e`` is written as CSV,
loaded, built as ``CURE+`` (pool 20,000) and saved as a bundle, as the
``build-mem`` workload does.  Then, in this process:

* **per piece**, fastest of ``--repeat`` calls: the directory parse and
  checks (``V2File.open``), ``bundle.json`` and its schema (the one
  manifest reader, ``read_manifest``),
  ``bitpack_decode`` of every fact dimension column, ``delta_decode``
  over every delta-coded TT section, ``narrow_decode`` over every
  narrow section, and one whole cold start (``open_bundle`` →
  ``planner()`` → first answer → close) per first query, as the median
  over the queries;
* **attribution**: the first queries' cold starts, ``--repeat`` ÷ 20
  times over, with the stages above wrapped in timers; each stage's mean
  wall time per cold start, and its share of the whole.

Prints two Markdown tables (microseconds).

    python3 tools/cold_parts.py --rows 24000 --seed 11 --repeat 200
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks" / "e2e")]

import retail  # noqa: E402 - the benchmark's generator, read-only

import repro.bundle as bundle_module  # noqa: E402
import repro.storage2.format as format_module  # noqa: E402
from repro import VARIANTS  # noqa: E402
from repro.bundle import open_bundle, save_bundle  # noqa: E402
from repro.datasets.loader import DimensionSpec, MeasureSpec, load_csv  # noqa: E402
from repro.query.workload import mixed_workload  # noqa: E402
from repro.server.replay import execute_op  # noqa: E402
from repro.storage2.codecs import (  # noqa: E402
    BITPACK,
    DELTA,
    NARROW,
    bitpack_decode,
    delta_decode,
    narrow_decode,
)
from repro.storage2.format import V2File  # noqa: E402

CONFIG = VARIANTS["CURE+"].with_pool(20_000)
#: The first queries: every kind, near-uniform over the lattice, as the
#: harness's cold starts.
FIRST_QUERIES = 50
FIRST_SHAPE = dict(
    mix=(("node", 0.25), ("slice", 0.25), ("iceberg", 0.25), ("rollup", 0.25)),
    zipf_s=0.2, max_slice_members=3, min_count_range=(2, 30),
)


def build(directory: Path, seed: int, n_rows: int) -> Path:
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


def fastest(call, repeat: int) -> float:
    """Fastest wall seconds of ``repeat`` calls."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def cold_start(root: Path, op) -> None:
    with open_bundle(root) as bundle:
        len(execute_op(bundle.planner(), op))


def pieces(root: Path, ops, repeat: int) -> list[tuple[str, str, float]]:
    """``(piece, detail, fastest seconds)`` rows."""
    container, meta = root / "cube.v2", root / "bundle.json"
    file = V2File.open(container)
    rows = [
        (
            "`V2File.open`",
            f"{container.stat().st_size:,} B file, {len(file.names())} sections",
            fastest(lambda: V2File.open(container), repeat),
        ),
        (
            "`bundle.json` + schema",
            f"{meta.stat().st_size:,} B",
            fastest(lambda: bundle_module.read_manifest(root), repeat),
        ),
    ]
    by_codec: dict[str, list] = {}
    for name in file.names():
        entry = file.entry(name)
        payload = file.section_bytes(name).tobytes()
        by_codec.setdefault(entry.codec, []).append((name, entry, payload))
    for name, entry, payload in by_codec.get(BITPACK, []):
        bits = int(entry.extra["bits"])
        rows.append((
            f"`bitpack_decode` `{name}`",
            f"{entry.count:,} values × {bits} bits",
            fastest(lambda: bitpack_decode(payload, bits, entry.count), repeat),
        ))
    deltas = [(entry, payload) for _n, entry, payload in by_codec.get(DELTA, [])]
    median = statistics.median(entry.count for entry, _p in deltas)
    rows.append((
        "`delta_decode`, every delta TT section",
        f"{len(deltas)} sections, median {median:,.0f} values",
        fastest(lambda: [delta_decode(p, e.count) for e, p in deltas], repeat),
    ))
    narrows = [(entry, payload) for _n, entry, payload in by_codec.get(NARROW, [])]
    rows.append((
        "`narrow_decode`, every narrow section",
        f"{len(narrows)} sections",
        fastest(
            lambda: [
                narrow_decode(
                    p, e.extra["lows"], e.extra["widths"], e.shape, e.extra.get("gaps", ())
                )
                for e, p in narrows
            ],
            repeat,
        ),
    ))
    colds = [
        fastest(lambda: cold_start(root, op), max(1, repeat // 10)) for op in ops
    ]
    rows.append((
        "cold start: open → first answer → close",
        f"median of {len(ops)} first queries",
        statistics.median(colds),
    ))
    return rows


def attribution(root: Path, ops, repeat: int) -> list[tuple[str, float]]:
    """Mean wall seconds per cold start in each wrapped stage, and in all."""
    spent: dict[str, float] = {}
    stages = [
        (format_module.V2File, "open", "`V2File.open`"),
        (bundle_module, "read_manifest", "`bundle.json` + schema"),
        (format_module, "bitpack_decode", "`bitpack_decode`"),
        (format_module, "delta_decode", "`delta_decode`"),
        (format_module, "narrow_decode", "`narrow_decode`"),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _l in stages]

    def timed(label, function):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spent[label] = spent.get(label, 0.0) + time.perf_counter() - start

        return wrapper

    for owner, attr, label in stages:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(timed(label, original.__func__)))
        else:
            setattr(owner, attr, timed(label, original))
    try:
        start = time.perf_counter()
        for _ in range(repeat):
            for op in ops:
                cold_start(root, op)
        total = time.perf_counter() - start
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
    runs = repeat * len(ops)
    return [(label, spent.get(label, 0.0) / runs) for *_o, label in stages] + [
        ("whole cold start", total / runs)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=24_000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeat", type=int, default=200)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cold_parts") as scratch:
        root = build(Path(scratch), args.seed, args.rows)
        with open_bundle(root) as bundle:
            ops = mixed_workload(
                bundle.schema, FIRST_QUERIES, seed=args.seed, **FIRST_SHAPE
            )
        print("| piece | size | fastest µs |")
        print("|---|---|---|")
        for piece, detail, seconds in pieces(root, ops, args.repeat):
            print(f"| {piece} | {detail} | {seconds * 1e6:,.0f} |", flush=True)
        print()
        rows = attribution(root, ops, max(1, args.repeat // 20))
        whole = rows[-1][1]
        print("| stage | mean µs per cold start | share |")
        print("|---|---|---|")
        for label, seconds in rows:
            print(f"| {label} | {seconds * 1e6:,.0f} | {seconds / whole:.0%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
