"""Bytes per section family of the retail CURE+ container.

For each ``--rows``, the seeded ``retail`` input of ``benchmarks/e2e`` is
written as CSV, loaded, built with CURE+ and a 20,000-signature pool and
saved as a bundle, as the ``build-mem`` workload does; the bundle's
``cube.v2`` is then read back by its directory.  Prints one Markdown
table: per row count the stored bytes of each section family — ``nt``,
``cat``, ``tt``, ``aggregates``, ``fact/dim``, ``fact/measure`` — the rest
of the file (header, alignment padding, directory and trailer), the
file's total and its bytes per fact row (the benchmark's
``bytes_per_fact_row``).  A copy of this file in another checkout's
``tools/`` measures that checkout:

    python3 tools/section_bytes.py --rows 8000 24000 100000
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks" / "e2e")]

import retail  # noqa: E402 - the benchmark's generator, read-only

from repro.bundle import save_bundle  # noqa: E402
from repro.core.variants import VARIANTS  # noqa: E402
from repro.datasets.loader import DimensionSpec, MeasureSpec, load_csv  # noqa: E402
from repro.storage2 import V2File, publish_v2_bundle  # noqa: E402

POOL_CAPACITY = 20_000
FAMILIES = ("nt", "cat", "tt", "aggregates", "fact/dim", "fact/measure")


def family(name: str) -> str:
    """``node/<id>/nt`` → ``nt``; ``fact/dim/<d>`` → ``fact/dim``."""
    if name.startswith("node/"):
        return name.rpartition("/")[2]
    return name.rpartition("/")[0] if name.startswith("fact/") else name


def section_bytes(n_rows: int, seed: int, scratch: Path) -> dict[str, int]:
    csv_path, _spec = retail.write_input(
        scratch / f"input{n_rows}", retail.generate_facts(seed, n_rows)
    )
    dimensions = [
        DimensionSpec.of(name, *(field for field, _p, _c in levels))
        for name, levels in retail.DIMENSIONS
    ]
    measures = [MeasureSpec.of(name) for name in retail.MEASURES]
    loaded = load_csv(csv_path, dimensions, measures, retail.AGGREGATES)
    config = VARIANTS["CURE+"].with_pool(POOL_CAPACITY)
    result, _plus = config.build(loaded.schema, table=loaded.table)
    bundle = save_bundle(
        scratch / f"bundle{n_rows}", loaded.schema, loaded.table, result.storage,
        extra={"variant": config.name},
    )
    file = V2File.open(publish_v2_bundle(bundle))
    sizes = dict.fromkeys(FAMILIES, 0)
    for name in file.names():
        sizes[family(name)] += file.entry(name).nbytes
    sizes["directory + padding"] = file.file_bytes - sum(sizes.values())
    sizes["total"] = file.file_bytes
    return sizes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, nargs="+", default=[8_000, 24_000])
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    columns = [*FAMILIES, "directory + padding", "total"]
    print("| rows | " + " | ".join(columns) + " | B/row |")
    print("|---:" * (len(columns) + 2) + "|")
    with tempfile.TemporaryDirectory() as scratch:
        for n_rows in args.rows:
            sizes = section_bytes(n_rows, args.seed, Path(scratch))
            cells = [f"{sizes[column]:,}" for column in columns]
            print(
                f"| {n_rows:,} | " + " | ".join(cells)
                + f" | {sizes['total'] / n_rows:.2f} |"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
