"""Fail unless a named inequality between per-layer metrics holds.

Reads the output of ``python3 benchmarks/e2e/run.py --workload W
--trace 1`` on stdin (the last line is the result JSON) and takes the
floor as its one argument, ``"a + b < c"``: sums of metric names either
side of ``<``.  Exits 1 unless the run was correct and ``0 < left <
right``.  Both sides are CPU seconds of the same run at the same
yardstick pace, so a floor holds on any machine.  The nightly floors:

``ingest.apply_s + ingest.checkpoint_s < ingest.bootstrap_s``
    (``ingest-query``) folding one 50-row record into the cube and
    committing it must cost less than building the whole 8,000-row cube
    and committing that.
``datasets.load_csv_s < core.build_s``
    (``build-mem``) parsing the fact table must cost less than cubing it.
"""

from __future__ import annotations

import json
import sys


def side_value(side: str, metrics: dict[str, float]) -> float:
    return sum(metrics[name.strip()] for name in side.split("+"))


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[1].count("<") != 1:
        print(f'usage: {argv[0]} "metric [+ metric…] < metric [+ metric…]"')
        return 2
    left, right = argv[1].split("<")
    result = json.loads(sys.stdin.read().strip().splitlines()[-1])
    metrics = {name: cell["value"] for name, cell in result["metrics"].items()}
    low, high = side_value(left, metrics), side_value(right, metrics)
    print(
        f"{left.strip()} = {low:.3f} vs {right.strip()} = {high:.3f}; "
        f"failed checks: {result['failed']}"
    )
    return 0 if result["correct"] and 0 < low < high else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
