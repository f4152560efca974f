"""Fail unless every named inequality between per-layer metrics holds.

Reads the output of ``python3 benchmarks/e2e/run.py --workload W
--trace 1`` on stdin (the last line is the result JSON) and takes one
floor per argument, ``"a + b < c"``: sums of metric names either side
of ``<``, each name optionally multiplied by an integer coefficient
(``"3 * a < b"``).  Every floor is checked against that one run, and
the checker exits 1 unless the run was correct and ``0 < left < right``
holds for each of them.  Both sides come from the same run: CPU seconds at
the same yardstick pace, or wall-clock medians of the same spans, so a
floor holds on any machine.  The nightly floors:

``ingest.apply_s + ingest.checkpoint_s < ingest.bootstrap_s``
    (``ingest-query``) folding one 50-row record into the cube and
    committing it must cost less than building the whole 8,000-row cube
    and committing that.
``7 * ingest.apply_s < ingest.bootstrap_s``
    (``ingest-query``) folding one 50-row record into every plan node
    must cost less than a seventh of building the 8,000-row cube.
``5 * ingest.checkpoint_s < ingest.bootstrap_s``
    (``ingest-query``) committing one generation after a 50-row record
    must cost less than a fifth of building the 8,000-row cube and
    committing that.
``3 * datasets.load_csv_s < core.build_s``
    (``build-mem``) parsing the fact table must cost less than a third of
    cubing it.
``3 * bundle.open_ms < 2 * query.first_answer_ms``
    (``build-mem``, wall-clock medians of the 50 cold starts) opening the
    container must cost less than two thirds of answering one query from
    it.
``server.encode_ms < query.answer_ms``
    (``serve-drill``, each op's fastest traced time, averaged over the
    ops) rendering an answer's JSON body must cost less than computing
    the answer.
"""

from __future__ import annotations

import json
import sys


def side_value(side: str, metrics: dict[str, float]) -> float:
    """The sum of a side's terms, each ``name`` or ``integer * name``."""
    total = 0.0
    for term in side.split("+"):
        coefficient, _times, name = term.rpartition("*")
        total += int(coefficient.strip() or 1) * metrics[name.strip()]
    return total


def main(argv: list[str]) -> int:
    floors = argv[1:]
    if not floors or any(floor.count("<") != 1 for floor in floors):
        print(
            f'usage: {argv[0]} "[k *] metric [+ …] < [k *] metric [+ …]" …'
        )
        return 2
    result = json.loads(sys.stdin.read().strip().splitlines()[-1])
    metrics = {name: cell["value"] for name, cell in result["metrics"].items()}
    print(f"failed checks: {result['failed']}")
    held = result["correct"]
    for floor in floors:
        left, right = floor.split("<")
        low, high = side_value(left, metrics), side_value(right, metrics)
        ok = 0 < low < high
        print(
            f"{'ok  ' if ok else 'FAIL'} {left.strip()} = {low:.3f} "
            f"vs {right.strip()} = {high:.3f}"
        )
        held = held and ok
    return 0 if held else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
