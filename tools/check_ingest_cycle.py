"""Fail unless one maintenance cycle is cheaper than the rebuild it avoids.

Reads the output of ``python3 benchmarks/e2e/run.py --workload
ingest-query --trace 1`` on stdin (the last line is the result JSON) and
exits 1 unless ``ingest.apply_s + ingest.checkpoint_s <
ingest.bootstrap_s``: folding one 50-row record into the cube and
committing it must cost less than building the whole 8,000-row cube and
committing that.  Both sides are CPU seconds of the same run at the same
yardstick pace, so the floor holds on any machine.
"""

from __future__ import annotations

import json
import sys


def main() -> int:
    result = json.loads(sys.stdin.read().strip().splitlines()[-1])
    metrics = {name: cell["value"] for name, cell in result["metrics"].items()}
    cycle = metrics["ingest.apply_s"] + metrics["ingest.checkpoint_s"]
    rebuild = metrics["ingest.bootstrap_s"]
    print(
        f"ingest cycle {cycle:.3f} s (apply + checkpoint) vs "
        f"bootstrap {rebuild:.3f} s; failed checks: {result['failed']}"
    )
    return 0 if result["correct"] and 0 < cycle < rebuild else 1


if __name__ == "__main__":
    sys.exit(main())
