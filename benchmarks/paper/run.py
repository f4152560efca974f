"""CLI entry point: ``python -m paper.run [--experiment ID] [--full]``.

Prints the paper-style result tables for one experiment, or for all of
them.  ``--full`` passes ``full=True`` to experiments that support a
closer-to-paper scale (currently fig23/fig24: appends APB density 40).
"""

from __future__ import annotations

import argparse
import sys
import time

from paper.experiments import EXPERIMENTS, run_experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m paper.run",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "--experiment",
        "-e",
        action="append",
        dest="experiments",
        metavar="ID",
        help="experiment id (repeatable); default: all. "
        f"Known: {', '.join(sorted(set(EXPERIMENTS)))}",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the heavier closer-to-paper scales where supported",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        seen = set()
        for key in sorted(EXPERIMENTS):
            entry = EXPERIMENTS[key]
            if entry.id in seen:
                continue
            seen.add(entry.id)
            print(f"{entry.id:14s} {entry.reproduces}")
        return 0

    requested = args.experiments
    if not requested:
        seen_ids: set[str] = set()
        requested = []
        for key in sorted(EXPERIMENTS):
            entry = EXPERIMENTS[key]
            if entry.id not in seen_ids:
                seen_ids.add(entry.id)
                requested.append(entry.id)

    for experiment_id in requested:
        kwargs = {}
        if args.full and experiment_id in ("fig23", "fig24"):
            kwargs["full"] = True
        started = time.perf_counter()
        tables = run_experiment(experiment_id, **kwargs)
        elapsed = time.perf_counter() - started
        for table in tables:
            print(table.render())
            print()
        print(f"[{experiment_id} completed in {elapsed:.1f}s]")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
