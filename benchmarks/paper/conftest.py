"""Shared benchmark helpers.

Every benchmark wraps one paper experiment: it runs the experiment once
under pytest-benchmark timing (``rounds=1`` — cube construction is not a
microbenchmark), prints the paper-style result tables, attaches them to
``benchmark.extra_info`` and asserts the expected qualitative *shape*.

Scales here are smaller than the CLI defaults (`python -m paper.run`)
so the whole ``pytest benchmarks/paper --benchmark-only`` pass stays in minutes.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run one experiment under the benchmark timer and print its tables."""

    def runner_wrapper(runner, **kwargs):
        tables = benchmark.pedantic(
            lambda: runner(**kwargs), rounds=1, iterations=1
        )
        for table in tables:
            print()
            print(table.render())
        benchmark.extra_info["tables"] = [
            {"experiment": t.experiment, "rows": t.rows} for t in tables
        ]
        return tables

    return runner_wrapper
