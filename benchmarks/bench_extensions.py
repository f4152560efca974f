"""Extension benchmarks: pair partitioning, incremental updates, slices.

These go beyond the paper's figures, covering the extensions DESIGN.md §6
documents (each anchored to a sentence in the paper).
"""

import pytest

from repro.bench.experiments import (
    run_incremental,
    run_pair_partition_ablation,
    run_sliced_queries,
)


def test_pair_partitioning(run_once):
    (table,) = run_once(run_pair_partition_ablation)
    single, pair = table.rows
    assert not single["feasible"]
    assert pair["feasible"]
    assert pair["partitions"] > 4  # more than dim 0's member count allows
    assert pair["level0"] >= 0 and pair["level1"] >= 0


def test_incremental_updates(run_once):
    (table,) = run_once(
        run_incremental, density=0.5, scale=1 / 1000, n_rounds=3,
        batch_fraction=0.02,
    )
    for row in table.rows:
        # Updates stay cheaper than rebuilds and drift stays small.
        assert row["update_seconds"] < 1.5 * row["rebuild_seconds"]
        assert row["drift_ratio"] < 1.3
    drifts = table.column("drift_ratio")
    assert drifts == sorted(drifts)  # drift accumulates monotonically


def test_sliced_queries(run_once):
    (table,) = run_once(run_sliced_queries, scale=1 / 400, n_queries=20)
    slower = []
    for selectivity in (0.1, 0.02):
        post = table.value(
            "avg_ms", selectivity=selectivity, strategy="post-filter"
        )
        prefilter = table.value(
            "avg_ms", selectivity=selectivity, strategy="prefilter"
        )
        if not prefilter < post / 2:
            slower.append(selectivity)
        post_fetches = table.value(
            "fact_fetches", selectivity=selectivity, strategy="post-filter"
        )
        prefilter_fetches = table.value(
            "fact_fetches", selectivity=selectivity, strategy="prefilter"
        )
        assert prefilter_fetches < post_fetches / 2
    if slower:
        # Not reproduced since the batch engine made a post-filter fetch
        # one in-memory gather (EXPERIMENTS.md, "Fact-table indexing"):
        # the fetch gap above is the claim; the time gap is recorded as an
        # expected failure, not a pass.
        pytest.xfail(f"prefiltered slices not 2x faster at selectivity {slower}")
