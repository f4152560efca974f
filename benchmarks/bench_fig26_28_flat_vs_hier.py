"""Figures 26–28: flat vs hierarchical cubes over APB-1 density 0.4."""

from repro.bench.experiments import run_fig26_27_28

DENSITY = 0.4
SCALE = 1 / 1000
N_QUERIES = 25


def test_fig26_27_28(run_once):
    time_table, size_table, qrt_table = run_once(
        run_fig26_27_28, density=DENSITY, scale=SCALE, n_queries=N_QUERIES
    )

    # Figure 26: a flat cube is faster to construct than a hierarchical one.
    fcure_s = time_table.value("seconds", method="FCURE")
    cure_s = time_table.value("seconds", method="CURE")
    assert fcure_s < cure_s

    # Figure 27: ...and occupies less storage.
    fcure_mb = size_table.value("MB", method="FCURE")
    cure_mb = size_table.value("MB", method="CURE")
    assert fcure_mb < cure_mb
    # Flat-to-flat: FCURE's redundancy elimination beats both baselines.
    assert fcure_mb < size_table.value("MB", method="BUC")
    assert fcure_mb < size_table.value("MB", method="BU-BST")
    # The CURE+ pass shrinks both the flat and the hierarchical cube.
    assert size_table.value("MB", method="FCURE+") <= fcure_mb
    assert size_table.value("MB", method="CURE+") <= cure_mb

    # Figure 28: the hierarchical cube answers roll-up/drill-down queries
    # faster than any flat format's on-the-fly aggregation.
    cure_ms = qrt_table.value("avg_ms", method="CURE")
    plus_ms = qrt_table.value("avg_ms", method="CURE+")
    best_hier = min(cure_ms, plus_ms)
    for flat_method in ("FCURE", "FCURE+", "BU-BST"):
        assert best_hier < qrt_table.value("avg_ms", method=flat_method)
    # BUC's base nodes are resident int64 arrays at this scale, so its
    # re-aggregation outruns CURE's fact dereferences in time (Known
    # divergence 2, EXPERIMENTS.md); the mechanism — reading the node
    # instead of rolling up its base node — holds against every flat
    # format as stored rows read per query.
    cure_rows = qrt_table.value("rows_scanned", method="CURE")
    for flat_method in ("FCURE", "FCURE+", "BUC", "BU-BST"):
        assert cure_rows < qrt_table.value("rows_scanned", method=flat_method)
