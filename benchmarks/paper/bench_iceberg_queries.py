"""Section 7 (text): count-iceberg queries — CURE skips TT relations."""

from paper.experiments import run_iceberg

SCALE = 1 / 300
MIN_COUNTS = (2, 10)
N_QUERIES = 25


def test_iceberg(run_once):
    (table,) = run_once(
        run_iceberg, scale=SCALE, min_counts=MIN_COUNTS, n_queries=N_QUERIES
    )
    for min_count in MIN_COUNTS:
        cure_ms = table.value("avg_ms", min_count=min_count, method="CURE")
        bubst_ms = table.value("avg_ms", min_count=min_count, method="BU-BST")
        # The paper: "orders of magnitude more efficient than ... any
        # other format"; at bench scale assert a decisive factor over the
        # monolithic scan.
        assert cure_ms < bubst_ms / 5
    # Higher thresholds shrink results monotonically.
    results = [
        table.value("avg_result", min_count=m, method="CURE")
        for m in MIN_COUNTS
    ]
    assert results == sorted(results, reverse=True)
