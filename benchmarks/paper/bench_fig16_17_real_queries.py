"""Figures 16 & 17: query response time and the effect of caching."""

from paper.experiments import run_fig16_17

SCALE = 1 / 400
N_QUERIES = 30


def test_fig16_17(run_once):
    qrt_table, cache_table = run_once(
        run_fig16_17, scale=SCALE, n_queries=N_QUERIES
    )

    for dataset in ("CovType", "Sep85L"):
        bubst_ms = qrt_table.value("avg_ms", dataset=dataset, method="BU-BST")
        buc_ms = qrt_table.value("avg_ms", dataset=dataset, method="BUC")
        # Figure 16: BU-BST's monolithic scan is far slower than BUC's
        # per-node reads (orders of magnitude in the paper).
        assert bubst_ms > 10 * buc_ms

    # Figure 17: CURE query time improves monotonically-ish with cache;
    # assert the endpoints, which is what the paper's curves show.
    for dataset in ("CovType", "Sep85L"):
        for method in ("CURE", "CURE+"):
            cold = cache_table.value(
                "avg_ms", dataset=dataset, method=method, cache_fraction=0.0
            )
            warm = cache_table.value(
                "avg_ms", dataset=dataset, method=method, cache_fraction=1.0
            )
            assert warm < cold
