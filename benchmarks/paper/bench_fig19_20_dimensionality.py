"""Figures 19 & 20: effect of dimensionality on time and storage."""

from paper.experiments import run_fig19_20

DIMS = (4, 6, 8, 10)
N_TUPLES = 4_000


def test_fig19_20(run_once):
    time_table, size_table = run_once(
        run_fig19_20, dims=DIMS, n_tuples=N_TUPLES, buc_materialize_up_to=8
    )

    for d in DIMS:
        cure_mb = size_table.value("MB", D=d, method="CURE")
        plus_mb = size_table.value("MB", D=d, method="CURE+")
        bubst_mb = size_table.value("MB", D=d, method="BU-BST")
        buc_mb = size_table.value("MB", D=d, method="BUC")
        # Figure 20: CURE and CURE+ are "the undisputed winners".
        assert plus_mb <= cure_mb
        assert cure_mb < bubst_mb
        assert cure_mb < buc_mb

    # BUC storage explodes with D ("exceeds the ranges of the graph").
    buc_sizes = [size_table.value("MB", D=d, method="BUC") for d in DIMS]
    assert buc_sizes == sorted(buc_sizes)
    assert buc_sizes[-1] > 8 * buc_sizes[0]

    # Construction time grows with D for every method.
    for method in ("CURE", "CURE+", "BU-BST"):
        seconds = [
            time_table.value("seconds", D=d, method=method) for d in DIMS
        ]
        assert seconds[-1] > seconds[0]

    # CURE's relation count stays far below the theoretical 3·2^D at high
    # D, because TT sharing leaves most node relations empty (Section 7).
    top = DIMS[-1]
    relations = size_table.value("relations", D=top, method="CURE")
    assert relations < 3 * (1 << top)
