"""Figure 18: signature pool size vs cube storage space."""

from paper.experiments import run_fig18

SCALE = 1 / 200
POOLS = (200, 2_000, 20_000, None)


def test_fig18(run_once):
    (table,) = run_once(run_fig18, scale=SCALE, pool_sizes=POOLS)
    sizes = table.column("MB")
    # Monotonically non-increasing in pool size; unbounded is smallest.
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[-1] < sizes[0]
    # More pool → more CATs identified, fewer NTs stored.
    assert table.column("n_cat") == sorted(table.column("n_cat"))
    assert table.column("n_nt") == sorted(table.column("n_nt"), reverse=True)
    # The unbounded pool flushes exactly once (line 22 of Algorithm CURE).
    assert table.rows[-1]["flushes"] == 1
