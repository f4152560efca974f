"""Section 4 ablation: external partitioning under shrinking budgets."""

from paper.experiments import MB, run_partition_ablation

DENSITY = 4.0
SCALE = 1 / 2000
MEMBER_SCALE = 1 / 20
BUDGETS = (int(0.5 * MB), int(0.7 * MB), 64 * MB)


def test_partition_ablation(run_once):
    (table,) = run_once(
        run_partition_ablation,
        density=DENSITY,
        scale=SCALE,
        member_scale=MEMBER_SCALE,
        budgets=BUDGETS,
        pool_capacity=2_000,
    )
    rows = {round(row["budget_MB"], 2): row for row in table.rows}
    # Small budgets partition; the generous one takes the in-memory path.
    assert rows[0.5]["partitioned"]
    assert rows[0.7]["partitioned"]
    assert not rows[64.0]["partitioned"]
    # Peak memory respects every budget.
    for budget_mb, row in rows.items():
        assert row["peak_MB"] <= budget_mb
    # The 2-reads / 1-write cost claim of Section 4.
    for budget_mb in (0.5, 0.7):
        assert rows[budget_mb]["read_passes"] == 2
        assert rows[budget_mb]["write_passes"] == 1
    # In-memory path reads the table once and writes nothing.
    assert rows[64.0]["read_passes"] == 1
    assert rows[64.0]["write_passes"] == 0
