"""Table 1: partitioning efficiency on the SALES example (analytic model)."""

from paper.experiments import run_table1


def test_table1(run_once):
    (table,) = run_once(run_table1)
    assert [row["L"] for row in table.rows] == [2, 1, 1]
    assert [row["# of Partitions"] for row in table.rows] == [10, 100, 1000]
    assert table.rows[0]["|N|"] == "1 MB"
    assert table.rows[2]["|N|"] == "1 GB"
