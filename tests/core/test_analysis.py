"""Unit tests for the Table 1 analytic partitioning model."""

import pytest

from paper.analysis import GB, plan_partitioning, table1_rows


def test_table1_rows_match_paper():
    """Table 1, verbatim: levels, partition counts, shrink factors, |N|."""
    rows = table1_rows()
    r10, r100, r1000 = rows

    assert r10.level == 2 and r10.level_name == "economic_strength"
    assert r10.n_partitions == 10
    assert r10.shrink_factor == 10_000
    assert r10.coarse_bytes == GB // 1000  # 1 MB

    assert r100.level == 1 and r100.level_name == "brand"
    assert r100.n_partitions == 100
    assert r100.shrink_factor == 1_000
    assert r100.coarse_bytes == GB // 10  # 100 MB

    assert r1000.level == 1
    assert r1000.n_partitions == 1_000
    assert r1000.coarse_bytes == GB  # 1 GB

    for row in rows:
        assert row.partition_bytes == GB


def test_relation_fitting_in_memory_rejected():
    with pytest.raises(ValueError, match="already fits"):
        plan_partitioning(GB // 2, GB, ("a",), (10,))


def test_no_feasible_level_raises():
    # 1000 GB over a dimension with at most 5 members anywhere: at most 5
    # sound partitions, but 1000 are needed.
    with pytest.raises(ValueError, match="no single-dimension level"):
        plan_partitioning(1000 * GB, GB, ("a", "b"), (5, 2))


def test_level_name_count_checked():
    with pytest.raises(ValueError, match="one name per level"):
        plan_partitioning(10 * GB, GB, ("a",), (10, 5))


def test_prefers_highest_feasible_level():
    # Both levels feasible → the higher one (fewer partitions) wins.
    row = plan_partitioning(
        4 * GB, GB, ("base", "top"), (1_000_000, 100)
    )
    assert row.level == 1
