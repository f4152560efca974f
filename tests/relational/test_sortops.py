"""Unit tests for the sort counters."""

from repro.relational.sortops import SortStats


def test_stats_accumulate_and_merge():
    stats = SortStats(keys_sorted=6, comparison_sorts=1)
    other = SortStats(keys_sorted=10, comparison_sorts=2)
    stats.merge(other)
    assert stats.keys_sorted == 16
    assert stats.comparison_sorts == 3
    assert stats.counting_sorts == 0
    stats.reset()
    assert stats == SortStats()
