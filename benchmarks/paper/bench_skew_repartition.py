"""Intra-member skew: local pair re-partitioning kicks in past the budget."""

from paper.experiments import run_skew_repartition

HOT_FRACTIONS = (0.0, 0.3, 0.7, 0.9)


def test_skew_repartition(run_once):
    (table,) = run_once(run_skew_repartition, hot_fractions=HOT_FRACTIONS)

    # No skew: the uniform estimate holds and nothing is re-partitioned.
    assert table.value("pair_repartitioned", hot_fraction=0.0) == 0
    assert table.value("repartitioned", hot_fraction=0.0) == 0

    # Once the hot member alone exceeds the budget, the split cannot use a
    # finer level of the (flat) first dimension — it must go through the
    # local pair extension.
    for fraction in (0.7, 0.9):
        assert table.value("pair_repartitioned", hot_fraction=fraction) >= 1
        assert table.value("subpartitions", hot_fraction=fraction) >= 2

    # Builds complete within the budget at every skew (peak is simulated,
    # so this is exact, not flaky).
    assert all(kb > 0 for kb in table.column("peak_KB"))
