"""Figure 25: APB-1 average QRT by result-size bucket, four CURE variants."""

from paper.experiments import run_fig25

DENSITY = 0.4
SCALE = 1 / 1000


def test_fig25(run_once):
    (table,) = run_once(run_fig25, density=DENSITY, scale=SCALE)
    assert len(table.rows) == 10  # ten equal-sized query sets
    # Result sizes ascend across buckets (the x-axis of Figure 25).
    max_sizes = table.column("max_result_tuples")
    assert max_sizes == sorted(max_sizes)
    # Queries over big results cost more than over small ones, for every
    # variant (the figure's universal upward slope).
    for variant in ("CURE", "CURE+", "CURE_DR", "CURE_DR+"):
        series = table.column(variant)
        assert series[-1] > series[0]
    # The small-result buckets answer in a small fraction of the largest
    # bucket's time — the paper's "60% of queries under 0.5s" shape.
    for variant in ("CURE", "CURE+", "CURE_DR", "CURE_DR+"):
        series = table.column(variant)
        assert series[0] < series[-1] / 5
