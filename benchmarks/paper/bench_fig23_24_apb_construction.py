"""Figures 23 & 24: APB-1 construction scaling (with external partitioning).

The smaller density builds in memory; the larger one exceeds the simulated
budget and runs the Section 4 partitioning pipeline — the mechanism behind
the paper's headline 12 GB APB-1 build on a 512 MB machine.  Set
``REPRO_FULL=1`` to append the paper's flagship density 40 (minutes).
"""

import os

from paper.experiments import MB, run_fig23_24

DENSITIES = (0.4, 4.0)
SCALE = 1 / 2000
MEMBER_SCALE = 1 / 20


def test_fig23_24(run_once):
    time_table, size_table = run_once(
        run_fig23_24,
        densities=DENSITIES,
        scale=SCALE,
        member_scale=MEMBER_SCALE,
        memory_budget=int(0.6 * MB),
        pool_capacity=5_000,
        full=bool(os.environ.get("REPRO_FULL")),
    )

    variants = ("CURE", "CURE+", "CURE_DR", "CURE_DR+")
    # The small density fits in memory; the big one must partition.
    for variant in variants:
        assert not time_table.value(
            "partitioned", density=0.4, method=variant
        )
        assert time_table.value("partitioned", density=4.0, method=variant)

    # Section 4's "2 reads + 1 write" holds for every variant: CURE_DR's
    # NTs take their dimension values from the signatures, not from R.
    reads = time_table.value("fact_reads", density=4.0, method="CURE")
    for variant in variants:
        assert time_table.value("fact_reads", density=4.0, method=variant) == reads

    # Figure 24: CURE+ is the most compact; CURE_DR trades space for speed.
    for density in DENSITIES:
        plus = size_table.value("MB", density=density, method="CURE+")
        cure = size_table.value("MB", density=density, method="CURE")
        dr = size_table.value("MB", density=density, method="CURE_DR")
        assert plus <= cure <= dr

    # Figure 23: near-linear scaling — 10x the tuples costs well under
    # 100x the time (the paper's variants "scale very well").
    for variant in variants:
        small = time_table.value("seconds", density=0.4, method=variant)
        large = time_table.value("seconds", density=4.0, method=variant)
        assert large < 100 * max(small, 1e-3)
