"""Retail analytics with deep and complex hierarchies.

Run with::

    python examples/retail_hierarchies.py

The scenario the paper's introduction motivates: a SALES fact table whose
dimensions carry multi-level hierarchies —

* Product: barcode → brand → economic_strength (the Section 4 example),
* Region:  city → country → continent,
* Time:    day → {week, month → year}  (a *complex*, non-linear hierarchy
  as in Figure 5 — day rolls up along two branches).

Shows the hierarchical execution plan (P3) CURE derives, including the
modified rule 2 for the Time branch, builds the cube, and runs roll-up /
drill-down queries at several granularities.
"""

import numpy as np

from repro import (
    CubeSchema,
    Table,
    build_cube,
    complex_dimension,
    linear_dimension,
    make_aggregates,
)
from repro.lattice.lattice import CubeLattice
from repro.lattice.node import CubeNode
from repro.lattice.plan import HierarchicalShape, walk_plan
from repro.query import FactCache, answer_cure_query

N_DAYS = 56  # 8 weeks / ~2 months of daily sales
N_CITIES = 12
N_BARCODES = 40


def make_time_dimension():
    """day → week and day → month → year: a branching (complex) hierarchy."""
    days = list(range(N_DAYS))
    day_to_week = [d // 7 for d in days]  # 8 weeks
    day_to_month = [d // 28 for d in days]  # 2 "months"
    month_to_year = [0, 0]
    return complex_dimension(
        "Time",
        levels=[("day", N_DAYS), ("week", 8), ("month", 2), ("year", 1)],
        base_maps=[
            days,
            day_to_week,
            day_to_month,
            [month_to_year[m] for m in day_to_month],
        ],
        # day's parents are week AND month; week reaches ALL directly.
        parents=[(1, 2), (4,), (3,), (4,)],
    )


def plan_lines(lattice):
    """CURE's plan (P3) in execution order, one node a line, indented by
    its depth in the plan tree."""
    depths = []
    lines = []
    for node, parent in walk_plan(HierarchicalShape(lattice)):
        depths.append(0 if parent < 0 else depths[parent] + 1)
        lines.append("  " * depths[-1] + node.label(lattice.dimensions))
    return lines, max(depths)


def main() -> None:
    product = linear_dimension(
        "Product",
        [("barcode", N_BARCODES), ("brand", 8), ("strength", 2)],
    )
    region = linear_dimension(
        "Region",
        [("city", N_CITIES), ("country", 4), ("continent", 2)],
    )
    time = make_time_dimension()
    schema = CubeSchema(
        dimensions=(product, region, time),
        aggregates=make_aggregates(("sum", 0), ("count", 0)),
        n_measures=1,
    )

    lattice = schema.lattice
    print(f"lattice nodes: {lattice.n_nodes} "
          f"(flat would be {1 << schema.n_dimensions})")
    lines, height = plan_lines(lattice)
    print(f"CURE plan P3: {len(lines)} nodes, height {height}")
    # The modified rule 2 at work: day is reached from week (higher
    # cardinality), not from month.
    print(f"Time dashed edges from 'week': "
          f"{[time.level(c).name for c in time.dashed_children(1)]}")
    print(f"Time dashed edges from 'month': "
          f"{[time.level(c).name for c in time.dashed_children(2)]}")
    print()
    print("--- the Time sub-plan (paper Figure 5b, as a tree) ---")
    print("\n".join(plan_lines(CubeLattice((time,)))[0]))
    print()

    rng = np.random.default_rng(3)
    n = 4000
    rows = np.array([
        (
            int(rng.integers(N_BARCODES)),
            int(rng.integers(N_CITIES)),
            int(rng.integers(N_DAYS)),
            int(rng.integers(5, 500)),
        )
        for _ in range(n)
    ])
    fact = Table.from_columns(schema.fact_schema, rows.T)

    result = build_cube(schema, table=fact)
    print("--- cube storage ---")
    print(result.storage.describe())
    print()

    cache = FactCache(schema, table=fact)

    def show(node_levels, label, limit=6):
        node = CubeNode(node_levels)
        answer = sorted(answer_cure_query(result.storage, cache, node))
        print(f"--- {label} ({len(answer)} tuples) ---")
        for dims, aggregates in answer[:limit]:
            print(f"  {dims} -> sum={aggregates[0]}, count={aggregates[1]}")
        if len(answer) > limit:
            print(f"  … {len(answer) - limit} more")
        print()

    # Roll-up: revenue per continent per year.
    show(
        (product.all_level, region.level_index("continent"),
         time.level_index("year")),
        "revenue per continent × year",
    )
    # Drill-down one step: per country per month.
    show(
        (product.all_level, region.level_index("country"),
         time.level_index("month")),
        "revenue per country × month",
    )
    # The week branch of the complex hierarchy.
    show(
        (product.level_index("strength"), region.all_level,
         time.level_index("week")),
        "revenue per product-strength × week",
    )


if __name__ == "__main__":
    main()
