"""The APB-1 OLAP Council benchmark, re-implemented (Section 7).

The paper's hierarchical experiments use the APB-1 generator with four
dimensions (cardinalities exactly as quoted in Section 7):

* **Product**: Code (6,500) → Class (435) → Group (215) → Family (54) →
  Line (11) → Division (3)
* **Customer**: Store (640) → Retailer (71)
* **Time**: Month (17) → Quarter (6) → Year (2)
* **Channel**: Base (9)

yielding ``(6+1)·(2+1)·(3+1)·(1+1) = 168`` cube nodes, two integer
measures (Unit Sales, Dollar Sales), and a fact table whose size is tuned
by a *density* factor: density 0.1 ↦ 1,239,300 tuples in the paper (400×
that at density 40 ≈ 496 M tuples / 12 GB).

**Substitution note** — the hierarchy structure, node count, density knob
and dimension order are reproduced exactly; only the constant
tuples-per-density is scaled (default ``scale = 1/1000``) so pure-Python
runs finish in seconds.  Time hierarchy members use the benchmark's 17
months = 2 years layout (12 + 5 months) rather than a uniform split, so
month→quarter→year roll-ups are calendar-shaped.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import CubeSchema
from repro.hierarchy.builders import flat_dimension, linear_dimension
from repro.hierarchy.dimension import Dimension
from repro.relational.aggregates import make_aggregates
from repro.relational.table import Table

TUPLES_PER_DENSITY = 12_393_000  # density 0.1 → 1,239,300 tuples (paper)

APB_LEVELS = {
    "Product": (
        ("Code", 6_500),
        ("Class", 435),
        ("Group", 215),
        ("Family", 54),
        ("Line", 11),
        ("Division", 3),
    ),
    "Customer": (("Store", 640), ("Retailer", 71)),
    "Time": (("Month", 17), ("Quarter", 6), ("Year", 2)),
    "Channel": (("Base", 9),),
}


def _calendar_time_dimension() -> Dimension:
    """Month → Quarter → Year with APB's 17-month (2-year) calendar."""
    month_to_quarter = [month // 3 for month in range(17)]  # 17 months → 6 quarters
    quarter_to_year = [quarter // 4 for quarter in range(6)]  # Q1..Q4, Q5..Q6
    return linear_dimension(
        "Time",
        list(APB_LEVELS["Time"]),
        parent_maps=[month_to_quarter, quarter_to_year],
    )


def _scaled_levels(
    levels: tuple[tuple[str, int], ...], member_scale: float
) -> list[tuple[str, int]]:
    """Scale a chain's cardinalities, keeping it monotone non-increasing."""
    scaled = [
        (name, max(3, round(cardinality * member_scale)))
        for name, cardinality in levels
    ]
    # A parent level can never have more members than its child.
    for index in range(1, len(scaled)):
        name, cardinality = scaled[index]
        scaled[index] = (name, min(cardinality, scaled[index - 1][1]))
    return scaled


def apb_dimensions(member_scale: float = 1.0) -> tuple[Dimension, ...]:
    """The four APB-1 dimensions with exact level cardinalities.

    ``member_scale < 1`` shrinks the two wide dimensions (Product and
    Customer) proportionally while keeping Time and Channel exact and the
    hierarchy *structure* (level count, therefore the 168-node lattice)
    unchanged.  This lets scaled-down runs reach the dense regime where the
    paper's external partitioning pays off — see DESIGN.md §3.
    """
    if member_scale == 1.0:
        product = linear_dimension("Product", list(APB_LEVELS["Product"]))
        customer = linear_dimension("Customer", list(APB_LEVELS["Customer"]))
    else:
        product = linear_dimension(
            "Product", _scaled_levels(APB_LEVELS["Product"], member_scale)
        )
        customer = linear_dimension(
            "Customer", _scaled_levels(APB_LEVELS["Customer"], member_scale)
        )
    time = _calendar_time_dimension()
    channel = flat_dimension("Channel", APB_LEVELS["Channel"][0][1])
    return (product, customer, time, channel)


def apb_tuple_count(density: float, scale: float) -> int:
    return max(1, round(TUPLES_PER_DENSITY * density * scale))


def generate_apb_dataset(
    density: float = 0.4,
    scale: float = 1 / 1000,
    seed: int = 17,
    with_count: bool = False,
    member_scale: float = 1.0,
) -> tuple[CubeSchema, Table]:
    """Generate the APB-1 fact table at a given density.

    ``with_count=True`` appends a COUNT aggregate (needed by the iceberg
    query experiments) to the benchmark's two SUM measures.
    """
    if density <= 0:
        raise ValueError("density must be positive")
    n_tuples = apb_tuple_count(density, scale)
    dimensions = apb_dimensions(member_scale)
    rng = np.random.default_rng(seed)
    columns = [
        rng.integers(0, dimension.base_cardinality, size=n_tuples, dtype=np.int64)
        for dimension in dimensions
    ]
    unit_sales = rng.integers(1, 1_000, size=n_tuples, dtype=np.int64)
    dollar_sales = unit_sales * rng.integers(5, 50, size=n_tuples, dtype=np.int64)
    aggregates = [("sum", 0), ("sum", 1)]
    if with_count:
        aggregates.append(("count", 0))
    schema = CubeSchema(
        dimensions, make_aggregates(*aggregates), n_measures=2
    )
    return schema, Table.from_columns(
        schema.fact_schema, columns + [unit_sales, dollar_sales]
    )
