"""Quickstart: build a CURE cube over a tiny sales table and query it.

Run with::

    python examples/quickstart.py

Walks through the full public API surface in ~60 lines: define dimensions
(one with a hierarchy), describe the cube schema, construct the cube,
inspect the redundancy-free storage, and answer node queries.
"""

from repro import (
    CubeSchema,
    Table,
    build_cube,
    flat_dimension,
    linear_dimension,
    make_aggregates,
)
from repro.lattice.node import CubeNode
from repro.query import FactCache, answer_cure_query


def main() -> None:
    # Region has a 2-level hierarchy: 6 cities roll up into 3 countries.
    region = linear_dimension(
        "Region",
        [("City", 6), ("Country", 3)],
        parent_maps=[[0, 0, 1, 1, 2, 2]],
        member_names=[
            ["Athens", "Patras", "Paris", "Lyon", "Seoul", "Busan"],
            ["Greece", "France", "Korea"],
        ],
    )
    product = flat_dimension("Product", 4)
    schema = CubeSchema(
        dimensions=(region, product),
        aggregates=make_aggregates(("sum", 0), ("count", 0)),
        n_measures=1,
    )

    # Fact columns: city codes, product codes, amounts (one row each).
    fact = Table.from_columns(
        schema.fact_schema,
        [
            [0, 0, 1, 2, 3, 4, 5, 5],
            [0, 1, 0, 2, 2, 3, 3, 0],
            [120, 80, 50, 200, 75, 60, 90, 30],
        ],
    )

    result = build_cube(schema, table=fact)
    storage = result.storage
    print("--- cube storage ---")
    print(storage.describe())
    print()

    cache = FactCache(schema, table=fact)

    # Query the Country × ALL node: sales per country.
    country_node = CubeNode((region.level_index("Country"), product.all_level))
    print("--- sales per Country ---")
    for dims, aggregates in sorted(answer_cure_query(storage, cache, country_node)):
        name = region.member_name(region.level_index("Country"), dims[0])
        print(f"{name:8s} sum={aggregates[0]:4d} count={aggregates[1]}")
    print()

    # Drill down: City × Product.
    base_node = CubeNode((0, 0))
    print("--- sales per City × Product ---")
    for dims, aggregates in sorted(answer_cure_query(storage, cache, base_node)):
        city = region.member_name(0, dims[0])
        print(f"{city:8s} product={dims[1]} sum={aggregates[0]:4d}")


if __name__ == "__main__":
    main()
