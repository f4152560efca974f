"""Unit tests for the Volcano-style operator layer."""

import pytest

from repro.relational.operators import (
    HashAggregate,
    HashJoin,
    HeapScan,
    Limit,
    OrderBy,
    Projection,
    Selection,
    TableScan,
)
from repro.relational.schema import TableSchema
from repro.relational.table import Table
from tests.support.rows import aggregates_rows


@pytest.fixture
def sales() -> Table:
    schema = TableSchema.of("region", "product", "amount")
    return Table(
        schema,
        [
            (0, 0, 100),
            (0, 1, 50),
            (1, 0, 75),
            (1, 1, 25),
            (0, 0, 60),
        ],
    )


def test_table_scan(sales):
    scan = TableScan(sales)
    assert scan.columns() == ["region", "product", "amount"]
    assert list(scan) == sales.to_rows()


def test_heap_scan(tmp_path, sales):
    from repro.relational.heap import HeapFile

    heap = HeapFile(tmp_path / "s.dat", sales.schema)
    heap.append_many(sales.to_rows())
    scan = HeapScan(heap)
    assert list(scan) == sales.to_rows()
    heap.close()


def test_selection(sales):
    plan = Selection(TableScan(sales), lambda row: row["region"] == 0)
    assert list(plan) == [(0, 0, 100), (0, 1, 50), (0, 0, 60)]


def test_projection(sales):
    plan = Projection(TableScan(sales), ["amount", "region"])
    assert plan.columns() == ["amount", "region"]
    assert list(plan)[0] == (100, 0)


def test_projection_unknown_column(sales):
    with pytest.raises(KeyError, match="unknown columns"):
        Projection(TableScan(sales), ["ghost"])


def test_hash_aggregate_group_by(sales):
    plan = HashAggregate(
        TableScan(sales),
        group_by=["region"],
        aggregates=[("sum", "amount"), ("count", "amount")],
    )
    assert plan.columns() == ["region", "sum_amount", "count_amount"]
    assert sorted(plan) == [(0, 210, 3), (1, 100, 2)]


def test_hash_aggregate_no_groups(sales):
    plan = HashAggregate(
        TableScan(sales), group_by=[], aggregates=[("max", "amount")]
    )
    assert list(plan) == [(100,)]


def test_hash_aggregate_unknown_column(sales):
    with pytest.raises(KeyError):
        HashAggregate(TableScan(sales), ["ghost"], [("sum", "amount")])


def test_order_by_and_limit(sales):
    plan = Limit(
        OrderBy(TableScan(sales), ["amount"], descending=True), 2
    )
    assert list(plan) == [(0, 0, 100), (1, 0, 75)]


def test_limit_validation(sales):
    with pytest.raises(ValueError):
        Limit(TableScan(sales), -1)


def test_hash_join(sales):
    names = Table(TableSchema.of("rid", "code"), [(0, 10), (1, 11)])
    plan = HashJoin(TableScan(names), TableScan(sales), "rid", "region")
    rows = list(plan)
    assert len(rows) == 5
    assert all(row[0] == row[2] for row in rows)  # rid == region


def test_pipeline_composition_over_cube_relation(tmp_path):
    """Cube relations persisted by CURE are ordinary relations: scan the
    AGGREGATES relation with the operator layer."""
    from repro import build_cube
    from repro.datasets import generate_flat_dataset
    from repro.relational.catalog import Catalog

    schema, fact = generate_flat_dataset(
        3, 200, zipf=1.2, seed=2, aggregates=(("sum", 0), ("count", 0))
    )
    result = build_cube(schema, table=fact)
    catalog = Catalog(tmp_path / "cube")
    result.storage.persist(catalog, prefix="c")
    agg_heap = catalog.open("c.aggregates")
    plan = HashAggregate(
        HeapScan(agg_heap),
        group_by=[],
        aggregates=[("count", agg_heap.schema.names[0])],
    )
    [(count,)] = list(plan)
    assert count == len(aggregates_rows(result.storage))
    catalog.close()


def test_to_table(sales):
    table = Selection(TableScan(sales), lambda r: r["amount"] > 70).to_table()
    assert len(table) == 2
    assert table.schema.names == ("region", "product", "amount")
