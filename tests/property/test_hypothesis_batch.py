"""Property: every operator's batch path equals its row reference path.

Each operator in :mod:`repro.relational.operators` executes vectorized
through ``batches()`` (the path ``__iter__`` bridges to) and keeps the
original tuple-at-a-time implementation as ``rows()``.  These properties
pit the two against each other on randomized tables — mixed INT32 /
INT64 / FLOAT64 schemas, duplicate keys, empty relations — and demand
identical output.  Order is compared exactly for every operator except
``HashAggregate``, whose batch path is documented to emit key order
while the row path emits first-seen order (both sides are sorted).

Float columns only ever hold multiples of 0.5 with small magnitude, so
sums are exactly representable and equality is exact, not approximate.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.heap import HeapFile
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
from repro.relational.batch import ColumnEquals, ColumnIn
from repro.relational.schema import Column, ColumnType, TableSchema
from repro.relational.table import Table

_VALUES = {
    ColumnType.INT32: st.integers(-5, 5),
    ColumnType.INT64: st.integers(-1000, 1000),
    ColumnType.FLOAT64: st.integers(-20, 20).map(lambda v: v / 2),
}


@st.composite
def tables(draw, max_arity: int = 4, max_rows: int = 25) -> Table:
    arity = draw(st.integers(1, max_arity))
    types = draw(
        st.lists(
            st.sampled_from(list(ColumnType)),
            min_size=arity,
            max_size=arity,
        )
    )
    schema = TableSchema(
        tuple(Column(f"c{i}", t) for i, t in enumerate(types))
    )
    row = st.tuples(*(_VALUES[t] for t in types))
    rows = draw(st.lists(row, min_size=0, max_size=max_rows))
    return Table(schema, rows)


def batch_rows(operator) -> list[tuple]:
    """The batch path's output, via the ``__iter__`` bridge."""
    return list(operator)


@settings(max_examples=50, deadline=None)
@given(tables())
def test_table_scan_equivalence(table):
    plan = TableScan(table)
    assert batch_rows(plan) == list(plan.rows())


@settings(max_examples=50, deadline=None)
@given(tables(), st.data())
def test_selection_equivalence(table, data):
    column = data.draw(st.sampled_from(table.schema.names))
    threshold = data.draw(_VALUES[table.schema.column(column).type])
    predicates = [
        lambda row: row[column] > threshold,  # row-wise callable
        ColumnEquals(column, threshold),  # vectorized mask
        ColumnIn.of("c0", data.draw(st.sets(st.integers(-5, 5)))),
    ]
    for predicate in predicates:
        plan = Selection(TableScan(table), predicate)
        assert batch_rows(plan) == list(plan.rows())


@settings(max_examples=50, deadline=None)
@given(tables(), st.data())
def test_projection_equivalence(table, data):
    names = data.draw(
        st.lists(
            st.sampled_from(table.schema.names), min_size=1, max_size=4
        ).filter(lambda ns: len(set(ns)) == len(ns))
    )
    plan = Projection(TableScan(table), names)
    assert batch_rows(plan) == list(plan.rows())
    assert plan.columns() == names


@settings(max_examples=100, deadline=None)
@given(tables(), st.data())
def test_hash_aggregate_equivalence(table, data):
    names = list(table.schema.names)
    group_by = data.draw(
        st.lists(st.sampled_from(names), max_size=2, unique=True)
    )
    aggregates = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["sum", "count", "min", "max"]),
                st.sampled_from(names),
            ),
            min_size=1,
            max_size=3,
            unique=True,  # duplicate pairs would collide on output names
        )
    )
    plan = HashAggregate(TableScan(table), group_by, aggregates)
    # Batch output arrives in key order, row output in first-seen order.
    assert sorted(batch_rows(plan)) == sorted(plan.rows())


def test_hash_aggregate_median_falls_back_to_rows():
    """Holistic aggregates take the reference path — including its
    refusal to merge partials across a group."""
    schema = TableSchema.of("k", "v")
    singletons = Table(schema, [(1, 10), (2, 20), (3, 30)])
    plan = HashAggregate(TableScan(singletons), ["k"], [("median", "v")])
    assert sorted(batch_rows(plan)) == sorted(plan.rows())

    clashing = Table(schema, [(1, 10), (1, 30)])
    for run in (
        lambda: batch_rows(
            HashAggregate(TableScan(clashing), ["k"], [("median", "v")])
        ),
        lambda: list(
            HashAggregate(TableScan(clashing), ["k"], [("median", "v")]).rows()
        ),
    ):
        with pytest.raises(TypeError, match="holistic"):
            run()


@settings(max_examples=100, deadline=None)
@given(tables(), st.booleans(), st.data())
def test_order_by_equivalence(table, descending, data):
    names = data.draw(
        st.lists(
            st.sampled_from(table.schema.names),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    plan = OrderBy(TableScan(table), names, descending=descending)
    # Both paths are stable sorts: exact order equality, ties included.
    assert batch_rows(plan) == list(plan.rows())


@settings(max_examples=50, deadline=None)
@given(tables(), st.integers(0, 30))
def test_limit_equivalence(table, n):
    plan = Limit(TableScan(table), n)
    assert batch_rows(plan) == list(plan.rows())


@settings(max_examples=100, deadline=None)
@given(tables(max_arity=3), tables(max_arity=3), st.data())
def test_hash_join_equivalence(left, right, data):
    left_on = data.draw(st.sampled_from(left.schema.names))
    right_on = data.draw(st.sampled_from(right.schema.names))
    plan = HashJoin(TableScan(left), TableScan(right), left_on, right_on)
    # Sort-merge output order matches the build/probe loop exactly.
    assert batch_rows(plan) == list(plan.rows())


@settings(max_examples=25, deadline=None)
@given(tables(), st.data())
def test_composed_pipeline_equivalence(table, data):
    """Stacked operators stay equivalent end to end."""
    threshold = data.draw(_VALUES[table.schema.column("c0").type])
    names = list(table.schema.names)
    plan_batch = Limit(
        OrderBy(
            Selection(TableScan(table), lambda row: row["c0"] <= threshold),
            names,
        ),
        10,
    )
    assert batch_rows(plan_batch) == list(plan_batch.rows())


_heap_counter = itertools.count()


@settings(max_examples=25, deadline=None)
@given(tables(max_rows=40))
def test_heap_scan_equivalence(tmp_path_factory, table):
    root = tmp_path_factory.mktemp("heapscan")
    with HeapFile(root / f"h{next(_heap_counter)}.dat", table.schema) as heap:
        heap.append_many(table.to_rows())
        plan = HeapScan(heap)
        assert batch_rows(plan) == list(plan.rows()) == table.to_rows()
