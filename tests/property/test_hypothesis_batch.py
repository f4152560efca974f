"""Property: ``ColumnBatch`` transformations equal their row-wise meaning.

A batch is the columnar dual of a list of tuples, so every transformation
— ``filter``, ``project``, ``take``, ``slice``, and the heap's batch scan
— must give exactly the rows the obvious tuple-at-a-time loop gives, in
the same order, on randomized tables: mixed INT32 / INT64 / FLOAT64
schemas, duplicate keys, empty relations.

Float columns only ever hold multiples of 0.5 with small magnitude, so
equality is exact, not approximate.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.batch import ColumnBatch
from repro.relational.heap import HeapFile
from repro.relational.schema import Column, ColumnType, TableSchema
from repro.relational.table import Table
from tests.support.rows import append_rows, batch_of, rows_of, table_of

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
    return table_of(schema, rows)


def stable_order(batch: ColumnBatch, names: list[str]) -> np.ndarray:
    """The permutation a stable ascending sort on ``names`` applies."""
    return np.lexsort([batch.column(name) for name in reversed(names)])


@settings(max_examples=50, deadline=None)
@given(tables())
def test_table_scan_equivalence(table):
    rows = rows_of(table)
    batch = table.as_batch()
    assert rows_of(batch) == rows
    assert rows_of(batch_of(table.schema, rows)) == rows
    assert rows_of(Table.from_batch(batch)) == rows


@settings(max_examples=50, deadline=None)
@given(tables(), st.data())
def test_selection_equivalence(table, data):
    column = data.draw(st.sampled_from(table.schema.names))
    position = table.schema.position(column)
    threshold = data.draw(_VALUES[table.schema.column(column).type])
    batch = table.as_batch()
    for mask, keep in (
        (batch.column(column) > threshold, lambda v: v > threshold),
        (batch.column(column) == threshold, lambda v: v == threshold),
    ):
        assert rows_of(batch.filter(mask)) == [
            row for row in rows_of(table) if keep(row[position])
        ]


@settings(max_examples=100, deadline=None)
@given(tables(), st.data())
def test_order_by_equivalence(table, data):
    names = data.draw(
        st.lists(
            st.sampled_from(table.schema.names),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    positions = [table.schema.position(name) for name in names]
    batch = table.as_batch()
    # Both are stable sorts: exact order equality, ties included.
    assert rows_of(batch.take(stable_order(batch, names))) == sorted(
        rows_of(table), key=lambda row: tuple(row[p] for p in positions)
    )


@settings(max_examples=50, deadline=None)
@given(tables(), st.integers(0, 30))
def test_limit_equivalence(table, n):
    assert rows_of(table.as_batch().slice(0, n)) == rows_of(table)[:n]


@settings(max_examples=25, deadline=None)
@given(tables(), st.data())
def test_composed_pipeline_equivalence(table, data):
    """Stacked transformations stay equivalent end to end."""
    threshold = data.draw(_VALUES[table.schema.column("c0").type])
    names = list(table.schema.names)
    selected = table.as_batch().filter(table.as_batch().column("c0") <= threshold)
    ordered = selected.take(stable_order(selected, names))
    assert rows_of(ordered.slice(0, 10)) == sorted(
        row for row in rows_of(table) if row[0] <= threshold
    )[:10]


_heap_counter = itertools.count()


@settings(max_examples=25, deadline=None)
@given(tables(max_rows=40))
def test_heap_scan_equivalence(tmp_path_factory, table):
    root = tmp_path_factory.mktemp("heapscan")
    with HeapFile(root / f"h{next(_heap_counter)}.dat", table.schema) as heap:
        append_rows(heap, rows_of(table))
        scanned = [
            row
            for batch in heap.scan_batches(chunk_rows=7)
            for row in rows_of(batch)
        ]
        assert scanned == rows_of(heap) == rows_of(table)
