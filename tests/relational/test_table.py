"""Unit tests for the in-memory Table."""

import numpy as np
import pytest

from repro.relational.batch import ColumnBatch
from repro.relational.schema import Column, ColumnType, TableSchema
from repro.relational.table import Table
from tests.support.rows import rows_of, table_of


@pytest.fixture
def table() -> Table:
    schema = TableSchema.of("a", "b")
    return table_of(schema, [(1, 10), (2, 20), (3, 30)])


def test_len_iter_getitem(table):
    assert len(table) == 3
    # Columns only: a table neither iterates nor indexes as tuples.
    with pytest.raises(TypeError):
        iter(table)
    with pytest.raises(TypeError):
        table[1]


def test_size_bytes(table):
    assert table.size_bytes == 3 * table.schema.row_size_bytes


def test_columns_are_the_only_representation(table):
    for tuple_api in ("rows", "to_rows", "append", "extend"):
        assert not hasattr(table, tuple_api)
    batch = table.as_batch()
    assert [array.tolist() for array in batch.arrays] == [[1, 2, 3], [10, 20, 30]]


def test_from_batch_shares_columns():
    schema = TableSchema((Column("k"), Column("v", ColumnType.INT64)))
    keys = np.array([5, 6], dtype=np.int32)
    values = np.array([50, 60], dtype=np.int64)
    table = Table.from_batch(ColumnBatch.from_arrays(schema, [keys, values]))
    assert table.as_batch().arrays[0] is keys
    assert table.as_batch().arrays[1] is values


def test_appends_are_chunks_concatenated_on_first_read():
    schema = TableSchema((Column("k"), Column("v", ColumnType.INT64)))
    table = table_of(schema, [(1, 10)])
    # Wider columns than the schema's are cast on the way in.
    table.append_batch(
        ColumnBatch.from_arrays(
            schema,
            [np.array([2, 3], dtype=np.int64), np.array([20, 30], dtype=np.int64)],
        )
    )
    table.append_batch(table_of(schema, [(4, 40)]).as_batch())
    assert len(table) == 4
    merged = table.as_batch()
    assert [a.dtype for a in merged.arrays] == [np.dtype("<i4"), np.dtype("<i8")]
    assert rows_of(merged) == [(1, 10), (2, 20), (3, 30), (4, 40)]
    assert table.as_batch() is merged
    with pytest.raises(ValueError, match="schema"):
        table.append_batch(ColumnBatch.empty(TableSchema.of("x", "y")))


def test_empty_table():
    table = Table(TableSchema.of("a", "b"))
    assert len(table) == 0
    assert rows_of(table) == []
    assert table.as_batch().length == 0
