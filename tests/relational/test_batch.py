"""Unit tests for the ColumnBatch columnar substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.relational.batch import NUMPY_DTYPES, ColumnBatch, column_dtype
from repro.relational.heap import HeapFile
from repro.relational.schema import Column, ColumnType, TableSchema
from tests.support.rows import append_rows, batch_of, rows_of, table_of

MIXED = TableSchema.of(
    "a", Column("b", ColumnType.INT64), Column("c", ColumnType.FLOAT64)
)
ROWS = [(1, 10, 0.5), (2, 20, 1.5), (1, 30, -2.0), (3, 40, 0.0)]


def test_empty_batch():
    batch = ColumnBatch.empty(MIXED)
    assert batch.length == 0
    assert len(batch) == 0
    assert [array.dtype for array in batch.arrays] == [
        np.dtype("<i4"),
        np.dtype("<i8"),
        np.dtype("<f8"),
    ]


def test_column_dtype_table_is_total():
    for column_type in ColumnType:
        assert column_dtype(column_type) is NUMPY_DTYPES[column_type]


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError, match="arity"):
        ColumnBatch(MIXED, (np.zeros(1, dtype=np.int32),), 1)


def test_length_mismatch_rejected():
    arrays = (
        np.zeros(2, dtype=np.int32),
        np.zeros(3, dtype=np.int64),
        np.zeros(2, dtype=np.float64),
    )
    with pytest.raises(ValueError, match="length"):
        ColumnBatch(MIXED, arrays, 2)


def test_column_by_name():
    batch = batch_of(MIXED, ROWS)
    assert batch.column("b").tolist() == [10, 20, 30, 40]


def test_filter_mask():
    batch = batch_of(MIXED, ROWS)
    mask = batch.column("a") == 1
    assert rows_of(batch.filter(mask)) == [ROWS[0], ROWS[2]]
    with pytest.raises(ValueError, match="mask"):
        batch.filter(np.ones(2, dtype=np.bool_))
    with pytest.raises(ValueError, match="mask"):
        batch.filter(np.ones(4, dtype=np.int64))


def test_take_and_slice():
    batch = batch_of(MIXED, ROWS)
    taken = batch.take(np.array([3, 0, 0], dtype=np.int64))
    assert rows_of(taken) == [ROWS[3], ROWS[0], ROWS[0]]
    assert rows_of(batch.slice(1, 3)) == ROWS[1:3]
    assert batch.slice(2, 2).length == 0


def test_concat():
    first = batch_of(MIXED, ROWS[:2])
    second = batch_of(MIXED, ROWS[2:])
    empty = ColumnBatch.empty(MIXED)
    combined = ColumnBatch.concat(MIXED, [first, empty, second])
    assert rows_of(combined) == ROWS
    assert ColumnBatch.concat(MIXED, [empty, empty]).length == 0
    assert ColumnBatch.concat(MIXED, [empty, first]) is first  # single run


def test_from_arrays_no_copy():
    values = np.asarray([1, 2, 3], dtype=np.int64)
    schema = TableSchema((Column("x", ColumnType.INT64),))
    batch = ColumnBatch.from_arrays(schema, (values,))
    assert batch.arrays[0] is values
    assert batch.length == 3


def test_table_as_batch_is_cached_columnar_view():
    table = table_of(MIXED, list(ROWS))
    first = table.as_batch()
    assert rows_of(first) == ROWS
    assert table.as_batch() is first  # the batch is the table, not a copy
    table.append_batch(first.slice(0, 1))
    assert rows_of(table.as_batch()) == ROWS + [ROWS[0]]


def test_table_append_batch():
    table = table_of(MIXED, list(ROWS[:1]))
    table.append_batch(batch_of(MIXED, ROWS[1:]))
    assert rows_of(table) == ROWS


def test_heapfile_read_batch_keeps_column_dtypes(tmp_path):
    with HeapFile(tmp_path / "t.dat", MIXED) as heap:
        append_rows(heap, ROWS)
        for sorted_hint in (False, True):
            batch = heap.read_batch([0, 2], sorted_hint=sorted_hint)
            assert rows_of(batch) == [ROWS[0], ROWS[2]]
            assert [array.dtype for array in batch.arrays] == [
                column_dtype(column.type) for column in MIXED.columns
            ]


def test_heapfile_batch_roundtrip(tmp_path):
    with HeapFile(tmp_path / "t.dat", MIXED) as heap:
        written = heap.append_batch(batch_of(MIXED, ROWS))
        assert written == len(ROWS)
        assert rows_of(heap) == ROWS
        chunks = list(heap.scan_batches(chunk_rows=3))
        assert [chunk.length for chunk in chunks] == [3, 1]
        assert [row for c in chunks for row in rows_of(c)] == ROWS
