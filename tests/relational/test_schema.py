"""Unit tests for TableSchema and Column."""

import numpy as np
import pytest

from repro.relational.schema import Column, ColumnType, TableSchema


def test_schema_of_bare_names_defaults_to_int32():
    schema = TableSchema.of("a", "b")
    assert schema.names == ("a", "b")
    assert all(c.type is ColumnType.INT32 for c in schema.columns)


def test_schema_mixes_explicit_columns_and_names():
    schema = TableSchema.of("a", Column("m", ColumnType.INT64))
    assert schema.column("m").type is ColumnType.INT64
    assert schema.column("a").type is ColumnType.INT32


def test_duplicate_column_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        TableSchema.of("a", "a")


def test_position_and_unknown_column():
    schema = TableSchema.of("a", "b", "c")
    assert schema.position("b") == 1
    with pytest.raises(KeyError, match="no column 'z'"):
        schema.position("z")


def test_numpy_dtype_and_row_size():
    schema = TableSchema.of(
        Column("a", ColumnType.INT32),
        Column("b", ColumnType.INT64),
        Column("c", ColumnType.FLOAT64),
    )
    assert schema.numpy_dtype == np.dtype([("a", "<i4"), ("b", "<i8"), ("c", "<f8")])
    assert schema.row_size_bytes == schema.numpy_dtype.itemsize == 4 + 8 + 8


def test_validate_row_arity():
    schema = TableSchema.of("a", "b")
    schema.validate_row((1, 2))
    with pytest.raises(ValueError, match="arity"):
        schema.validate_row((1, 2, 3))


def test_column_type_sizes():
    assert ColumnType.INT32.size_bytes == 4
    assert ColumnType.INT64.size_bytes == 8
    assert ColumnType.FLOAT64.size_bytes == 8
