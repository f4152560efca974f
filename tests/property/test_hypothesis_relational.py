"""Property-based tests for the relational substrate."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.relational.heap import HeapFile
from repro.relational.schema import Column, ColumnType, TableSchema
from tests.support.rows import append_rows, rows_of


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-2**31, 2**31 - 1), st.integers(-2**62, 2**62)),
        max_size=50,
    )
)
def test_heap_file_roundtrip(tmp_path_factory, rows):
    schema = TableSchema.of("a", Column("b", ColumnType.INT64))
    path = tmp_path_factory.mktemp("heap") / "t.dat"
    with HeapFile(path, schema) as heap:
        append_rows(heap, rows)
        assert rows_of(heap) == rows
        for rowid, row in enumerate(rows):
            assert rows_of(heap.read_batch([rowid])) == [row]
        everything = list(range(len(rows)))
        assert rows_of(heap.read_batch(everything, sorted_hint=True)) == rows
        assert rows_of(heap.read_batch(everything[::-1])) == rows[::-1]
