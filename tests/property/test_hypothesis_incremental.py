"""Property test: incremental updates are query-equivalent to rebuilds."""

from __future__ import annotations

from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import CubeSchema, linear_dimension, make_aggregates
from repro.core.cure import build_cube
from repro.core.incremental import apply_delta
from repro.core.postprocess import PlusReport, postprocess_plus
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from tests.support.rows import rows_of, table_of, tt_rowids


def small_schema() -> CubeSchema:
    a = linear_dimension("A", [("A0", 6), ("A1", 2)])
    b = linear_dimension("B", [("B0", 4)])
    return CubeSchema(
        (a, b), make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )


SCHEMA = small_schema()

rows = st.tuples(
    st.integers(0, 5), st.integers(0, 3), st.integers(-9, 9)
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(rows, max_size=25),
    st.lists(st.lists(rows, min_size=1, max_size=8), max_size=3),
)
def test_update_rounds_equal_rebuild(base_rows, delta_batches):
    table = table_of(SCHEMA.fact_schema, list(base_rows))
    result = build_cube(SCHEMA, table=table)
    for batch in delta_batches:
        apply_delta(result.storage, SCHEMA, table, list(batch))
    cache = FactCache(SCHEMA, table=table)
    for node in SCHEMA.lattice.nodes():
        expected = reference_group_by(SCHEMA, rows_of(table), node)
        got = normalize_answer(answer_cure_query(result.storage, cache, node))
        assert got == expected, node.label(SCHEMA.dimensions)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(rows, min_size=4, max_size=30),
    st.lists(st.lists(rows, min_size=1, max_size=8), min_size=1, max_size=3),
)
def test_plus_update_rounds_equal_rebuild(base_rows, delta_batches):
    """Maintenance of a CURE+ cube keeps the plus property with no
    re-run of ``postprocess_plus`` (which then sorts nothing) and stays
    query-equivalent to a from-scratch rebuild after every batch."""
    table = table_of(SCHEMA.fact_schema, list(base_rows))
    result = build_cube(SCHEMA, table=table)
    postprocess_plus(result.storage)
    for batch in delta_batches:
        apply_delta(result.storage, SCHEMA, table, list(batch))
        assert result.storage.plus_processed
        assert postprocess_plus(result.storage) == PlusReport(
            elapsed_seconds=mock.ANY
        )
    cache = FactCache(SCHEMA, table=table)
    for node in SCHEMA.lattice.nodes():
        expected = reference_group_by(SCHEMA, rows_of(table), node)
        got = normalize_answer(answer_cure_query(result.storage, cache, node))
        assert got == expected, node.label(SCHEMA.dimensions)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(rows, min_size=1, max_size=20),
    st.lists(rows, min_size=1, max_size=10),
)
def test_no_tt_rowid_duplicated_after_update(base_rows, delta_rows):
    """TT relations stay duplicate-free and within fact bounds."""
    table = table_of(SCHEMA.fact_schema, list(base_rows))
    result = build_cube(SCHEMA, table=table)
    apply_delta(result.storage, SCHEMA, table, list(delta_rows))
    for store in result.storage.nodes.values():
        assert len(tt_rowids(store)) == len(set(tt_rowids(store)))
        for rowid in tt_rowids(store):
            assert 0 <= rowid < len(table)
