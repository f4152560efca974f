"""Property-based tests: cube construction vs the naive reference.

The central invariant of the whole system — *every node of every cube
equals a naive group-by over the fact data* — is checked here over
hypothesis-generated schemas and fact tables, for CURE (hierarchical and
flat, bounded and unbounded pools), CURE+, CURE_DR, BUC and BU-BST.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from paper.baselines import build_bubst_cube, build_buc_cube
from paper.baselines.query import answer_bubst_query, answer_buc_query
from repro import CubeSchema, build_cube, linear_dimension, make_aggregates
from repro.core.postprocess import postprocess_plus
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from tests.support.rows import rows_of, table_of, tt_rowids


@st.composite
def cube_instances(draw):
    """A random small schema plus a fact table for it."""
    n_dims = draw(st.integers(1, 3))
    dimensions = []
    for d in range(n_dims):
        n_levels = draw(st.integers(1, 3))
        cards = sorted(
            draw(
                st.lists(
                    st.integers(1, 8), min_size=n_levels, max_size=n_levels
                )
            ),
            reverse=True,
        )
        levels = [(f"L{i}", cards[i]) for i in range(n_levels)]
        dimensions.append(linear_dimension(f"D{d}", levels))
    schema = CubeSchema(
        tuple(dimensions),
        make_aggregates(("sum", 0), ("count", 0), ("min", 0), ("max", 0)),
        n_measures=1,
    )
    n_rows = draw(st.integers(0, 40))
    rows = [
        tuple(
            draw(st.integers(0, dim.base_cardinality - 1))
            for dim in schema.dimensions
        )
        + (draw(st.integers(-50, 50)),)
        for _ in range(n_rows)
    ]
    return schema, table_of(schema.fact_schema, rows)


def assert_cube_matches_reference(schema, table, storage):
    cache = FactCache(schema, table=table)
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, rows_of(table), node)
        got = normalize_answer(answer_cure_query(storage, cache, node))
        assert got == expected, node.label(schema.dimensions)


@settings(max_examples=40, deadline=None)
@given(cube_instances())
def test_cure_equals_reference(instance):
    schema, table = instance
    result = build_cube(schema, table=table)
    assert_cube_matches_reference(schema, table, result.storage)


@settings(max_examples=25, deadline=None)
@given(cube_instances(), st.integers(1, 6))
def test_bounded_pool_equals_reference(instance, capacity):
    schema, table = instance
    result = build_cube(schema, table=table, pool_capacity=capacity)
    assert_cube_matches_reference(schema, table, result.storage)


@settings(max_examples=25, deadline=None)
@given(cube_instances())
def test_cure_plus_equals_reference(instance):
    schema, table = instance
    result = build_cube(schema, table=table)
    postprocess_plus(result.storage)
    assert_cube_matches_reference(schema, table, result.storage)


@settings(max_examples=25, deadline=None)
@given(cube_instances())
def test_dr_mode_equals_reference(instance):
    schema, table = instance
    result = build_cube(schema, table=table, dr_mode=True)
    assert_cube_matches_reference(schema, table, result.storage)


@settings(max_examples=25, deadline=None)
@given(cube_instances())
def test_baselines_equal_reference_on_flat_nodes(instance):
    schema, table = instance
    buc, _s = build_buc_cube(schema, table)
    bubst, _s = build_bubst_cube(schema, table)
    for node in schema.lattice.flat_nodes():
        expected = reference_group_by(schema, rows_of(table), node)
        assert normalize_answer(answer_buc_query(buc, node)) == expected
        assert normalize_answer(answer_bubst_query(bubst, node)) == expected


@settings(max_examples=25, deadline=None)
@given(cube_instances(), st.integers(2, 5))
def test_iceberg_cube_is_filtered_full_cube(instance, min_count):
    schema, table = instance
    iceberg = build_cube(schema, table=table, min_count=min_count)
    cache = FactCache(schema, table=table)
    count_index = schema.count_aggregate_index()
    for node in schema.lattice.nodes():
        expected = [
            (dims, aggs)
            for dims, aggs in reference_group_by(schema, rows_of(table), node)
            if aggs[count_index] >= min_count
        ]
        got = normalize_answer(
            answer_cure_query(iceberg.storage, cache, node)
        )
        assert got == sorted(expected)


@settings(max_examples=30, deadline=None)
@given(cube_instances())
def test_tt_written_at_most_once_per_node(instance):
    """No TT relation mentions the same rowid twice, and every TT rowid
    references a real fact tuple."""
    schema, table = instance
    result = build_cube(schema, table=table)
    for store in result.storage.nodes.values():
        assert len(tt_rowids(store)) == len(set(tt_rowids(store)))
        for rowid in tt_rowids(store):
            assert 0 <= rowid < len(table)
