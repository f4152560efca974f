"""Property tests for the query layer: slices and roll-ups."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import CubeSchema, build_cube, linear_dimension, make_aggregates
from repro.query import (
    DimensionSlice,
    FactCache,
    answer_cure_sliced,
    prefilters,
    reference_group_by,
)
from repro.query.answer import normalize_answer
from repro.query.planner import CubePlanner, QueryRequest
from tests.query.test_batch_execution import check_slice
from tests.support.rows import table_of


def small_schema() -> CubeSchema:
    a = linear_dimension("A", [("A0", 6), ("A1", 3), ("A2", 2)])
    b = linear_dimension("B", [("B0", 4)])
    return CubeSchema(
        (a, b), make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )


SCHEMA = small_schema()

rows = st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(-9, 9))


@st.composite
def sliced_cases(draw):
    fact_rows = draw(st.lists(rows, min_size=1, max_size=30))
    node_id = draw(st.integers(0, SCHEMA.enumerator.n_nodes - 1))
    node = SCHEMA.decode_node(node_id)
    grouping = node.grouping_dims(SCHEMA.dimensions)
    slices = []
    for dim in grouping:
        if not draw(st.booleans()):
            continue
        dimension = SCHEMA.dimensions[dim]
        level = draw(
            st.integers(node.levels[dim], dimension.n_levels - 1)
        )
        cardinality = dimension.cardinality(level)
        members = draw(
            st.sets(
                st.integers(0, cardinality - 1), min_size=1,
                max_size=cardinality,
            )
        )
        slices.append(DimensionSlice.of(dim, level, members))
    return fact_rows, node, slices


def reference_sliced(fact_rows, node, slices):
    full = reference_group_by(SCHEMA, fact_rows, node)
    grouping = node.grouping_dims(SCHEMA.dimensions)
    position_of = {dim: i for i, dim in enumerate(grouping)}
    kept = []
    for dims, aggs in full:
        ok = True
        for item in slices:
            dimension = SCHEMA.dimensions[item.dim]
            code = dims[position_of[item.dim]]
            base = next(
                c
                for c in range(dimension.base_cardinality)
                if dimension.code_at(c, node.levels[item.dim]) == code
            )
            if dimension.code_at(base, item.level) not in item.members:
                ok = False
                break
        if ok:
            kept.append((dims, aggs))
    return sorted(kept)


@settings(max_examples=50, deadline=None)
@given(sliced_cases())
def test_sliced_answers_match_reference_both_paths(case):
    """The pre-filter and the post-filter each match the row-engine
    oracle's same path (answers and work counters) and the reference;
    a DR cube post-filters to the same answer."""
    fact_rows, node, slices = case
    table = table_of(SCHEMA.fact_schema, list(fact_rows))
    cache = FactCache(SCHEMA, table=table)
    expected = reference_sliced(fact_rows, node, slices)
    storage = build_cube(SCHEMA, table=table).storage
    assert prefilters(storage, cache)
    check_slice(storage, cache, node, slices)
    pre = normalize_answer(answer_cure_sliced(storage, cache, node, slices))
    assert pre == expected
    dr = build_cube(SCHEMA, table=table, dr_mode=True).storage
    post = normalize_answer(answer_cure_sliced(dr, cache, node, slices))
    assert post == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(rows, min_size=1, max_size=30), st.integers(0, 23))
def test_planner_always_matches_reference(fact_rows, node_id):
    node = SCHEMA.decode_node(node_id % SCHEMA.enumerator.n_nodes)
    table = table_of(SCHEMA.fact_schema, list(fact_rows))
    result = build_cube(SCHEMA, table=table)
    planner = CubePlanner(result.storage, FactCache(SCHEMA, table=table))
    got = normalize_answer(planner.answer(QueryRequest.of(node)))
    assert got == reference_group_by(SCHEMA, fact_rows, node)
