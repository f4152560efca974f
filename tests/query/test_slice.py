"""Unit tests for sliced (selective) node queries."""

import random

import pytest

from repro import build_cube
from repro.core.postprocess import postprocess_plus
from repro.lattice.node import CubeNode
from repro.query import (
    DimensionSlice,
    FactCache,
    QueryStats,
    answer_cure_query,
    answer_cure_sliced,
    prefilters,
    reference_group_by,
)
from repro.query.answer import normalize_answer
from tests.query.test_batch_execution import post_filtered
from tests.support.rows import rows_of, table_of


@pytest.fixture
def built(paper_schema):
    rng = random.Random(17)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5), rng.randrange(40))
        for _ in range(300)
    ]
    table = table_of(paper_schema.fact_schema, rows)
    result = build_cube(paper_schema, table=table)
    cache = FactCache(paper_schema, table=table)
    return paper_schema, table, result.storage, cache


def sliced_reference(schema, rows, node, slices):
    full = reference_group_by(schema, rows, node)
    grouping = node.grouping_dims(schema.dimensions)
    position_of = {dim: i for i, dim in enumerate(grouping)}
    kept = []
    for dims, aggs in full:
        ok = True
        for item in slices:
            dimension = schema.dimensions[item.dim]
            # Roll the node-level code to the slice level via a base rep.
            node_level = node.levels[item.dim]
            code = dims[position_of[item.dim]]
            for base in range(dimension.base_cardinality):
                if dimension.code_at(base, node_level) == code:
                    rolled = dimension.code_at(base, item.level)
                    break
            if rolled not in item.members:
                ok = False
                break
        if ok:
            kept.append((dims, aggs))
    return kept


CASES = [
    # (node levels, slices)
    ((0, 0, 0), [DimensionSlice.of(0, 1, {0, 2})]),
    ((0, 0, 0), [DimensionSlice.of(0, 0, {1, 2, 3})]),
    ((1, 0, 1), [DimensionSlice.of(0, 2, {0})]),
    ((0, 1, 0), [DimensionSlice.of(0, 1, {1}), DimensionSlice.of(2, 0, {0, 1})]),
    ((2, 2, 0), [DimensionSlice.of(2, 0, {2, 4})]),
]


@pytest.mark.parametrize("levels,slices", CASES)
def test_postfiltered_matches_reference(built, levels, slices):
    schema, table, storage, cache = built
    node = CubeNode(levels)
    expected = sorted(sliced_reference(schema, rows_of(table), node, slices))
    got = normalize_answer(post_filtered(storage, cache, node, slices))
    assert got == expected


@pytest.mark.parametrize("levels,slices", CASES)
def test_prefiltered_matches_reference(built, levels, slices):
    schema, table, storage, cache = built
    assert prefilters(storage, cache)
    node = CubeNode(levels)
    expected = sorted(sliced_reference(schema, rows_of(table), node, slices))
    got = normalize_answer(answer_cure_sliced(storage, cache, node, slices))
    assert got == expected


def test_prefiltered_saves_fact_fetches(built):
    schema, table, storage, cache = built
    node = CubeNode((0, 0, 0))
    slices = [DimensionSlice.of(0, 2, {0})]  # one of 3 top members
    naive, prefiltered = QueryStats(), QueryStats()
    post_filtered(storage, cache, node, slices, naive)
    answer_cure_sliced(storage, cache, node, slices, prefiltered)
    assert prefiltered.rows_scanned == naive.rows_scanned
    assert prefiltered.fact_fetches < naive.fact_fetches
    assert prefiltered.tuples_returned == len(
        sliced_reference(schema, rows_of(table), node, slices)
    )


def test_empty_slices_degrades_to_plain_query(built):
    schema, table, storage, cache = built
    node = CubeNode((1, 1, 0))
    full = normalize_answer(answer_cure_query(storage, cache, node))
    sliced = normalize_answer(answer_cure_sliced(storage, cache, node, []))
    assert full == sliced


def test_slice_on_all_dimension_rejected(built):
    schema, _table, storage, cache = built
    node = CubeNode((0, 2, 1))  # B and C... C at ALL
    with pytest.raises(ValueError, match="at ALL"):
        answer_cure_sliced(storage, cache, node, [DimensionSlice.of(2, 0, {0})])


def test_slice_level_must_roll_up(built):
    schema, _table, storage, cache = built
    node = CubeNode((1, 2, 1))  # A at level 1
    with pytest.raises(ValueError, match="not a roll-up"):
        answer_cure_sliced(storage, cache, node, [DimensionSlice.of(0, 0, {0})])


def test_sliced_over_plus_cube(built):
    schema, table, storage, cache = built
    postprocess_plus(storage)
    node = CubeNode((0, 0, 1))
    slices = [DimensionSlice.of(1, 1, {0, 3})]
    expected = sorted(sliced_reference(schema, rows_of(table), node, slices))
    got = normalize_answer(answer_cure_sliced(storage, cache, node, slices))
    assert got == expected


def test_dr_cube_requires_postfiltering(built, paper_schema):
    schema, table, _storage, cache = built
    dr = build_cube(schema, table=table, dr_mode=True)
    assert not prefilters(dr.storage, cache)
    node = CubeNode((0, 0, 0))
    slices = [DimensionSlice.of(0, 1, {0})]
    expected = sorted(sliced_reference(schema, rows_of(table), node, slices))
    stats = QueryStats()
    got = normalize_answer(
        answer_cure_sliced(dr.storage, cache, node, slices, stats)
    )
    assert got == expected
    # Post-filtered: the whole node was answered, then masked.
    assert stats.tuples_returned == len(
        answer_cure_query(dr.storage, cache, node)
    )
