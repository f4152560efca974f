"""Unit tests for iceberg count queries."""

import random

import pytest

from paper.baselines import build_bubst_cube, build_buc_cube
from paper.baselines.query import iceberg_over_bubst, iceberg_over_buc
from repro import CubeSchema, build_cube, flat_dimension, make_aggregates
from repro.lattice.node import CubeNode
from repro.query import (
    FactCache,
    QueryStats,
    iceberg_over_cure,
    reference_group_by,
)
from repro.query.answer import normalize_answer
from tests.support.rows import rows_of, table_of, tt_rowids


@pytest.fixture
def counted():
    # A skewed mix: a few hot combinations (surviving iceberg thresholds)
    # plus a sparse tail (producing TTs in the full cube).
    dims = (flat_dimension("A", 30), flat_dimension("B", 20))
    schema = CubeSchema(
        dims, make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )
    rng = random.Random(14)
    rows = [
        (rng.randrange(3), rng.randrange(2), rng.randrange(10))
        for _ in range(80)
    ] + [
        (rng.randrange(30), rng.randrange(20), rng.randrange(10))
        for _ in range(60)
    ]
    table = table_of(schema.fact_schema, rows)
    result = build_cube(schema, table=table)
    cache = FactCache(schema, table=table)
    return schema, table, result.storage, cache


def iceberg_reference(schema, rows, node, min_count):
    count_index = schema.count_aggregate_index()
    return [
        (dims, aggs)
        for dims, aggs in reference_group_by(schema, rows, node)
        if aggs[count_index] >= min_count
    ]


@pytest.mark.parametrize("min_count", [1, 2, 5, 20, 1000])
def test_cure_iceberg_matches_reference(counted, min_count):
    schema, table, storage, cache = counted
    for node in schema.lattice.nodes():
        expected = sorted(
            iceberg_reference(schema, rows_of(table), node, min_count)
        )
        got = normalize_answer(
            iceberg_over_cure(storage, cache, node, min_count)
        )
        assert got == expected


@pytest.mark.parametrize("min_count", [2, 5])
def test_buc_and_bubst_iceberg_match_reference(counted, min_count):
    schema, table, _storage, _cache = counted
    buc, _s = build_buc_cube(schema, table)
    bubst, _s = build_bubst_cube(schema, table)
    for node in schema.lattice.nodes():
        expected = sorted(
            iceberg_reference(schema, rows_of(table), node, min_count)
        )
        assert normalize_answer(iceberg_over_buc(buc, node, min_count)) == expected
        assert (
            normalize_answer(iceberg_over_bubst(bubst, node, min_count))
            == expected
        )


def test_cure_iceberg_skips_tt_relations(counted):
    """The Section 7 claim: TTs are never touched when min_count >= 2."""
    schema, table, storage, cache = counted
    total_tts = sum(len(tt_rowids(s)) for s in storage.nodes.values())
    assert total_tts > 0
    full_stats = QueryStats()
    iceberg_stats = QueryStats()
    for node in schema.lattice.nodes():
        from repro.query import answer_cure_query

        answer_cure_query(storage, cache, node, full_stats)
        iceberg_over_cure(storage, cache, node, 2, iceberg_stats)
    assert iceberg_stats.rows_scanned < full_stats.rows_scanned
    assert iceberg_stats.fact_fetches < full_stats.fact_fetches


def test_iceberg_requires_count_aggregate(flat_schema, figure9_table):
    result = build_cube(flat_schema, table=figure9_table)
    cache = FactCache(flat_schema, table=figure9_table)
    with pytest.raises(ValueError, match="COUNT aggregate"):
        iceberg_over_cure(result.storage, cache, CubeNode((0, 1, 1)), 2)


def test_iceberg_over_dr_cube(counted):
    schema, table, _storage, cache = counted
    dr = build_cube(schema, table=table, dr_mode=True)
    for node in schema.lattice.nodes():
        expected = sorted(iceberg_reference(schema, rows_of(table), node, 3))
        got = normalize_answer(iceberg_over_cure(dr.storage, cache, node, 3))
        assert got == expected
