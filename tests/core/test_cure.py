"""Unit and integration tests for the CURE executor itself."""

import pytest

from repro import CubeSchema, build_cube, flat_dimension, make_aggregates
from repro.core.variants import VARIANTS
from repro.datasets import generate_flat_dataset
from repro.lattice.plan import (
    FlatShape,
    HierarchicalShape,
    LevelsAsDimensionsShape,
)
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from repro.relational.aggregates import AggregateSpec, MedianAgg
from tests.support.rows import (
    aggregates_rows,
    cat_rows,
    nt_rows,
    rows_of,
    table_of,
    tt_rowids,
)


def cube_answers_match_reference(schema, table, storage):
    cache = FactCache(schema, table=table)
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, rows_of(table), node)
        got = normalize_answer(answer_cure_query(storage, cache, node))
        assert got == expected, node.label(schema.dimensions)


def test_every_node_correct_hierarchical(paper_schema):
    import random

    rng = random.Random(0)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5), rng.randrange(100))
        for _ in range(200)
    ]
    table = table_of(paper_schema.fact_schema, rows)
    result = build_cube(paper_schema, table=table)
    cube_answers_match_reference(paper_schema, table, result.storage)


def test_every_node_correct_flat(flat_schema, figure9_table):
    result = build_cube(flat_schema, table=figure9_table)
    cube_answers_match_reference(flat_schema, figure9_table, result.storage)


def test_empty_fact_table(paper_schema):
    result = build_cube(paper_schema, table=table_of(paper_schema.fact_schema, []))
    assert result.storage.nodes == {}


def test_single_tuple_fact_table(paper_schema):
    table = table_of(paper_schema.fact_schema, [(0, 0, 0, 5)])
    result = build_cube(paper_schema, table=table)
    # One TT at the root (∅): shared by the entire lattice.
    root_store = result.storage.get_node_store(
        paper_schema.node_id(paper_schema.lattice.all_node)
    )
    assert tt_rowids(root_store) == [0]
    assert result.stats.tt_written == 1
    cube_answers_match_reference(paper_schema, table, result.storage)


def test_duplicate_tuples_make_no_tts(flat_schema):
    rows = [(0, 0, 0, 5)] * 4
    table = table_of(flat_schema.fact_schema, rows)
    result = build_cube(flat_schema, table=table)
    assert result.stats.tt_written == 0
    cube_answers_match_reference(flat_schema, table, result.storage)


def test_iceberg_min_count(flat_schema):
    rows = [(0, 0, 0, 5)] * 3 + [(1, 1, 1, 7)]
    table = table_of(flat_schema.fact_schema, rows)
    result = build_cube(flat_schema, table=table, min_count=2)
    storage = result.storage
    # No TTs at all in an iceberg cube with min_count >= 2.
    assert all(not tt_rowids(s) for s in storage.nodes.values())
    # The triple-group survives everywhere; the singleton nowhere.
    total_rows = sum(
        len(nt_rows(s)) + len(cat_rows(s)) for s in storage.nodes.values()
    )
    assert total_rows == 8  # every node contains exactly the (0,0,0) group


def test_min_count_above_everything_builds_nothing(flat_schema, figure9_table):
    result = build_cube(flat_schema, table=figure9_table, min_count=100)
    assert result.storage.nodes == {}


def test_invalid_argument_combinations(flat_schema, figure9_table):
    with pytest.raises(ValueError, match="provide either"):
        build_cube(flat_schema)
    with pytest.raises(ValueError, match="provide either"):
        build_cube(flat_schema, table=figure9_table, engine=object(), relation="x")


def test_holistic_aggregate_rejected(figure9_table, flat_schema):
    schema = CubeSchema(
        flat_schema.dimensions, (AggregateSpec(MedianAgg(), 0),), 1
    )
    table = table_of(schema.fact_schema, rows_of(figure9_table))
    with pytest.raises(ValueError, match="distributive"):
        build_cube(schema, table=table)


def test_stats_counters_consistency(flat_schema, figure9_table):
    result = build_cube(flat_schema, table=figure9_table)
    stats = result.stats
    assert stats.nodes_aggregated == stats.signatures_emitted
    assert stats.tt_written == 15
    assert stats.elapsed_seconds > 0
    assert stats.sort.keys_sorted > 0
    assert not stats.partitioned


def test_shapes_cover_expected_node_counts(paper_schema):
    hierarchical = HierarchicalShape(paper_schema.lattice)
    assert hierarchical.entry_levels(0) == (2,)
    assert hierarchical.dashed_children(0, 2) == (1,)
    flat = FlatShape(paper_schema.lattice)
    assert flat.entry_levels(0) == (0,)
    assert flat.dashed_children(0, 0) == ()
    p2 = LevelsAsDimensionsShape(paper_schema.lattice)
    assert p2.entry_levels(0) == (2, 1, 0)
    assert p2.dashed_children(0, 1) == ()


def test_p2_shape_builds_identical_aggregated_content(paper_schema):
    """P2 traverses differently but produces the same non-trivial tuples.

    Whether a cube tuple is trivial is plan-independent (it depends only
    on its source group), so the per-node NT/CAT content must match; only
    TT *placement* (which plan sub-tree shares them) may differ, because
    P2's tree has different sub-trees.
    """
    import random

    rng = random.Random(4)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5), rng.randrange(50))
        for _ in range(80)
    ]
    table = table_of(paper_schema.fact_schema, rows)
    p3 = build_cube(paper_schema, table=table, pool_capacity=None)
    p2 = build_cube(
        paper_schema,
        table=table,
        pool_capacity=None,
        shape=LevelsAsDimensionsShape(paper_schema.lattice),
    )
    assert p3.stats.nodes_aggregated == p2.stats.nodes_aggregated

    def content(storage):
        per_node = {}
        for nid, store in storage.nodes.items():
            cats = []
            for row in cat_rows(store):
                if storage.cat_format.value == "a":
                    cats.append(tuple(aggregates_rows(storage)[row[0]]))
                else:
                    cats.append((row[0],) + tuple(aggregates_rows(storage)[row[1]]))
            per_node[nid] = (sorted(nt_rows(store)), sorted(cats))
        return {nid: v for nid, v in per_node.items() if v != ([], [])}

    assert content(p3.storage) == content(p2.storage)
    # Every fact tuple covered by some TT relation in both cubes.
    def tt_union(storage):
        rowids = set()
        for store in storage.nodes.values():
            rowids.update(tt_rowids(store))
        return rowids

    assert tt_union(p3.storage) == tt_union(p2.storage)


def test_fcure_flat_variant_covers_only_base_nodes(paper_schema):
    import random

    rng = random.Random(1)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5), rng.randrange(50))
        for _ in range(60)
    ]
    table = table_of(paper_schema.fact_schema, rows)
    result, _plus = VARIANTS["FCURE"].build(paper_schema, table=table)
    flat_ids = {
        paper_schema.node_id(node)
        for node in paper_schema.lattice.flat_nodes()
    }
    assert set(result.storage.nodes) <= flat_ids
    # Base-level queries still correct.
    cache = FactCache(paper_schema, table=table)
    for node in paper_schema.lattice.flat_nodes():
        expected = reference_group_by(paper_schema, rows_of(table), node)
        got = normalize_answer(answer_cure_query(result.storage, cache, node))
        assert got == expected


def test_bounded_pool_cube_still_correct(paper_schema):
    import random

    rng = random.Random(2)
    rows = [
        (rng.randrange(6), rng.randrange(4), rng.randrange(3), rng.randrange(10))
        for _ in range(150)
    ]
    table = table_of(paper_schema.fact_schema, rows)
    result = build_cube(paper_schema, table=table, pool_capacity=16)
    assert result.pool_stats.flushes > 1
    cube_answers_match_reference(paper_schema, table, result.storage)


def test_bounded_pool_never_smaller_cube(paper_schema):
    """A tiny pool may store more (missed CATs), never less."""
    import random

    rng = random.Random(3)
    rows = [
        (rng.randrange(6), rng.randrange(4), rng.randrange(3), rng.randrange(4))
        for _ in range(200)
    ]
    table = table_of(paper_schema.fact_schema, rows)
    small = build_cube(paper_schema, table=table, pool_capacity=8)
    unbounded = build_cube(paper_schema, table=table, pool_capacity=None)
    assert (
        small.storage.size_report().total_bytes
        >= unbounded.storage.size_report().total_bytes
    )


def test_larger_flat_dataset_matches_reference():
    schema, table = generate_flat_dataset(
        4, 400, zipf=1.0, seed=12, aggregates=(("sum", 0), ("count", 0))
    )
    result = build_cube(schema, table=table)
    cache = FactCache(schema, table=table)
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, rows_of(table), node)
        got = normalize_answer(answer_cure_query(result.storage, cache, node))
        assert got == expected
