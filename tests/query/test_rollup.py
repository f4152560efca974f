"""Unit tests for roll-up answering over flat cubes (Figure 28 machinery)."""

import random

import pytest

from paper.baselines import build_bubst_cube, build_buc_cube
from paper.baselines.query import answer_rollup_from_bubst, answer_rollup_from_buc
from repro import CubeSchema
from repro.core.variants import VARIANTS
from repro.lattice.node import CubeNode
from repro.query import (
    ColumnAnswer,
    CubePlanner,
    FactCache,
    QueryRequest,
    base_node_of,
    reference_group_by,
    rollup_base_answer,
)
from repro.query.answer import normalize_answer
from repro.relational.aggregates import AggregateSpec, MedianAgg
from tests.support.rows import rows_of, table_of


@pytest.fixture
def hierarchical_data(paper_schema):
    rng = random.Random(6)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5), rng.randrange(30))
        for _ in range(250)
    ]
    return paper_schema, table_of(paper_schema.fact_schema, rows)


def test_base_node_of(paper_schema):
    node = CubeNode((2, 2, 0))  # A2 × C0
    base = base_node_of(paper_schema, node)
    assert base.levels == (0, 2, 0)


def test_rollup_from_flat_matches_reference(hierarchical_data):
    schema, table = hierarchical_data
    result, _x = VARIANTS["FCURE"].build(schema, table=table)
    cache = FactCache(schema, table=table)
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, rows_of(table), node)
        got = normalize_answer(
            CubePlanner(result.storage, cache).answer(QueryRequest(node))
        )
        assert got == expected, node.label(schema.dimensions)


def test_rollup_from_buc_and_bubst_match_reference(hierarchical_data):
    schema, table = hierarchical_data
    buc, _s = build_buc_cube(schema, table)
    bubst, _s = build_bubst_cube(schema, table)
    sample = [
        CubeNode((2, 2, 1)),  # A2
        CubeNode((1, 1, 0)),  # A1 B1 C0
        CubeNode((3, 0, 1)),  # B0
        schema.lattice.all_node,
    ]
    for node in sample:
        expected = reference_group_by(schema, rows_of(table), node)
        assert normalize_answer(answer_rollup_from_buc(buc, node)) == expected
        assert normalize_answer(answer_rollup_from_bubst(bubst, node)) == expected


def test_base_level_query_passthrough(hierarchical_data):
    schema, table = hierarchical_data
    result, _x = VARIANTS["FCURE"].build(schema, table=table)
    cache = FactCache(schema, table=table)
    request = QueryRequest(CubeNode((0, 0, 0)))
    planner = CubePlanner(result.storage, cache)
    assert planner.plan(request).strategy == "direct"
    node = request.node
    direct = normalize_answer(planner.answer(request))
    assert direct == reference_group_by(schema, rows_of(table), node)


def test_rollup_rejects_holistic(paper_schema):
    schema = CubeSchema(
        paper_schema.dimensions, (AggregateSpec(MedianAgg(), 0),), 1
    )
    with pytest.raises(ValueError, match="distributive"):
        rollup_base_answer(
            schema, ColumnAnswer.empty(1, 1), CubeNode((1, 2, 1))
        )


def test_rollup_merges_groups(paper_schema):
    """Two base tuples in different cities of the same country merge."""
    a = paper_schema.dimensions[0]
    base = base_node_of(paper_schema, CubeNode((1, 2, 1)))
    # Two base answers with A codes that share a level-1 parent.
    code_x, code_y = 0, 1
    assert a.code_at(code_x, 1) == a.code_at(code_y, 1)
    base_answer = ColumnAnswer.from_pairs(
        [((code_x,), (10, 1)), ((code_y,), (5, 2))]
    )
    rolled = rollup_base_answer(
        paper_schema, base_answer, CubeNode((1, 2, 1))
    )
    assert rolled == [((a.code_at(code_x, 1),), (15, 3))]


def test_a_base_the_cache_cannot_hold_is_not_offered(paper_schema):
    """Over FCURE, roll-ups read their base-level answer through the
    result cache.  Under a byte budget below that base answer but above
    the rolled answers, each roll-up is admitted and the base is simply
    used: ``rejected`` counts no base offer, and every answer stays."""
    from repro.query.cache import ResultCache

    rng = random.Random(7)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5), rng.randrange(30))
        for _ in range(2000)
    ]
    table = table_of(paper_schema.fact_schema, rows)
    result, _x = VARIANTS["FCURE"].build(paper_schema, table=table)
    cache = FactCache(paper_schema, table=table)
    base = CubeNode((0, 0, 0))
    rolled = [CubeNode(levels) for levels in ((2, 1, 0), (2, 0, 0), (1, 1, 0))]
    uncached = CubePlanner(result.storage, cache, results=None)
    base_bytes = ResultCache.entry_bytes(uncached.answer(QueryRequest(base)))
    rolled_bytes = [
        ResultCache.entry_bytes(uncached.answer(QueryRequest(node)))
        for node in rolled
    ]
    assert sum(rolled_bytes) < base_bytes  # the budget below fits them all
    planner = CubePlanner(
        result.storage, cache, results=ResultCache(max_bytes=base_bytes - 1)
    )
    for node in rolled:
        planner.answer(QueryRequest(node))
    stats = planner.results.stats
    assert (stats.rejected, stats.misses) == (0, len(rolled))
    for node in rolled:
        key = planner.key(QueryRequest(node))
        assert planner.results.lookup(*key, record=False) is not None
