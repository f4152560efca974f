"""Unit tests for the cube query planner."""

import random

import pytest

from repro import build_cube
from repro.bundle import open_bundle, save_bundle
from repro.core.variants import VARIANTS
from repro.lattice.node import CubeNode
from repro.query import DimensionSlice, FactCache, reference_group_by
from repro.query.answer import normalize_answer
from repro.query.planner import CubePlanner, QueryRequest
from repro.relational.catalog import Catalog
from tests.support.rows import rows_of, table_of


@pytest.fixture
def data(paper_schema):
    rng = random.Random(21)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5),
         rng.randrange(20))
        for _ in range(300)
    ]
    return paper_schema, table_of(paper_schema.fact_schema, rows)


@pytest.fixture
def hierarchical_planner(data):
    schema, table = data
    result = build_cube(schema, table=table)
    return CubePlanner(result.storage, FactCache(schema, table=table))


@pytest.fixture
def flat_planner(data):
    schema, table = data
    result, _plus = VARIANTS["FCURE"].build(schema, table=table)
    return CubePlanner(result.storage, FactCache(schema, table=table))


def test_direct_strategy_on_complete_cube(hierarchical_planner, data):
    schema, table = data
    request = QueryRequest.of(CubeNode((1, 1, 0)))
    plan = hierarchical_planner.plan(request)
    assert plan.strategy == "direct"
    got = normalize_answer(hierarchical_planner.answer(request))
    assert got == reference_group_by(schema, rows_of(table), request.node)


def test_rollup_strategy_on_flat_cube(flat_planner, data):
    schema, table = data
    request = QueryRequest.of(CubeNode((2, 2, 1)))  # A2: hierarchical
    plan = flat_planner.plan(request)
    assert plan.strategy == "rollup"
    assert plan.source_node.levels == (0, 2, 1)
    got = normalize_answer(flat_planner.answer(request))
    assert got == reference_group_by(schema, rows_of(table), request.node)


def test_prefilter_strategy_with_slices(hierarchical_planner, data):
    schema, table = data
    request = QueryRequest.of(
        CubeNode((0, 2, 1)), DimensionSlice.of(0, 1, {0, 2})
    )
    plan = hierarchical_planner.plan(request)
    assert plan.strategy == "prefilter"
    got = normalize_answer(hierarchical_planner.answer(request))
    a = schema.dimensions[0]
    expected = [
        (dims, aggs)
        for dims, aggs in reference_group_by(schema, rows_of(table), request.node)
        if a.code_at(
            next(c for c in range(12) if a.code_at(c, 0) == dims[0]), 1
        ) in {0, 2}
    ]
    assert got == sorted(expected)


def test_slice_strategy_follows_the_fact_cache(data, tmp_path):
    """A slice pre-filters exactly when the cube stores row-ids and the
    fact cache holds the whole table, in memory or mapped; a DR cube and
    a heap-backed cache post-filter.  Every choice answers the same."""
    schema, table = data
    storage = build_cube(schema, table=table).storage
    dr_storage = build_cube(schema, table=table, dr_mode=True).storage
    request = QueryRequest.of(
        CubeNode((0, 2, 1)), DimensionSlice.of(0, 1, {1})
    )
    with open_bundle(
        save_bundle(tmp_path / "bundle", schema, table, storage)
    ) as bundle:
        heap = Catalog(bundle.root).open("fact")
        planners = {
            "prefilter": [
                CubePlanner(storage, FactCache(schema, table=table)),
                bundle.planner(),
            ],
            "postfilter": [
                CubePlanner(dr_storage, FactCache(schema, table=table)),
                CubePlanner(storage, FactCache(schema, heap=heap)),
                CubePlanner(
                    storage, FactCache(schema, heap=heap, fraction=0.5)
                ),
            ],
        }
        answers = set()
        for strategy, group in planners.items():
            for planner in group:
                assert planner.plan(request).strategy == strategy
                answers.add(tuple(normalize_answer(planner.answer(request))))
    assert len(answers) == 1 and answers != {()}


def test_rollup_with_slices(flat_planner, data):
    schema, table = data
    request = QueryRequest.of(
        CubeNode((1, 2, 1)),  # A1 — not materialized in the flat cube
        DimensionSlice.of(0, 2, {0}),
    )
    plan = flat_planner.plan(request)
    assert plan.strategy == "rollup"
    got = normalize_answer(flat_planner.answer(request))
    a = schema.dimensions[0]
    expected = []
    for dims, aggs in reference_group_by(schema, rows_of(table), request.node):
        base = next(c for c in range(12) if a.code_at(c, 1) == dims[0])
        if a.code_at(base, 2) == 0:
            expected.append((dims, aggs))
    assert got == sorted(expected)


def test_explain_mentions_strategy(hierarchical_planner):
    request = QueryRequest.of(CubeNode((0, 0, 0)))
    text = hierarchical_planner.explain(request)
    assert "direct" in text
    assert "stored tuples" in text


def test_estimated_tuples_counts_chain_tts(hierarchical_planner, data):
    schema, table = data
    request = QueryRequest.of(CubeNode((0, 0, 0)))
    plan = hierarchical_planner.plan(request)
    answer = hierarchical_planner.answer(request)
    # Estimated stored tuples bound the real answer from above (CATs and
    # NTs map one-to-one; TT chains may include rows for this node only).
    assert plan.estimated_tuples >= len(answer)
