"""The built↔mapped differential: the container must change *no* byte.

Every comparison runs the same cube two ways — in memory, as the build
returned it, and through the mapped ``cube.v2`` container ``save_bundle``
published — and renders both answers through the canonical encoder.  Node scans,
slices, rollups and iceberg queries, across CURE, CURE+ and FCURE, over
the library *and* over HTTP — and through the tuple-at-a-time oracle
(``tests/support/row_engine.py``), whose row fetches gather from the
mapped container's fact columns — all have to produce identical bytes
for the v2 format to be considered a pure storage change.  A mapped cube
is also what a restarting writer maintains, after its file is gone.
"""

from __future__ import annotations

import pytest

from repro.core.incremental import apply_delta
from repro.core.postprocess import postprocess_plus
from repro.core.variants import VARIANTS
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from repro.query.planner import QueryRequest
from repro.query.workload import mixed_workload
from repro.relational.table import Table
from repro.server.app import SlicerApp
from repro.server.encoding import encode_answer
from repro.server.replay import op_path, replay_op
from repro.storage2 import open_v2, write_v2
from tests.server.conftest import (
    SERVED_VARIANTS,
    heap_planner,
    serving_fact,
    serving_schema,
    wsgi_get,
)
from tests.support import row_engine
from tests.support.reference_encoding import reference_encode_op
from tests.support.rows import rows_of


@pytest.mark.parametrize("variant", SERVED_VARIANTS)
def test_every_node_answer_is_byte_identical(variant, dual_bundles):
    built, v2 = dual_bundles[variant]
    schema = built.schema
    p1, p2 = built.planner(), v2.planner()
    for node in schema.lattice.nodes():
        body1 = encode_answer(
            schema, node, p1.answer(QueryRequest.of(node)), kind="node"
        )
        body2 = encode_answer(
            schema, node, p2.answer(QueryRequest.of(node)), kind="node"
        )
        assert body1 == body2, node.label(schema.dimensions)


@pytest.mark.parametrize("variant", SERVED_VARIANTS)
def test_mixed_workload_is_byte_identical(variant, dual_bundles):
    # Slices, rollups and iceberg ops, through fresh planners on each
    # side so no result cache can mask a storage difference.
    built, v2 = dual_bundles[variant]
    p1, p2 = built.planner(), v2.planner()
    for op in mixed_workload(built.schema, 80, seed=23):
        assert replay_op(p1, op) == replay_op(p2, op), op


def test_row_mode_is_byte_identical(dual_bundles):
    # The row-engine oracle over each backend, through the reference
    # encoder: built, mapped and heap-backed (whose slices post-filter)
    # must agree with each other and with the columnar engine over each.
    built, v2 = dual_bundles["CURE+"]
    schema = built.schema
    planners = (built.planner(), v2.planner(), heap_planner(v2))
    for op in mixed_workload(schema, 30, seed=29):
        bodies = {
            reference_encode_op(schema, op, row_engine.execute_op(p, op))
            for p in planners
        }
        bodies.update(replay_op(p, op) for p in planners)
        assert len(bodies) == 1, op


@pytest.mark.parametrize("variant", SERVED_VARIANTS)
def test_http_over_v2_matches_v1_library(variant, dual_bundles):
    # The full serving stack on top of a mapped bundle against an
    # in-process replay over the built cube: routing, parsing, strategy
    # choice and JSON rendering must all agree with the library answers.
    built, v2 = dual_bundles[variant]
    app = SlicerApp(v2)
    reference = built.planner()
    for op in mixed_workload(built.schema, 40, seed=31):
        status, body = wsgi_get(app, op_path(built.schema, op))
        assert status == "200 OK", body
        assert body == replay_op(reference, op), op


def test_prefilter_and_postfilter_strategies_agree(dual_bundles):
    # The mapped planner pre-filters stored row-ids against the mapped
    # fact columns; over the bundle's fact heap the same requests take
    # the postfilter path.  Both must match the built cube's answers
    # byte for byte.
    for built, v2 in dual_bundles.values():
        reference = built.planner()
        prefilter, postfilter = v2.planner(), heap_planner(v2)
        ops = [
            op
            for op in mixed_workload(built.schema, 60, seed=37)
            if op.kind == "slice"
        ]
        assert ops, "workload produced no slice ops"
        for op in ops:
            request = QueryRequest(op.node, tuple(op.slices))
            strategies = (
                prefilter.plan(request).strategy,
                postfilter.plan(request).strategy,
            )
            # An FCURE cube rolls a hierarchical node up from its base.
            assert strategies in (
                ("prefilter", "postfilter"), ("rollup", "rollup")
            ), op
            expected = replay_op(reference, op)
            assert replay_op(prefilter, op) == expected, op
            assert replay_op(postfilter, op) == expected, op


def test_fact_row_count_and_metadata_agree(dual_bundles):
    for variant in SERVED_VARIANTS:
        built, v2 = dual_bundles[variant]
        assert v2.fact_row_count == built.fact_row_count
        assert v2.storage.flat == built.storage.flat
        assert v2.storage.dr_mode == built.storage.dr_mode
        assert v2.storage.cat_format == built.storage.cat_format
        assert sorted(v2.storage.nodes) == sorted(built.storage.nodes)


def test_mapped_cube_outlives_its_file_and_stays_maintainable(tmp_path):
    """What a restarting writer does to the container it mapped: the
    next generation unlinks the file, CURE+ and a delta rewrite the
    relations, and every node still answers as the definition says."""
    schema = serving_schema()
    fact = serving_fact(schema, n=300)
    result, _ = VARIANTS["CURE"].build(schema, table=fact)
    path = tmp_path / "stream.g0.cube.v2"
    write_v2(path, schema, result.storage, fact.as_batch())
    mapped = open_v2(path, schema)
    storage = mapped.storage
    table = Table.from_batch(mapped.fact.as_batch())
    path.unlink()
    postprocess_plus(storage)
    rows = rows_of(table)
    apply_delta(storage, schema, table, rows[:5] + [rows[-1]])
    cache = FactCache(schema, table=table)
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, rows_of(table), node)
        got = normalize_answer(answer_cure_query(storage, cache, node))
        assert got == expected, node.label(schema.dimensions)
