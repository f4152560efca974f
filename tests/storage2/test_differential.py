"""The v1↔v2 differential: the mapped container must change *no* byte.

Every comparison runs the same built cube opened two ways — through the
v1 heap-file load path and through the mapped ``cube.v2`` container —
and renders both answers through the canonical encoder.  Node scans,
slices, rollups and iceberg queries, across CURE, CURE+ and FCURE, over
the library *and* over HTTP — and through the tuple-at-a-time oracle
(``tests/support/row_engine.py``), which reads the mapped container's
lazy row surfaces — all have to produce identical bytes for the v2
format to be considered a pure storage change.
"""

from __future__ import annotations

import pytest

from repro.query.planner import QueryRequest
from repro.query.workload import mixed_workload
from repro.server.app import SlicerApp
from repro.server.encoding import encode_answer
from repro.server.replay import op_path, replay_op
from tests.server.conftest import SERVED_VARIANTS, wsgi_get
from tests.support import row_engine
from tests.support.reference_encoding import reference_encode_op


@pytest.mark.parametrize("variant", SERVED_VARIANTS)
def test_every_node_answer_is_byte_identical(variant, dual_bundles):
    v1, v2 = dual_bundles[variant]
    schema = v1.schema
    p1, p2 = v1.planner(), v2.planner()
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
    v1, v2 = dual_bundles[variant]
    p1, p2 = v1.planner(), v2.planner()
    for op in mixed_workload(v1.schema, 80, seed=23):
        assert replay_op(p1, op) == replay_op(p2, op), op


def test_row_mode_is_byte_identical(dual_bundles):
    # The row-engine oracle over each backend, through the reference
    # encoder: v1 and v2 must agree with each other and with the
    # columnar engine over the mapped container.
    v1, v2 = dual_bundles["CURE+"]
    schema = v1.schema
    p1 = v1.planner(with_indices=False)
    p2 = v2.planner(with_indices=False)
    for op in mixed_workload(schema, 30, seed=29):
        body1 = reference_encode_op(schema, op, row_engine.execute_op(p1, op))
        body2 = reference_encode_op(schema, op, row_engine.execute_op(p2, op))
        assert body1 == body2 == replay_op(p2, op), op


@pytest.mark.parametrize("variant", SERVED_VARIANTS)
def test_http_over_v2_matches_v1_library(variant, dual_bundles):
    # The full serving stack on top of a mapped bundle against an
    # in-process v1 replay: routing, parsing, strategy choice and JSON
    # rendering must all agree with the heap-backed answers.
    v1, v2 = dual_bundles[variant]
    app = SlicerApp(v2)
    reference = v1.planner()
    for op in mixed_workload(v1.schema, 40, seed=31):
        status, body = wsgi_get(app, op_path(v1.schema, op))
        assert status == "200 OK", body
        assert body == replay_op(reference, op), op


def test_indexed_and_postfilter_strategies_agree(dual_bundles):
    # The v2 planner consumes pre-built mapped CSR indices; with them
    # disabled the same requests take the postfilter path.  Both must
    # match the v1 indexed answers byte for byte.
    v1, v2 = dual_bundles["CURE"]
    reference = v1.planner()
    indexed = v2.planner()
    postfilter = v2.planner(with_indices=False)
    ops = [
        op
        for op in mixed_workload(v1.schema, 60, seed=37)
        if op.kind == "slice"
    ]
    assert ops, "workload produced no slice ops"
    for op in ops:
        expected = replay_op(reference, op)
        assert replay_op(indexed, op) == expected, op
        assert replay_op(postfilter, op) == expected, op


def test_fact_row_count_and_metadata_agree(dual_bundles):
    for variant in SERVED_VARIANTS:
        v1, v2 = dual_bundles[variant]
        assert v2.fact_row_count == v1.fact_row_count
        assert v2.storage.flat == v1.storage.flat
        assert v2.storage.dr_mode == v1.storage.dr_mode
        assert v2.storage.cat_format == v1.storage.cat_format
        assert sorted(v2.storage.nodes) == sorted(v1.storage.nodes)
