"""The HTTP-vs-library differential: every served byte must match.

The slicer is locked to the query layer by construction: each HTTP body
is compared against an in-process computation over a *fresh* planner
(:func:`repro.server.replay.replay_op`), rendered through the same
canonical encoder.  Routing, parameter parsing, planner strategy choice,
shared-cache reuse and JSON rendering all have to agree, across CURE,
CURE+, FCURE, CURE_DR and a partitioned CURE+ build
(``tests/server/conftest.py``), for these to pass — and the served
bytes must also be
what the tuple-at-a-time oracle (``tests/support/row_engine.py``) gives
when its pairs go through the row-at-a-time reference encoder.  The
server and the library share the planner, so the checks that stand
apart from it are the row-engine comparison and the iceberg check
against the CUBE definition (``reference_group_by`` over the fact rows).
"""

from __future__ import annotations

import json

import pytest

from repro.query.answer import reference_group_by
from repro.query.planner import QueryRequest
from repro.query.workload import mixed_workload
from repro.server.app import SlicerApp
from repro.server.encoding import decode_answer, encode_answer
from repro.server.replay import execute_op, op_path, replay_op
from tests.server.conftest import (
    ALL_SERVED,
    heap_planner,
    serving_fact,
    wsgi_get,
)
from tests.support import row_engine
from tests.support.reference_encoding import reference_encode_op
from tests.support.rows import rows_of


@pytest.fixture(scope="module")
def apps(served_bundles):
    return {
        name: SlicerApp(bundle) for name, bundle in served_bundles.items()
    }


# -- byte identity -----------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_SERVED)
def test_every_node_answer_is_byte_identical(variant, apps):
    app = apps[variant]
    schema = app.schema
    reference = app.bundle.planner()
    for node in schema.lattice.nodes():
        status, body = wsgi_get(app, f"/node/{schema.node_id(node)}")
        assert status == "200 OK"
        expected = encode_answer(
            schema,
            node,
            reference.answer(QueryRequest.of(node)),
            kind="node",
        )
        assert body == expected, node.label(schema.dimensions)


@pytest.mark.parametrize("variant", ALL_SERVED)
def test_mixed_workload_differential(variant, apps):
    app = apps[variant]
    schema = app.schema
    reference = app.bundle.planner()
    for op in mixed_workload(schema, 80, seed=23):
        status, body = wsgi_get(app, op_path(schema, op))
        assert status == "200 OK", body
        assert body == replay_op(reference, op), op


def test_row_mode_library_agrees_with_server(apps):
    # The server answers through the columnar reader and encoder; the
    # row-engine oracle, rendered by the reference encoder, shares
    # neither and must still produce the same bytes — pre-filtering
    # over the mapped fact columns and post-filtering over the heap,
    # for every served variant.
    for variant, app in apps.items():
        schema = app.schema
        for reference in (app.bundle.planner(), heap_planner(app.bundle)):
            for op in mixed_workload(schema, 30, seed=29):
                _, body = wsgi_get(app, op_path(schema, op))
                pairs = row_engine.execute_op(reference, op)
                assert body == reference_encode_op(schema, op, pairs), (variant, op)
                assert body == replay_op(reference, op), (variant, op)


@pytest.mark.parametrize("variant", ALL_SERVED)
def test_iceberg_rows_follow_the_definition(variant, apps):
    # HAVING COUNT(*) >= min over the fact rows, for every node — those
    # a flat cube does not store included — and not against another
    # engine, which could share a routing bug with the server.
    app = apps[variant]
    schema = app.schema
    fact_rows = rows_of(serving_fact(schema))
    count = schema.count_aggregate_index()
    for node in schema.lattice.nodes():
        groups = reference_group_by(schema, fact_rows, node)
        for min_count in (2, 3):
            path = f"/iceberg/{schema.node_id(node)}?min={min_count}"
            status, body = wsgi_get(app, path)
            assert status == "200 OK", path
            expected = [g for g in groups if g[1][count] >= min_count]
            assert decode_answer(body)[1].normalized().to_pairs() == (
                expected
            ), path


def test_every_variant_serves_every_slice_alike(apps):
    # A flat cube answers a slice on a node it does not store by rolling
    # up: it must refuse what CURE refuses (a slice below the node's
    # level, or on a dimension the node has at ALL) and answer the rest
    # with CURE's bytes.
    schema = apps["CURE"].schema
    for node in schema.lattice.nodes():
        for dim, dimension in enumerate(schema.dimensions):
            for level in range(dimension.n_levels):
                path = f"/slice/{schema.node_id(node)}?where={dim}.{level}:0"
                served = {wsgi_get(apps[v], path) for v in ALL_SERVED}
                assert len(served) == 1, path


def test_served_bodies_decode_to_the_answers(apps):
    app = apps["CURE+"]
    schema = app.schema
    reference = app.bundle.planner()
    for op in mixed_workload(schema, 20, seed=31):
        _, body = wsgi_get(app, op_path(schema, op))
        payload, answer = decode_answer(body)
        expected = execute_op(reference, op)
        assert payload["kind"] == op.kind
        assert answer == expected


def test_where_clause_order_is_irrelevant(apps):
    app = apps["CURE"]
    first = wsgi_get(
        app, "/slice/0?where=0.0:1|3&where=1.0:2"
    )
    second = wsgi_get(
        app, "/slice/0?where=1.0:2&where=0.0:3|1"
    )
    assert first == second
    results = app.planner.results
    hits_before = results.stats.hits
    wsgi_get(app, "/slice/0?where=1.0:2&where=0.0:1|3")
    assert results.stats.hits == hits_before + 1


# -- metadata endpoints ------------------------------------------------------


def test_cube_metadata(apps):
    app = apps["FCURE"]
    status, body = wsgi_get(app, "/cube")
    assert status == "200 OK"
    meta = json.loads(body)
    assert meta["variant"] == "FCURE"
    assert meta["n_nodes"] == app.schema.enumerator.n_nodes
    assert [d["name"] for d in meta["dimensions"]] == ["A", "B", "C"]
    assert meta["fact_rows"] == app.bundle.fact_row_count
    # the root path serves the same document
    assert wsgi_get(app, "/")[1] == body


def test_nodes_listing(apps):
    app = apps["CURE"]
    _, body = wsgi_get(app, "/nodes")
    listing = json.loads(body)
    assert len(listing["nodes"]) == listing["n_nodes"]
    ids = [entry["id"] for entry in listing["nodes"]]
    assert ids == sorted(set(ids))
    _, limited = wsgi_get(app, "/nodes?limit=3")
    assert len(json.loads(limited)["nodes"]) == 3


def test_a_negative_node_limit_is_a_bad_request(apps):
    app = apps["CURE"]
    for limit in ("-1", "-7"):
        status, body = wsgi_get(app, f"/nodes?limit={limit}")
        assert status == "400 Bad Request"
        assert "limit" in json.loads(body)["error"]
    # zero still means no limit
    _, body = wsgi_get(app, "/nodes?limit=0")
    listing = json.loads(body)
    assert len(listing["nodes"]) == listing["n_nodes"]


def test_stats_expose_cache_counters(apps):
    app = apps["CURE"]
    wsgi_get(app, "/node/0")
    wsgi_get(app, "/node/0")
    _, body = wsgi_get(app, "/stats")
    stats = json.loads(body)
    assert stats["requests"] >= 3
    assert stats["result_cache"]["hits"] >= 1
    assert stats["result_cache"]["bytes"] <= stats["result_cache"]["max_bytes"]


# -- error handling ----------------------------------------------------------


def test_error_statuses(apps):
    app = apps["CURE"]
    cases = [
        ("/nope", "404 Not Found"),
        ("/node/xyz", "400 Bad Request"),
        ("/node/99999", "400 Bad Request"),
        ("/node/0?where=0.0:1", "400 Bad Request"),
        ("/slice/0", "400 Bad Request"),
        ("/slice/0?where=banana", "400 Bad Request"),
        ("/slice/0?where=9.0:1", "400 Bad Request"),
        ("/slice/0?where=2.1:0", "400 Bad Request"),
        ("/slice/0?where=0.0:999", "400 Bad Request"),
        ("/slice/0?where=0.0:1|-1", "400 Bad Request"),
        ("/slice/0?where=0.1:1&where=1.0:99", "400 Bad Request"),
        ("/iceberg/0?min=x", "400 Bad Request"),
    ]
    entries = len(app.results)
    for path, expected in cases:
        status, body = wsgi_get(app, path)
        assert status == expected, path
        assert "error" in json.loads(body)
    assert len(app.results) == entries  # no client error takes an entry
    status, _ = wsgi_get(app, "/node/0", method="POST")
    assert status == "405 Method Not Allowed"
    _, body = wsgi_get(app, "/stats")
    assert json.loads(body)["errors"] >= len(cases)


@pytest.mark.parametrize(
    "path, field, text",
    [
        ("/node/1_0", "node id", "1_0"),
        ("/slice/0?where=%2B0.0:1", "where dimension", "+0"),
        ("/slice/0?where=0.%200:1", "where level", " 0"),
        ("/slice/0?where=0.0:%D9%A1", "where member", "\u0661"),
        ("/iceberg/0?min=02", "min", "02"),
    ],
)
def test_non_canonical_integers_are_rejected(apps, path, field, text):
    # ``int`` reads "1_0", "+0", " 0", "02" and an Arabic-Indic one as
    # integers; a request path takes only the digits ``str(int)`` gives
    # back, so one answer has one path.
    status, body = wsgi_get(apps["CURE"], path)
    assert status == "400 Bad Request", path
    assert json.loads(body)["error"] == (
        f"{field} must be an integer, got {text!r}"
    )
