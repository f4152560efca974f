"""The per-node memos hold only what the schema decides, and are used.

A node's :class:`~repro.query.answer.NodeShape` (memoized on the schema)
and its TT source ids (:func:`~repro.query.answer.tt_source_ids`,
memoized on the storage) are built on its first read.  Two properties
keep them honest:

* **schema-only** — neither holds a stored relation, so the merger
  creating stores and replacing TT lists between queries, and a
  compaction swapping the storage, leave every warm node answering
  what a fresh planner and the CUBE definition answer;
* **in use** — once warm, a miss of every kind (node, slice, iceberg,
  roll-up) through the server re-derives nothing: with
  ``CubeNode.grouping_dims`` and ``NodeEnumerator.node_id`` raising, the
  bodies are the ones served before.
"""

from __future__ import annotations

from urllib.parse import parse_qs, urlsplit

import pytest

from repro import CubeSchema, build_cube, linear_dimension, make_aggregates
from repro.ingest import StreamingIngestor
from repro.lattice.node import CubeNode, NodeEnumerator
from repro.query import CubePlanner, FactCache, QueryRequest, reference_group_by
from repro.query.answer import normalize_answer
from repro.server.app import SlicerApp
from tests.server.conftest import ALL_SERVED
from tests.support.rows import rows_of, table_of

SCHEMA = CubeSchema(
    (
        linear_dimension("A", [("A0", 8), ("A1", 4), ("A2", 2)]),
        linear_dimension("B", [("B0", 5)]),
    ),
    make_aggregates(("sum", 0), ("count", 0)),
    n_measures=1,
)


def assert_every_answer_is_fresh(ingestor: StreamingIngestor) -> None:
    facts = rows_of(ingestor.fact_table)
    table = table_of(SCHEMA.fact_schema, facts)
    fresh = CubePlanner(
        build_cube(SCHEMA, table=table).storage, FactCache(SCHEMA, table=table)
    )
    for node in SCHEMA.lattice.nodes():
        got = ingestor.planner.answer(QueryRequest(node))
        assert got == fresh.answer(QueryRequest(node)), node
        assert normalize_answer(got) == reference_group_by(SCHEMA, facts, node)


def test_warm_readers_follow_deltas_and_compaction(engine, tmp_path):
    # Every base row is its own group in every node but the grand total,
    # so most nodes store nothing of their own: their tuples are TTs kept
    # up the plan path.  Repeating a row's dimensions turns TTs into NTs
    # in nodes that had no store, and replaces the TT lists they left.
    base = [(code, code % 5, code) for code in range(5)]
    ingestor = StreamingIngestor.bootstrap(
        SCHEMA,
        engine,
        table_of(SCHEMA.fact_schema, base),
        tmp_path / "log",
        seal_records=1,
        plus=True,
    )
    ingestor.planner = CubePlanner(
        ingestor.storage, FactCache(SCHEMA, table=ingestor.fact_table)
    )
    storage = ingestor.storage
    assert_every_answer_is_fresh(ingestor)
    shapes = dict(SCHEMA.node_shapes)
    sources = dict(storage.tt_source_ids)
    assert len(shapes) == len(sources) == SCHEMA.lattice.n_nodes
    stored = set(storage.nodes)
    tts = {
        node_id: store.tt_array()
        for node_id, store in storage.nodes.items()
        if store.tt_count
    }

    ingestor.append([(0, 0, 7), (1, 1, 11)])
    ingestor.append([(6, 2, 5), (0, 0, 3)])
    ingestor.log.seal()
    assert ingestor.apply_ready() == 2
    assert ingestor.storage is storage
    assert set(storage.nodes) > stored  # the merger created stores
    assert any(
        storage.nodes[node_id].tt_array() is not array
        for node_id, array in tts.items()
    )  # and replaced TT lists
    assert_every_answer_is_fresh(ingestor)
    # the warm memos answered: no entry was rebuilt
    assert all(SCHEMA.node_shapes[node] is shape for node, shape in shapes.items())
    assert all(
        storage.tt_source_ids[node_id] is ids for node_id, ids in sources.items()
    )

    ingestor.compact()
    assert ingestor.planner.storage is ingestor.storage is not storage
    assert_every_answer_is_fresh(ingestor)


def miss_paths(schema) -> list[str]:
    """One request of every kind per node (a slice where it groups)."""
    paths = []
    for node in schema.lattice.nodes():
        node_id = schema.node_id(node)
        paths += [
            f"/node/{node_id}",
            f"/rollup/{node_id}",
            f"/iceberg/{node_id}?min=2",
        ]
        for dim in node.grouping_dims(schema.dimensions):
            paths.append(f"/slice/{node_id}?where={dim}.{node.levels[dim]}:0|1")
    return paths


def _refuse(*_args, **_kwargs):
    raise AssertionError("a warm node re-derived its shape")


@pytest.mark.parametrize("variant", ALL_SERVED)
def test_a_warm_miss_derives_nothing_again(variant, served_bundles, monkeypatch):
    bundle = served_bundles[variant]
    app = SlicerApp(bundle, result_cache_bytes=1)  # every request misses
    requests = [urlsplit(path) for path in miss_paths(bundle.schema)]

    def serve() -> list[bytes]:
        bodies = []
        for url in requests:
            status, body = app.dispatch_request(url.path, parse_qs(url.query))
            assert status == "200 OK", (url, body)
            bodies.append(body)
        return bodies

    warm = serve()
    misses = app.results.stats.misses
    monkeypatch.setattr(CubeNode, "grouping_dims", _refuse)
    monkeypatch.setattr(NodeEnumerator, "node_id", _refuse)
    assert serve() == warm
    assert app.results.stats.misses == misses + len(requests)
    assert app.results.stats.hits == 0
