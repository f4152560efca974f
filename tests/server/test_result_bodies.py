"""Encoded bodies in the one result cache: counted, budgeted, never stale.

A ``ResultCache`` entry carries the answer and, once the server has
rendered it, the canonical body.  These tests pin what that must not
break: one hit-or-miss per request on all four answer endpoints, the
byte budget (bodies are charged to it), and invalidation — a body goes
when its answer goes, after ``clear`` and after a real
``StreamingIngestor.apply_ready``.
"""

from __future__ import annotations

import json
from urllib.parse import parse_qs, urlsplit

import pytest

from repro.ingest import StreamingIngestor
from repro.lattice.node import CubeNode
from repro.query import CubePlanner, DimensionSlice, FactCache
from repro.query.cache import ResultCache
from repro.query.column_answer import ColumnAnswer
from repro.query.planner import QueryRequest
from repro.query.workload import WorkloadOp, mixed_workload
from repro.server.app import DEFAULT_RESULT_CACHE_BYTES, SlicerApp
from repro.server.replay import execute_op, op_path, replay_op
from tests.server.conftest import (
    SERVED_VARIANTS,
    serving_fact,
    serving_schema,
    wsgi_get,
)
from tests.support.rows import rows_of, table_of


def answer_of(rows: int) -> ColumnAnswer:
    return ColumnAnswer.from_pairs(
        [((0, i), (i, 1)) for i in range(rows)], arity=2, n_aggregates=2
    )


# -- the cache itself ---------------------------------------------------------


def test_bodies_are_charged_and_released_with_their_entry():
    cache = ResultCache(max_bytes=1 << 20)
    answer, body = answer_of(10), b"x" * 500
    matrices = answer.dims.nbytes + answer.aggregates.nbytes
    cache.put(1, (), answer)
    assert cache.total_bytes == cache.entry_bytes(answer) == matrices
    assert cache.attach_body(1, (), (), answer, body)
    assert cache.total_bytes == cache.entry_bytes(answer, body) == matrices + 500
    entry = cache.lookup(1)
    assert entry.answer is answer and entry.body is body
    # replacing the answer drops the body rendered from the old one
    cache.put(1, (), answer_of(10))
    assert cache.lookup(1).body is None
    assert cache.total_bytes == matrices
    cache.attach_body(1, (), (), cache.lookup(1).answer, body)
    cache.put(2, (), answer_of(3), tag=("rollup",))
    assert cache.total_bytes == matrices + 500 + cache.entry_bytes(answer_of(3))
    assert cache.clear() == 2
    assert cache.total_bytes == 0 and len(cache) == 0


def test_a_body_is_attached_only_to_the_answer_it_was_rendered_from():
    cache = ResultCache()
    stale, fresh = answer_of(4), answer_of(4)
    cache.put(1, (), stale)
    cache.clear()
    assert not cache.attach_body(1, (), (), stale, b"old")  # entry gone
    cache.put(1, (), fresh)
    assert not cache.attach_body(1, (), (), stale, b"old")  # replaced
    assert cache.lookup(1).body is None
    assert cache.attach_body(1, (), (), fresh, b"new")
    assert cache.lookup(1).body == b"new"


def test_attaching_a_body_evicts_lru_but_never_exceeds_the_budget():
    one = answer_of(8)
    size = ResultCache.entry_bytes(one)
    cache = ResultCache(max_bytes=size * 2 + size // 2)
    first, second = answer_of(8), answer_of(8)
    cache.put(1, (), first)
    cache.put(2, (), second)
    # the body fits beside its own answer but not beside both entries:
    # the least recently used one (node 1) makes room, as for a put
    assert cache.attach_body(2, (), (), second, b"y" * size)
    assert cache.lookup(1) is None
    assert cache.lookup(2).body is not None
    assert cache.total_bytes == 2 * size <= cache.max_bytes
    # a body that would overflow the whole budget beside its own answer
    # is not attached; the answer stays
    third = answer_of(8)
    cache.put(3, (), third)
    assert not cache.attach_body(3, (), (), third, b"z" * size * 2)
    assert cache.lookup(3).body is None
    assert cache.total_bytes <= cache.max_bytes


def test_tags_separate_entries_over_one_node():
    cache = ResultCache()
    cache.put(5, (), answer_of(1))
    cache.put(5, (), answer_of(2), tag=("rollup",))
    cache.put(5, (), answer_of(3), tag=("iceberg", 2))
    cache.put(5, (), answer_of(4), tag=("iceberg", 3))
    assert len(cache) == 4
    assert len(cache.lookup(5).answer) == 1
    assert len(cache.lookup(5, (), ("rollup",)).answer) == 2
    assert len(cache.lookup(5, (), ("iceberg", 3)).answer) == 4
    assert cache.lookup(5, (), ("iceberg", 9)) is None
    # an uncounted read leaves the counters alone
    before = (cache.stats.hits, cache.stats.misses)
    assert cache.lookup(5, record=False) is not None
    assert cache.lookup(6, record=False) is None
    assert (cache.stats.hits, cache.stats.misses) == before


# -- through the server -------------------------------------------------------


def counters(app):
    stats = app.planner.results.stats
    return stats.hits, stats.misses


def test_every_answer_endpoint_registers_exactly_one_hit_or_miss(
    served_bundles,
):
    app = SlicerApp(served_bundles["CURE+"])
    paths = [
        "/node/3",
        "/slice/0?where=0.0:1|3",
        "/rollup/7",  # its base answer is an entry too, read uncounted
        "/rollup/9",
        "/iceberg/0?min=2",
        "/iceberg/0?min=3",
    ]
    first = {}
    for path in paths:
        before = counters(app)
        status, first[path] = wsgi_get(app, path)
        assert status == "200 OK"
        hits, misses = counters(app)
        assert (hits, misses) == (before[0], before[1] + 1), path
    for path in paths:
        before = counters(app)
        again = wsgi_get(app, path)[1]
        assert again is first[path], path  # the cached bytes themselves
        hits, misses = counters(app)
        assert (hits, misses) == (before[0] + 1, before[1]), path
    # errors and metadata endpoints never touch the result cache
    before = counters(app)
    for path in ("/cube", "/nodes", "/stats", "/nope", "/iceberg/0?min=x"):
        wsgi_get(app, path)
    assert counters(app) == before


@pytest.mark.parametrize("variant", SERVED_VARIANTS)
def test_library_and_server_count_the_cache_alike(variant, served_bundles):
    # One workload, two front doors onto identically configured caches:
    # the server's dispatch and the library's execute_op.  Every kind —
    # icebergs and roll-ups too — must register and admit the same.
    bundle = served_bundles[variant]
    app = SlicerApp(bundle)
    planner = bundle.planner(
        result_cache_bytes=DEFAULT_RESULT_CACHE_BYTES,
        result_cache_entries=4096,
    )
    for op in mixed_workload(bundle.schema, 120, seed=41):
        url = urlsplit(op_path(bundle.schema, op))
        status, _ = app.dispatch_request(url.path, parse_qs(url.query))
        assert status == "200 OK", op
        execute_op(planner, op)
    served, library = app.planner.results, planner.results
    assert served.stats.hits == library.stats.hits > 0
    assert served.stats.misses == library.stats.misses
    assert len(served) == len(library)


def test_an_answer_cached_by_the_library_gets_its_body_on_first_serve(
    served_bundles,
):
    app = SlicerApp(served_bundles["CURE"])
    node = app.schema.decode_node(2)
    app.planner.answer(QueryRequest.of(node))  # the library path: no body
    assert app.planner.results.lookup(2, record=False).body is None
    body = wsgi_get(app, "/node/2")[1]
    assert app.planner.results.lookup(2, record=False).body is body
    assert counters(app) == (1, 1)


def test_stats_agree_with_entry_bytes_and_respect_the_budget(served_bundles):
    bundle = served_bundles["CURE+"]
    schema = bundle.schema
    paths = [op_path(schema, op) for op in mixed_workload(schema, 60, seed=5)]
    for budget in (4096, 64 * 1024, None):
        app = SlicerApp(bundle, result_cache_bytes=budget)
        results = app.planner.results
        for path in paths:
            assert wsgi_get(app, path)[0] == "200 OK"
            assert budget is None or results.total_bytes <= budget
        reported = json.loads(wsgi_get(app, "/stats")[1])["result_cache"]
        with results._lock:
            entries = list(results._entries.values())
        assert reported["entries"] == len(entries)
        assert reported["bytes"] == results.total_bytes == sum(
            ResultCache.entry_bytes(entry.answer, entry.body)
            for entry in entries
        )
        assert any(entry.body is not None for entry in entries)
        results.clear()
        assert results.total_bytes == 0


class LiveBundle:
    """What ``SlicerApp`` needs of a bundle, over an ingestor's live cube."""

    def __init__(self, ingestor, schema):
        self.ingestor, self.schema, self.extra = ingestor, schema, {}

    def planner(self, result_cache_entries, result_cache_bytes, **_ignored):
        return CubePlanner(
            self.ingestor.storage,
            FactCache(self.schema, table=self.ingestor.fact_table),
            results=ResultCache(
                max_entries=result_cache_entries, max_bytes=result_cache_bytes
            ),
        )


def test_bodies_follow_a_real_delta_apply(engine, tmp_path):
    schema = serving_schema()
    fact = serving_fact(schema, n=120)
    ingestor = StreamingIngestor.bootstrap(
        schema, engine, table_of(schema.fact_schema, rows_of(fact)),
        tmp_path / "log",
    )
    app = SlicerApp(LiveBundle(ingestor, schema))
    ingestor.planner = app.planner
    base = CubeNode((0, 0, 0))
    ops = {
        "touched": WorkloadOp("slice", base, (DimensionSlice.of(0, 0, {0}),)),
        "untouched": WorkloadOp("slice", base, (DimensionSlice.of(0, 0, {5}),)),
        "node": WorkloadOp("node", base),
        "rollup": WorkloadOp("rollup", CubeNode((1, 1, 0))),
        "iceberg": WorkloadOp("iceberg", base, min_count=2),
    }
    paths = {name: op_path(schema, op) for name, op in ops.items()}
    before = {name: wsgi_get(app, path)[1] for name, path in paths.items()}
    results = app.planner.results
    resident = len(results)
    assert resident == 5  # the roll-up's base answer is the node entry

    ingestor.append([(0, 3, 2, 77), (0, 1, 4, 5)])  # both rows have A0 = 0
    ingestor.log.seal()
    ingestor.apply_ready()
    assert len(results) == 0 and results.total_bytes == 0
    assert ingestor.stats.results_dropped == resident

    fresh = CubePlanner(
        ingestor.storage, FactCache(schema, table=ingestor.fact_table)
    )
    after = {name: wsgi_get(app, path)[1] for name, path in paths.items()}
    for name, op in ops.items():
        assert after[name] == replay_op(fresh, op), name
        assert after[name] is not before[name], name  # re-rendered
    for name in ("touched", "node", "rollup"):
        assert after[name] != before[name], name
    # neither the A0 = 5 slice nor the iceberg changes, yet both were
    # answered again from the maintained cube
    assert after["untouched"] == before["untouched"]
    assert after["iceberg"] == before["iceberg"]
    assert results.total_bytes == sum(
        ResultCache.entry_bytes(entry.answer, entry.body)
        for entry in results._entries.values()
    )
