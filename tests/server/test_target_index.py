"""A cached body found by the raw request target that fetched it.

:meth:`SlicerApp.respond` looks the raw target up in the result cache
before it parses anything (:meth:`ResultCache.body_for`); a target it
does not know is parsed and answered through ``dispatch_request``, which
indexes it beside the body.  Each body served this way must be the
reference encoder's bytes, each request must count one hit or miss, and
the index must never outlive or outnumber the entries it points at.
"""

from __future__ import annotations

import random
import threading

from repro.lattice.node import CubeNode
from repro.query.cache import ResultCache
from repro.query.column_answer import ColumnAnswer
from repro.query.slice import DimensionSlice
from repro.query.workload import WorkloadOp, mixed_workload
from repro.server.app import SlicerApp
from repro.server.replay import op_path, replay_op

N_THREADS = 8


def counted(app: SlicerApp) -> int:
    stats = app.results.stats
    return stats.hits + stats.misses


def indexed(app: SlicerApp) -> int:
    with app.results._lock:
        return len(app.results._targets)


def reference(bundle, op) -> bytes:
    return replay_op(bundle.planner(), op)


def test_canonical_and_other_spellings_return_the_reference_bytes(
    served_bundles,
):
    bundle = served_bundles["CURE+"]
    schema = bundle.schema
    node = CubeNode((0, 0, 0))
    op = WorkloadOp(
        "slice", node,
        (DimensionSlice.of(0, 1, {1, 2}), DimensionSlice.of(1, 0, {3})),
    )
    canonical = op_path(schema, op)
    node_id = schema.node_id(node)
    spellings = [
        canonical,
        f"/slice/{node_id}?where=1.0:3&where=0.1:2|1",  # clauses, members
        f"/slice/{node_id}?where=1.0%3A3&where=0.1%3A1%7C2",  # encoded query
        f"/%73lice/{node_id}?where=0.1:1|2&where=1.0:3",  # encoded path
    ]
    expected = reference(bundle, op)
    app = SlicerApp(bundle)
    for _ in range(3):
        for target in spellings:
            assert app.respond(target) == ("200 OK", expected), target
    # the first spelling took the entry's one index slot
    assert app.results.body_for(canonical) == expected
    assert indexed(app) == 1
    for op in mixed_workload(schema, 40, seed=3):
        target = op_path(schema, op)
        expected = reference(bundle, op)
        assert app.respond(target) == ("200 OK", expected)
        assert app.respond(target) == ("200 OK", expected)


def test_every_request_counts_one_hit_or_miss(served_bundles):
    bundle = served_bundles["CURE"]
    schema = bundle.schema
    app = SlicerApp(bundle, result_cache_entries=6)
    targets = []
    for op in mixed_workload(schema, 30, seed=8):
        target = op_path(schema, op)
        targets += [target, target + "&" if "?" in target else target + "?"]
    rng = random.Random(4)
    hits = 0
    for _ in range(300):
        before = counted(app), app.results.stats.hits
        status, _ = app.respond(rng.choice(targets))
        assert status == "200 OK"
        assert counted(app) == before[0] + 1
        hits += app.results.stats.hits - before[1]
    assert 0 < hits < 300
    # errors and metadata never touch the result cache, nor the index
    before = counted(app)
    for target in ("/cube", "/nodes", "/stats", "/nope", "/node/99999"):
        app.respond(target)
        app.respond(target)
    assert counted(app) == before
    assert all(target.startswith(("/node/", "/slice/", "/rollup/", "/iceberg/"))
               for target in app.results._targets)


def answer_of(value: int, arity: int = 1) -> ColumnAnswer:
    return ColumnAnswer.from_pairs(
        [((value,) * arity, (value, 1))], arity=arity, n_aggregates=2
    )


def test_an_old_body_never_outlives_its_entry():
    cache = ResultCache(max_entries=2)
    first = answer_of(1)
    cache.put(1, (), first)
    assert cache.attach_body(1, (), (), first, b"one", "/node/1")
    assert cache.body_for("/node/1") == b"one"

    # replaced by a new answer: the body and its target go with the old one
    cache.put(1, (), answer_of(10))
    assert cache.body_for("/node/1") is None
    assert cache._targets == {}

    # evicted
    second = answer_of(2)
    cache.put(2, (), second)
    cache.attach_body(2, (), (), second, b"two", "/node/2")
    cache.put(3, (), answer_of(3))
    cache.put(4, (), answer_of(4))
    assert cache.body_for("/node/2") is None
    assert cache._targets == {}

    # cleared
    fifth = answer_of(5)
    cache.put(5, (), fifth)
    cache.attach_body(5, (), (), fifth, b"five", "/node/5")
    assert cache.body_for("/node/5") == b"five"
    cache.clear()
    assert cache.body_for("/node/5") is None
    assert cache._targets == {} and cache.total_bytes == 0


def test_a_cleared_cache_serves_the_new_answer_by_the_same_target(
    served_bundles,
):
    bundle = served_bundles["CURE+"]
    app = SlicerApp(bundle)
    target = op_path(bundle.schema, WorkloadOp("node", CubeNode((0, 0, 0))))
    _, body = app.respond(target)
    assert app.results.body_for(target) is body
    # What an applied delta does to the serving cache, with an entry
    # whose answer differs from the one the old body was rendered from.
    app.results.clear()
    node_id = bundle.schema.node_id(CubeNode((0, 0, 0)))
    app.results.put(node_id, (), answer_of(7, arity=3))
    status, fresh = app.respond(target)
    assert status == "200 OK" and fresh != body
    assert app.results.body_for(target) == fresh


def test_a_flood_of_targets_for_one_entry_keeps_one_index_entry(
    served_bundles,
):
    bundle = served_bundles["CURE+"]
    app = SlicerApp(bundle, result_cache_entries=4)
    expected = reference(bundle, WorkloadOp("node", CubeNode((1, 0, 0))))
    node_id = bundle.schema.node_id(CubeNode((1, 0, 0)))
    for junk in range(500):
        assert app.respond(f"/node/{node_id}?junk={junk}")[1] == expected
    assert indexed(app) == 1
    assert app.results.body_for(f"/node/{node_id}?junk=0") == expected
    assert app.results.body_for(f"/node/{node_id}?junk=1") is None
    # an entry keeps its first target: no later one takes its place
    entry = app.results.lookup(node_id, record=False)
    assert not app.results.add_target((node_id, (), ()), entry, "/elsewhere")
    assert app.results.body_for("/elsewhere") is None
    # and a flood of entries never leaves more targets than entries
    for op in mixed_workload(bundle.schema, 60, seed=12):
        app.respond(op_path(bundle.schema, op))
        assert indexed(app) <= len(app.results) <= 4


def test_a_target_is_charged_to_the_byte_budget():
    cache = ResultCache()
    answer = answer_of(1)
    cache.put(1, (), answer)
    cache.attach_body(1, (), (), answer, b"body", "/node/1")
    assert cache.total_bytes == ResultCache.entry_bytes(answer, b"body", "/node/1")
    assert cache.total_bytes == ResultCache.entry_bytes(answer, b"body") + 7
    # a target that does not fit beside its entry is not indexed
    tight = ResultCache(max_bytes=ResultCache.entry_bytes(answer, b"body") + 3)
    tight.put(1, (), answer)
    tight.attach_body(1, (), (), answer, b"body")
    key, entry = (1, (), ()), tight.lookup(1)
    assert not tight.add_target(key, entry, "/node/1")
    assert tight.body_for("/node/1") is None and len(tight) == 1


def test_threads_over_a_small_cache_get_only_reference_bodies(served_bundles):
    bundle = served_bundles["CURE+"]
    schema = bundle.schema
    ops = mixed_workload(schema, 12, seed=21)
    expected = {}
    for op in ops:
        body = reference(bundle, op)
        target = op_path(schema, op)
        # each answer under two spellings, so aliases race the index too
        expected[target] = expected[target + ("&" if "?" in target else "?")] = body
    targets = sorted(expected)
    app = SlicerApp(bundle, result_cache_entries=3)
    barrier = threading.Barrier(N_THREADS)
    failures = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        try:
            barrier.wait()
            for _ in range(150):
                target = rng.choice(targets)
                assert app.respond(target) == ("200 OK", expected[target]), target
        except BaseException as error:  # noqa: BLE001 - surfaced below
            failures.append(error)

    threads = [
        threading.Thread(target=worker, args=(seed,)) for seed in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures[0]
    assert counted(app) == N_THREADS * 150
    assert indexed(app) <= len(app.results) <= 3
