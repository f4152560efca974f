"""Concurrency properties of the shared serving path.

One :class:`~repro.server.app.SlicerApp` serves all request threads,
sharing the NodeStore matrix caches, the FactCache and a byte-budgeted
ResultCache.  These tests race barrier-started readers against cache
warm-up, LRU eviction under a tiny byte budget, and the ``clear``
streaming ingest performs after every applied record — every body must
still be byte-identical to a sequential single-threaded replay.
"""

from __future__ import annotations

import json
import threading

import numpy as np

from repro.query.workload import mixed_workload
from repro.server.app import SlicerApp
from repro.server.replay import op_path
from tests.server.conftest import serving_schema, wsgi_get

N_THREADS = 16


def _reference_bodies(bundle, paths):
    """Sequential ground truth from a fresh app over the same bundle."""
    app = SlicerApp(bundle)
    return [wsgi_get(app, path)[1] for path in paths]


def _race(n_threads, worker):
    """Run ``worker(index)`` on barrier-started threads; re-raise failures."""
    barrier = threading.Barrier(n_threads)
    failures = []

    def run(index):
        try:
            barrier.wait()
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=run, args=(index,))
        for index in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


def test_concurrent_replay_matches_sequential(served_bundles):
    bundle = served_bundles["CURE+"]
    schema = bundle.schema
    ops = mixed_workload(schema, 60, seed=41)
    paths = [op_path(schema, op) for op in ops]
    expected = _reference_bodies(bundle, paths)

    # A tiny byte budget keeps the shared cache churning: admissions,
    # LRU evictions and rejections all happen mid-race.
    app = SlicerApp(bundle, result_cache_bytes=8192, result_cache_entries=32)
    results = [None] * N_THREADS

    def worker(index):
        local = []
        for path in paths:
            status, body = wsgi_get(app, path)
            assert status == "200 OK", body
            local.append(body)
        results[index] = local

    _race(N_THREADS, worker)
    for local in results:
        assert local == expected


def test_readers_race_checkpoint_invalidation(served_bundles):
    # Streaming ingest empties the result cache after every record; over
    # an unchanged cube, readers must never observe a wrong answer no
    # matter how the clears interleave with their lookups.
    bundle = served_bundles["CURE"]
    schema = bundle.schema
    ops = mixed_workload(schema, 40, seed=43)
    paths = [op_path(schema, op) for op in ops]
    expected = _reference_bodies(bundle, paths)

    app = SlicerApp(bundle, result_cache_bytes=64 * 1024)
    stop = threading.Event()

    def flipper():
        while not stop.is_set():
            app.planner.results.clear()

    def worker(index):
        for i, path in enumerate(paths):
            assert wsgi_get(app, path)[1] == expected[i]

    flip_thread = threading.Thread(target=flipper)
    flip_thread.start()
    try:
        _race(8, worker)
    finally:
        stop.set()
        flip_thread.join()


def test_level_map_memo_is_safe_under_barrier_start(served_bundles):
    # The level-map arrays are built with the dimension (no lock, no
    # first-touch race); racing first touches from a thread-per-request
    # pool must all see the same correct array for a never-before-seen
    # dimension object.
    schema = serving_schema()
    witnessed = [None] * N_THREADS

    def worker(index):
        maps = []
        for dimension in schema.dimensions:
            for level in range(dimension.n_levels_with_all - 1):
                maps.append((dimension, level, dimension.level_maps[level]))
        witnessed[index] = maps

    _race(N_THREADS, worker)
    for maps in witnessed:
        for dimension, level, array in maps:
            np.testing.assert_array_equal(
                array, np.asarray(dimension.base_maps[level], dtype=np.int64)
            )
    # every thread got the identical cached array object
    first = witnessed[0]
    for maps in witnessed[1:]:
        for (_, _, a), (_, _, b) in zip(first, maps):
            assert a is b


def test_shared_app_stats_stay_consistent(served_bundles):
    bundle = served_bundles["FCURE"]
    app = SlicerApp(bundle)
    per_thread = 10

    def worker(index):
        for _ in range(per_thread):
            status, _ = wsgi_get(app, "/node/0")
            assert status == "200 OK"

    _race(N_THREADS, worker)
    stats = json.loads(wsgi_get(app, "/stats")[1])
    assert stats["requests"] == N_THREADS * per_thread + 1
    assert stats["errors"] == 0
    cache = stats["result_cache"]
    assert cache["hits"] + cache["misses"] >= N_THREADS * per_thread
