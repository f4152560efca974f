"""How pool workers start — and that it cannot be told from the output.

``ProcessPoolExecutor`` forks its helpers from the driver when the
platform can fork and the driver runs no other thread at ``run()``;
otherwise it spawns fresh interpreters.  The choice is not a parameter,
so the tests steer it the way real callers do — by running a thread, or
by running where ``os.fork`` does not exist — and read it off the one
``get_context`` call.  Either way a ``workers=2`` build must leave the
catalog directory and the cube of ``workers=1`` — for ``CURE`` and for
``CURE_DR``, whose signatures carry their node's codes back from the
workers.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

import repro.build.parallel as parallel
from repro import Engine, build_cube
from repro.core.signature import SignaturePool
from repro.datasets.synthetic import generate_flat_dataset
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryManager
from tests.support.rows import cube_bytes

POOL_CAPACITY = 200


@pytest.fixture(scope="module")
def instance():
    return generate_flat_dataset(
        2,
        600,
        zipf=0.6,
        seed=3,
        cardinalities=(10, 6),
        aggregates=(("sum", 0), ("count", 0)),
    )


def _engine(root, instance, allowance_rows: int = 250) -> Engine:
    schema, table = instance
    pool_bytes = SignaturePool.size_bytes(POOL_CAPACITY, schema.n_aggregates)
    row_bytes = schema.partition_schema.row_size_bytes
    engine = Engine(
        Catalog(root), MemoryManager(pool_bytes + allowance_rows * row_bytes)
    )
    engine.store_table("fact", table)
    return engine


def _build(
    root, instance, workers: int, allowance_rows: int = 250, dr_mode=False
):
    """``(cube bytes, catalog directory contents, stats)`` of one build."""
    engine = _engine(root, instance, allowance_rows)
    result = build_cube(
        instance[0],
        engine=engine,
        relation="fact",
        pool_capacity=POOL_CAPACITY,
        partition_strategy="uniform",
        workers=workers,
        dr_mode=dr_mode,
    )
    engine.close()
    files = {path.name: path.read_bytes() for path in sorted(root.iterdir())}
    return cube_bytes(result.storage), files, result.stats


@pytest.fixture(scope="module", params=[False, True], ids=["CURE", "CURE_DR"])
def dr_mode(request):
    return request.param


@pytest.fixture(scope="module")
def sequential(instance, tmp_path_factory, dr_mode):
    cube, files, stats = _build(
        tmp_path_factory.mktemp("seq"), instance, 1, dr_mode=dr_mode
    )
    assert stats.partitioned and stats.workers == 1
    return cube, files


@pytest.fixture
def start_methods(monkeypatch):
    """The methods ``parallel.get_context`` is asked for, in order."""
    asked = []
    get_context = parallel.get_context

    def recording(method):
        asked.append(method)
        return get_context(method)

    monkeypatch.setattr(parallel, "get_context", recording)
    return asked


class _CountingContext:
    """A multiprocessing context that counts the processes it creates."""

    def __init__(self, context) -> None:
        self.context = context
        self.processes = 0

    def __getattr__(self, name):
        return getattr(self.context, name)

    def Process(self, *args, **kwargs):  # noqa: N802 - the context's name
        self.processes += 1
        return self.context.Process(*args, **kwargs)


@pytest.fixture
def contexts(monkeypatch):
    """Every context ``parallel.get_context`` hands out, counting."""
    handed = []
    get_context = parallel.get_context

    def counting(method):
        handed.append(_CountingContext(get_context(method)))
        return handed[-1]

    monkeypatch.setattr(parallel, "get_context", counting)
    return handed


def _assert_same_build(built, sequential) -> None:
    cube, files, stats = built
    assert stats.workers == 2
    assert cube == sequential[0]
    assert files == sequential[1]


def test_single_threaded_driver_forks(
    tmp_path, instance, sequential, start_methods, dr_mode
):
    assert threading.active_count() == 1, threading.enumerate()
    built = _build(tmp_path, instance, 2, dr_mode=dr_mode)
    _assert_same_build(built, sequential)
    assert start_methods == ["fork"]


def test_driver_with_a_live_thread_spawns(
    tmp_path, instance, sequential, start_methods, dr_mode
):
    release = threading.Event()
    bystander = threading.Thread(target=release.wait, daemon=True)
    bystander.start()
    try:
        _assert_same_build(_build(tmp_path, instance, 2, dr_mode=dr_mode), sequential)
    finally:
        release.set()
        bystander.join(timeout=10)
    assert not bystander.is_alive()
    assert start_methods == ["spawn"]


def test_platform_without_fork_spawns(
    tmp_path, instance, sequential, start_methods, monkeypatch, dr_mode
):
    monkeypatch.delattr(os, "fork")
    built = _build(tmp_path, instance, 2, dr_mode=dr_mode)
    _assert_same_build(built, sequential)
    assert start_methods == ["spawn"]


def test_no_more_workers_than_root_tasks(tmp_path):
    """``workers`` is a ceiling: a process with nothing to run is not
    started, and the stats report what was."""
    small = generate_flat_dataset(
        2, 300, seed=3, cardinalities=(3, 6), aggregates=(("sum", 0),)
    )
    _cube, _files, stats = _build(tmp_path, small, 16, allowance_rows=120)
    assert stats.partitions_created == 3
    assert stats.workers == 4  # three partition tasks and the coarse task


@pytest.mark.parametrize("workers, helpers", [(1, 0), (2, 1), (3, 2), (16, 3)])
def test_the_driver_is_one_of_the_workers(tmp_path, contexts, workers, helpers):
    """``workers=N`` starts ``min(N, root tasks) - 1`` helper processes —
    none, and no context, for ``workers=1`` — and joins them all."""
    small = generate_flat_dataset(
        2, 300, seed=3, cardinalities=(3, 6), aggregates=(("sum", 0),)
    )
    _cube, _files, stats = _build(tmp_path, small, workers, allowance_rows=120)
    assert stats.partitions_created == 3  # four root tasks with the coarse one
    assert stats.workers == helpers + 1
    assert [context.processes for context in contexts] == (
        [helpers] if helpers else []
    )
    assert multiprocessing.active_children() == []


def test_pool_does_not_start_over_buffered_writes(tmp_path, instance):
    """Workers read the catalog's files (and a forked one would hold a
    second copy of the buffer): every relation the driver wrote is
    flushed before they start, and the pool checks."""
    schema, table = instance
    engine = _engine(tmp_path, instance)
    engine.create_relation("scratch", table.schema).append_batch(table.as_batch())
    pool = parallel.ProcessPoolExecutor(engine, 2)
    with pytest.raises(RuntimeError, match=r"buffered writes.*scratch"):
        build_cube(
            schema,
            engine=engine,
            relation="fact",
            pool_capacity=POOL_CAPACITY,
            partition_strategy="uniform",
            executor=pool,
        )
    assert pool.stats.tasks_run == 0
    engine.close()
