"""Property: a parallel build survives a worker dying at any task site.

A ``workers=2`` build runs its tasks in two processes: the driver and
one helper.  An :class:`InjectedCrash` inside the helper kills that
*process* outright (``os._exit``, no cleanup, no exception
marshalling), and the driver turns the silence into
:class:`WorkerCrashed`; one inside a task the driver runs itself is the
plain :class:`InjectedCrash`, as in the other property suites.  Which
process runs a task depends on work stealing, so a swept site may raise
either — and both must be ordinary crash points of a durable build: the
manifest still references the last checkpoint, so a fault-free
``resume()`` (under any ``workers``) recovers a cube byte-identical to
the uninterrupted build.

Sites are enumerated from a ``workers=1`` recording run: every process
fires the same ``build.worker:<task_id>`` /
``build.worker:<task_id>.publish`` pairs on its own injector, and task
ids are deterministic, so the recorded list is exactly the set of
task-side kill points.  Each swept spec pins one concrete site
(``hit=1``) — hit-counting on a wildcard would not replay across process
boundaries, since every process counts its own fires.
"""

from __future__ import annotations

import os

import pytest

from repro import CubeSchema, Engine, Table, build_cube
from repro.build import ProcessPoolExecutor, WorkerCrashed
from repro.core.recovery import DurableCubeBuild, verify_cube
from repro.core.signature import SignaturePool
from repro.datasets.synthetic import generate_flat_dataset
from repro.faults import FaultInjector, FaultKind, FaultSpec, seeded_crash_indices
from repro.relational.catalog import Catalog
from repro.relational.durable import InjectedCrash
from repro.relational.memory import MemoryManager
from tests.support.rows import cube_bytes

pytestmark = pytest.mark.crash

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))
MAX_CRASH_POINTS = int(os.environ.get("MAX_CRASH_POINTS", "6"))
POOL_CAPACITY = 200
PARTITION_ALLOWANCE_ROWS = 300
WORKERS = 2


def _instance() -> tuple[CubeSchema, Table]:
    """The intra-member-skew instance: one hot base member forces a local
    pair split inside whichever worker draws that partition, so the sweep
    also kills workers mid-expansion."""
    return generate_flat_dataset(
        2,
        1_200,
        zipf=0.0,
        seed=7,
        cardinalities=(12, 8),
        aggregates=(("sum", 0), ("count", 0)),
        hot_member_fraction=0.7,
    )


def _budget(schema: CubeSchema) -> int:
    pool_bytes = SignaturePool.size_bytes(POOL_CAPACITY, schema.n_aggregates)
    row_bytes = schema.partition_schema.row_size_bytes
    return pool_bytes + PARTITION_ALLOWANCE_ROWS * row_bytes


def _fresh_engine(root, schema, table) -> Engine:
    engine = Engine(Catalog(root), MemoryManager(_budget(schema)))
    engine.store_table("fact", table)
    return engine


def _durable(schema, engine, workers: int = 1) -> DurableCubeBuild:
    return DurableCubeBuild(
        schema,
        engine,
        "fact",
        pool_capacity=POOL_CAPACITY,
        partition_strategy="uniform",
        workers=workers,
    )


@pytest.fixture(scope="module")
def instance():
    return _instance()


@pytest.fixture(scope="module")
def baseline(instance, tmp_path_factory):
    """Sequential recording run: reference bytes + worker-site list."""
    schema, table = instance
    engine = _fresh_engine(tmp_path_factory.mktemp("wdbase"), schema, table)
    recorder = FaultInjector.recording()
    engine.install_faults(recorder)
    durable = _durable(schema, engine)
    result = durable.build()
    assert result.stats.pair_repartitioned_partitions >= 1
    worker_sites = recorder.sites("build.worker:*")
    assert worker_sites, "the build must fire per-task worker sites"
    report = verify_cube(engine.catalog, durable.manifest_path)
    assert report.ok, report.describe()
    reference = cube_bytes(result.storage)
    engine.close()
    return reference, worker_sites


def test_worker_death_at_every_task_site_resumes_identical(
    tmp_path_factory, instance, baseline
):
    reference, worker_sites = baseline
    schema, table = instance
    points = seeded_crash_indices(
        FAULT_SEED, len(worker_sites), MAX_CRASH_POINTS
    )
    assert points, "recording run produced no worker sites"
    for point in points:
        site = worker_sites[point]
        tmp = tmp_path_factory.mktemp(f"wd{point}")
        engine = _fresh_engine(tmp, schema, table)
        engine.install_faults(
            FaultInjector(
                plan=(FaultSpec(site=site, kind=FaultKind.CRASH, hit=1),)
            )
        )
        # The helper ran the task, or the driver did.
        with pytest.raises((WorkerCrashed, InjectedCrash)):
            _durable(schema, engine, workers=WORKERS).build()
        engine.close()

        engine = Engine(Catalog(tmp), MemoryManager(_budget(schema)))
        durable = _durable(schema, engine, workers=WORKERS)
        result = durable.resume()
        report = verify_cube(engine.catalog, durable.manifest_path)
        assert report.ok, report.describe()
        assert cube_bytes(result.storage) == reference, (
            f"cube differs after worker death at {site}"
        )
        engine.close()


def test_worker_death_mid_unit_never_loses_checkpoints(
    tmp_path_factory, instance, baseline
):
    """Kill the process running the *last* task: every earlier unit's
    checkpoint must survive, so the resume re-runs only the tail."""
    reference, worker_sites = baseline
    schema, table = instance
    publish_sites = [s for s in worker_sites if s.endswith(".publish")]
    site = publish_sites[-1]
    tmp = tmp_path_factory.mktemp("wdtail")
    engine = _fresh_engine(tmp, schema, table)
    engine.install_faults(
        FaultInjector(plan=(FaultSpec(site=site, kind=FaultKind.CRASH, hit=1),))
    )
    with pytest.raises((WorkerCrashed, InjectedCrash)):
        _durable(schema, engine, workers=WORKERS).build()
    engine.close()

    engine = Engine(Catalog(tmp), MemoryManager(_budget(schema)))
    durable = _durable(schema, engine, workers=WORKERS)
    result = durable.resume()
    assert cube_bytes(result.storage) == reference
    report = verify_cube(engine.catalog, durable.manifest_path)
    assert report.ok, report.describe()
    engine.close()


def test_worker_death_is_seen_while_the_survivor_is_busy(
    tmp_path_factory, instance, baseline
):
    """Worker 0 dies entering its first task while worker 1 still has a
    deque of tasks to run and everything of worker 0's to steal.  The
    driver must raise at the death — it waits on the workers' sentinels,
    not for a lull in the results — so almost nothing has been delivered;
    a liveness check made only when the result channel falls silent would
    first let the survivor finish every other task of the build."""
    _reference, worker_sites = baseline
    schema, table = instance
    first_site = worker_sites[0]
    assert first_site.endswith(":u0:fact.part0"), first_site
    # Sites read ``build.worker:u<unit>:<relation>``; every unit is a root.
    n_root_tasks = len({site.split(":")[1] for site in worker_sites})
    assert n_root_tasks >= 6
    engine = _fresh_engine(tmp_path_factory.mktemp("wdbusy"), schema, table)
    engine.install_faults(
        FaultInjector(
            plan=(FaultSpec(site=first_site, kind=FaultKind.CRASH, hit=1),)
        )
    )
    pool = ProcessPoolExecutor(engine, WORKERS)
    with pytest.raises(
        WorkerCrashed, match="worker 0 died while running task u0:fact.part0"
    ):
        build_cube(
            schema,
            engine=engine,
            relation="fact",
            pool_capacity=POOL_CAPACITY,
            partition_strategy="uniform",
            executor=pool,
        )
    engine.close()
    assert pool.stats.workers == WORKERS
    assert pool.stats.tasks_run < n_root_tasks - 1
