"""Property: local pair re-partitioning crash/resumes identically.

``test_pair_crash_resume.py`` covers the *global* pair path (the whole
relation partitioned on pairs up front).  This module covers the *local*
one: a durable build whose uniform estimate under-provisions a hot
base-level member, so one partition overflows at load time, cannot be
split on a finer level of the (flat) first dimension, and is split on a
level pair at its ``parent_level`` mid-phase-1 — between checkpoints.  The
recorded trace must contain the ``repartition.pair:<partition>`` site,
and a build crashed at any recorded point — including a window right
around that site, while the ``.sub<i>``/``.coarseN*`` scaffolding is
half-written — must resume to a cube byte-identical to the
uninterrupted durable build, which a plain ``build_cube`` at one and two
workers must match too (this pins the NT/CAT split that
``tests/integration/test_skew_stress.py`` leaves uncompared).
"""

from __future__ import annotations

import os

import pytest

from repro import CubeSchema, Engine, Table, build_cube
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
MAX_CRASH_POINTS = int(os.environ.get("MAX_CRASH_POINTS", "8"))
POOL_CAPACITY = 200
PARTITION_ALLOWANCE_ROWS = 300


def _instance() -> tuple[CubeSchema, Table]:
    """~70% of the rows land on one base member of the flat dimension 0,
    far past the uniform estimate of 100 rows per partition."""
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
    """Uninterrupted durable build: reference cube plus site trace."""
    schema, table = instance
    engine = _fresh_engine(tmp_path_factory.mktemp("baseline"), schema, table)
    recorder = FaultInjector.recording()
    engine.install_faults(recorder)
    durable = _durable(schema, engine)
    result = durable.build()
    assert result.stats.pair_repartitioned_partitions >= 1, (
        "dataset must exercise the local pair re-partitioning path"
    )
    pair_sites = recorder.sites("repartition.pair:*")
    assert pair_sites, "trace must record the local pair decision site"
    assert not recorder.sites("repartition.single:*"), (
        "a flat dimension 0 leaves no finer level for a single split"
    )
    report = verify_cube(engine.catalog, durable.manifest_path)
    assert report.ok, report.describe()
    reference = cube_bytes(result.storage)
    engine.close()
    assert [
        _plain_cube(tmp_path_factory, instance, workers) for workers in (1, 2)
    ] == [reference, reference], "a plain build must write the durable bytes"
    return reference, list(recorder.trace)


def _plain_cube(tmp_path_factory, instance, workers: int) -> tuple:
    """``build_cube`` over the same relation and budget, without a journal."""
    schema, table = instance
    engine = _fresh_engine(tmp_path_factory.mktemp("plain"), schema, table)
    result = build_cube(
        schema,
        engine=engine,
        relation="fact",
        pool_capacity=POOL_CAPACITY,
        partition_strategy="uniform",
        workers=workers,
    )
    cube = cube_bytes(result.storage)
    engine.close()
    return cube


def _crash_then_resume(tmp_path, instance, plan) -> tuple:
    schema, table = instance
    engine = _fresh_engine(tmp_path, schema, table)
    engine.install_faults(FaultInjector(plan=plan))
    durable = _durable(schema, engine)
    with pytest.raises(InjectedCrash):
        durable.build()
    engine.close()

    engine = Engine(Catalog(tmp_path), MemoryManager(_budget(schema)))
    durable = _durable(schema, engine)
    result = durable.resume()
    report = verify_cube(engine.catalog, durable.manifest_path)
    assert report.ok, report.describe()
    cube = cube_bytes(result.storage)
    engine.close()
    return cube


def test_crash_anywhere_resume_identical(tmp_path_factory, instance, baseline):
    reference, trace = baseline
    points = seeded_crash_indices(FAULT_SEED, len(trace), MAX_CRASH_POINTS)
    assert points, "recording run produced no injection points"
    for point in points:
        tmp = tmp_path_factory.mktemp(f"localcrash{point}")
        cube = _crash_then_resume(
            tmp,
            instance,
            (FaultSpec(site="*", kind=FaultKind.CRASH, hit=point + 1),),
        )
        assert cube == reference, (
            f"cube differs after crash at point {point} ({trace[point]})"
        )


def test_crash_window_around_pair_split_resume_identical(
    tmp_path_factory, instance, baseline
):
    """Crash at the local pair decision itself and at the writes right
    after it, while sub-partitions and local coarse working sets are
    half-materialized; resume must rebuild the same scaffolding."""
    reference, trace = baseline
    pair_index = next(
        i for i, site in enumerate(trace)
        if site.startswith("repartition.pair:")
    )
    window = [
        offset for offset in (0, 1, 2, 4)
        if pair_index + offset < len(trace)
    ]
    for offset in window:
        point = pair_index + offset
        tmp = tmp_path_factory.mktemp(f"localwindow{offset}")
        cube = _crash_then_resume(
            tmp,
            instance,
            (FaultSpec(site="*", kind=FaultKind.CRASH, hit=point + 1),),
        )
        assert cube == reference, (
            f"cube differs after crash at pair-split offset {offset} "
            f"({trace[point]})"
        )


def test_resume_after_completion_reloads_identically(
    tmp_path_factory, instance, baseline
):
    reference, _trace = baseline
    schema, table = instance
    root = tmp_path_factory.mktemp("localreload")
    engine = _fresh_engine(root, schema, table)
    _durable(schema, engine).build()
    engine.close()

    engine = Engine(Catalog(root), MemoryManager(_budget(schema)))
    result = _durable(schema, engine).resume()
    assert cube_bytes(result.storage) == reference
    engine.close()


def test_parallel_durable_build_matches_reference(
    tmp_path_factory, instance, baseline
):
    """A durable build under the work-stealing executor writes the same
    cube — and passes the same verification — as the sequential one, even
    though the local pair split happens inside a worker process."""
    reference, _trace = baseline
    schema, table = instance
    root = tmp_path_factory.mktemp("localpar")
    engine = _fresh_engine(root, schema, table)
    durable = _durable(schema, engine, workers=2)
    result = durable.build()
    assert result.stats.pair_repartitioned_partitions >= 1
    assert result.stats.workers == 2
    report = verify_cube(engine.catalog, durable.manifest_path)
    assert report.ok, report.describe()
    assert cube_bytes(result.storage) == reference
    engine.close()


def test_crash_then_parallel_resume_identical(
    tmp_path_factory, instance, baseline
):
    """Executor choice is not part of the durable contract: a build
    crashed under the sequential executor resumes under the parallel one
    (and lands on the same bytes) — checkpoints only record completed
    units, never who ran them."""
    reference, trace = baseline
    points = seeded_crash_indices(FAULT_SEED, len(trace), MAX_CRASH_POINTS)[:3]
    schema, table = instance
    for point in points:
        tmp = tmp_path_factory.mktemp(f"localxres{point}")
        engine = _fresh_engine(tmp, schema, table)
        engine.install_faults(
            FaultInjector(
                plan=(FaultSpec(site="*", kind=FaultKind.CRASH, hit=point + 1),)
            )
        )
        with pytest.raises(InjectedCrash):
            _durable(schema, engine).build()
        engine.close()

        engine = Engine(Catalog(tmp), MemoryManager(_budget(schema)))
        durable = _durable(schema, engine, workers=2)
        result = durable.resume()
        report = verify_cube(engine.catalog, durable.manifest_path)
        assert report.ok, report.describe()
        assert cube_bytes(result.storage) == reference, (
            f"parallel resume differs after crash at point {point} "
            f"({trace[point]})"
        )
        engine.close()
