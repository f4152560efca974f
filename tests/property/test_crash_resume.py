"""Property: crash a durable build anywhere, resume, get the identical cube.

A recording run enumerates every injection point of a partitioned durable
build.  For each sampled point (``FAULT_SEED`` selects the sample; the CI
fault matrix unions several seeds toward full coverage) the build is
crashed exactly there, resumed with a *fresh* engine — simulating a new
process that sees only what reached disk — and the resumed cube must be
byte-identical to the uninterrupted build: same NT rows, TT row-ids, CAT
rows per node, same AGGREGATES relation, same CAT format.  ``verify_cube``
must also pass, replaying the manifest's checksums and cardinalities.  A
plain ``build_cube`` of the same relation, at one and two workers, must
write those bytes too: every partitioned build flushes the signature pool
at each partition barrier, journalled or not.

Torn writes (power loss mid-``write``) and transient I/O errors (absorbed
by the bounded-retry wrapper, no resume needed) are exercised on top of
clean crashes.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import (
    CubeSchema,
    Engine,
    Table,
    build_cube,
    linear_dimension,
    make_aggregates,
)
from repro.core.recovery import DurableCubeBuild, verify_cube
from repro.faults import FaultInjector, FaultKind, FaultSpec, seeded_crash_indices
from repro.relational.catalog import Catalog
from repro.relational.durable import InjectedCrash
from repro.relational.memory import MemoryManager
from tests.support.rows import cube_bytes, table_of

pytestmark = pytest.mark.crash

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))
MAX_CRASH_POINTS = int(os.environ.get("MAX_CRASH_POINTS", "12"))
POOL_CAPACITY = 100


def _instance() -> tuple[CubeSchema, Table]:
    a = linear_dimension("A", [("A0", 12), ("A1", 4), ("A2", 2)])
    b = linear_dimension("B", [("B0", 5)])
    schema = CubeSchema(
        (a, b), make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )
    rng = random.Random(7)
    rows = [
        (rng.randrange(12), rng.randrange(5), rng.randrange(100))
        for _ in range(400)
    ]
    return schema, table_of(schema.fact_schema, rows)


def _budget(schema: CubeSchema, table: Table) -> int:
    fact_bytes = len(table) * schema.fact_schema.row_size_bytes
    return int(fact_bytes * 0.6)  # forces the partitioned path


def _fresh_engine(root, schema, table, budget) -> Engine:
    engine = Engine(Catalog(root), MemoryManager(budget))
    engine.store_table("fact", table)
    return engine


@pytest.fixture(scope="module")
def instance():
    return _instance()


@pytest.fixture(scope="module")
def baseline(instance, tmp_path_factory):
    """Uninterrupted durable build: the reference cube plus the site trace."""
    schema, table = instance
    budget = _budget(schema, table)
    engine = _fresh_engine(
        tmp_path_factory.mktemp("baseline"), schema, table, budget
    )
    recorder = FaultInjector.recording()
    engine.install_faults(recorder)
    durable = DurableCubeBuild(schema, engine, "fact", pool_capacity=POOL_CAPACITY)
    result = durable.build()
    assert result.stats.partitioned, "dataset must exercise the partitioned path"
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
    engine = _fresh_engine(
        tmp_path_factory.mktemp("plain"), schema, table, _budget(schema, table)
    )
    result = build_cube(
        schema,
        engine=engine,
        relation="fact",
        pool_capacity=POOL_CAPACITY,
        workers=workers,
    )
    cube = cube_bytes(result.storage)
    engine.close()
    return cube


def _crash_then_resume(tmp_path, instance, plan) -> tuple:
    """Run a durable build under ``plan`` until it crashes, then resume
    from disk with a fresh engine (fault-free, like a restarted process)."""
    schema, table = instance
    budget = _budget(schema, table)
    engine = _fresh_engine(tmp_path, schema, table, budget)
    engine.install_faults(FaultInjector(plan=plan))
    durable = DurableCubeBuild(schema, engine, "fact", pool_capacity=POOL_CAPACITY)
    with pytest.raises(InjectedCrash):
        durable.build()
    engine.close()

    engine = Engine(Catalog(tmp_path), MemoryManager(budget))
    durable = DurableCubeBuild(schema, engine, "fact", pool_capacity=POOL_CAPACITY)
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
        tmp = tmp_path_factory.mktemp(f"crash{point}")
        cube = _crash_then_resume(
            tmp,
            instance,
            (FaultSpec(site="*", kind=FaultKind.CRASH, hit=point + 1),),
        )
        assert cube == reference, (
            f"cube differs after crash at point {point} ({trace[point]})"
        )


def test_torn_write_resume_identical(tmp_path_factory, instance, baseline):
    """Power loss mid-write leaves a prefix on disk; resume must not trust it."""
    reference, trace = baseline
    write_sites = sorted({s for s in trace if s.startswith("heap.write:")})
    assert write_sites, "expected heap.write sites in the trace"
    rng = random.Random(FAULT_SEED)
    for site in rng.sample(write_sites, min(3, len(write_sites))):
        tmp = tmp_path_factory.mktemp("torn")
        cube = _crash_then_resume(
            tmp,
            instance,
            (
                FaultSpec(
                    site=site,
                    kind=FaultKind.TORN_WRITE,
                    hit=1,
                    keep_fraction=0.5,
                ),
            ),
        )
        assert cube == reference, f"cube differs after torn write at {site}"


def test_transient_errors_absorbed_without_resume(
    tmp_path_factory, instance, baseline
):
    """Transient I/O errors are retried in place; the build just succeeds."""
    reference, _trace = baseline
    schema, table = instance
    budget = _budget(schema, table)
    engine = _fresh_engine(
        tmp_path_factory.mktemp("transient"), schema, table, budget
    )
    injector = FaultInjector(
        plan=(
            FaultSpec(site="heap.read:*", kind=FaultKind.TRANSIENT, hit=2, times=2),
            FaultSpec(site="heap.write:*", kind=FaultKind.TRANSIENT, hit=3),
            FaultSpec(site="heap.flush:*", kind=FaultKind.TRANSIENT, hit=1),
        )
    )
    engine.install_faults(injector)
    durable = DurableCubeBuild(schema, engine, "fact", pool_capacity=POOL_CAPACITY)
    result = durable.build()
    assert injector.fired, "expected at least one transient fault to fire"
    assert cube_bytes(result.storage) == reference
    report = verify_cube(engine.catalog, durable.manifest_path)
    assert report.ok, report.describe()
    engine.close()


def test_resume_after_completion_reloads_identically(
    tmp_path_factory, instance, baseline
):
    reference, _trace = baseline
    schema, table = instance
    budget = _budget(schema, table)
    root = tmp_path_factory.mktemp("reload")
    engine = _fresh_engine(root, schema, table, budget)
    durable = DurableCubeBuild(schema, engine, "fact", pool_capacity=POOL_CAPACITY)
    durable.build()
    engine.close()

    engine = Engine(Catalog(root), MemoryManager(budget))
    result = DurableCubeBuild(
        schema, engine, "fact", pool_capacity=POOL_CAPACITY
    ).resume()
    assert cube_bytes(result.storage) == reference
    engine.close()
