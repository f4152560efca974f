"""Property: pair-partitioned durable builds crash/resume identically.

The single-dimension variant of this property lives in
``test_crash_resume.py``; this module exercises the pair-partitioned
pipeline (Section 4's omitted case): a dataset whose first dimension is
too coarse for sound single-dimension partitions forces
``DurableCubeBuild`` onto (A_L, B_M) pair partitions with two coarse
nodes, all staged, published, and checkpointed.  A build crashed at any
recorded injection point must resume — from a fresh engine that sees
only what reached disk — to a cube byte-identical to the uninterrupted
durable build, which a plain ``build_cube`` at one and two workers must
match too.
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
    flat_dimension,
    linear_dimension,
    make_aggregates,
)
from repro.core.recovery import BuildManifest, DurableCubeBuild, verify_cube
from repro.faults import FaultInjector, FaultKind, FaultSpec, seeded_crash_indices
from repro.relational.catalog import Catalog
from repro.relational.durable import InjectedCrash
from repro.relational.memory import MemoryManager
from tests.support.rows import cube_bytes, table_of

pytestmark = pytest.mark.crash

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))
MAX_CRASH_POINTS = int(os.environ.get("MAX_CRASH_POINTS", "8"))
POOL_CAPACITY = 200
BUDGET = 16_000  # below any sound single-dimension split, above pair needs


def _instance() -> tuple[CubeSchema, Table]:
    """Dimension 0 has only 4 members, so single-dimension partitioning
    cannot meet the budget and the build must partition on pairs."""
    a = flat_dimension("A", 4)
    b = linear_dimension("B", [("B0", 30), ("B1", 6)])
    c = flat_dimension("C", 5)
    schema = CubeSchema(
        (a, b, c), make_aggregates(("sum", 0), ("count", 0)), 1
    )
    rng = random.Random(13)
    rows = [
        (rng.randrange(4), rng.randrange(30), rng.randrange(5),
         rng.randrange(20))
        for _ in range(2400)
    ]
    return schema, table_of(schema.fact_schema, rows)


def _fresh_engine(root, schema, table) -> Engine:
    engine = Engine(Catalog(root), MemoryManager(BUDGET))
    engine.store_table("fact", table)
    return engine


@pytest.fixture(scope="module")
def instance():
    return _instance()


@pytest.fixture(scope="module")
def baseline(instance, tmp_path_factory):
    """Uninterrupted durable pair build: reference cube plus site trace."""
    schema, table = instance
    engine = _fresh_engine(tmp_path_factory.mktemp("baseline"), schema, table)
    recorder = FaultInjector.recording()
    engine.install_faults(recorder)
    durable = DurableCubeBuild(
        schema, engine, "fact", pool_capacity=POOL_CAPACITY
    )
    result = durable.build()
    assert len(result.decision.levels) == 2, (
        "dataset must exercise the pair-partitioned path"
    )
    manifest = BuildManifest.load(durable.manifest_path)
    assert manifest.levels == list(result.decision.levels)
    assert len(manifest.coarse) == 2
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
        workers=workers,
    )
    cube = cube_bytes(result.storage)
    engine.close()
    return cube


def _crash_then_resume(tmp_path, instance, plan) -> tuple:
    schema, table = instance
    engine = _fresh_engine(tmp_path, schema, table)
    engine.install_faults(FaultInjector(plan=plan))
    durable = DurableCubeBuild(
        schema, engine, "fact", pool_capacity=POOL_CAPACITY
    )
    with pytest.raises(InjectedCrash):
        durable.build()
    engine.close()

    engine = Engine(Catalog(tmp_path), MemoryManager(BUDGET))
    durable = DurableCubeBuild(
        schema, engine, "fact", pool_capacity=POOL_CAPACITY
    )
    result = durable.resume()
    report = verify_cube(engine.catalog, durable.manifest_path)
    assert report.ok, report.describe()
    cube = cube_bytes(result.storage)
    engine.close()
    return cube


def test_pair_build_crash_anywhere_resume_identical(
    tmp_path_factory, instance, baseline
):
    reference, trace = baseline
    points = seeded_crash_indices(FAULT_SEED, len(trace), MAX_CRASH_POINTS)
    assert points, "recording run produced no injection points"
    for point in points:
        tmp = tmp_path_factory.mktemp(f"paircrash{point}")
        cube = _crash_then_resume(
            tmp,
            instance,
            (FaultSpec(site="*", kind=FaultKind.CRASH, hit=point + 1),),
        )
        assert cube == reference, (
            f"cube differs after crash at point {point} ({trace[point]})"
        )


def test_pair_build_torn_write_resume_identical(
    tmp_path_factory, instance, baseline
):
    reference, trace = baseline
    write_sites = sorted({s for s in trace if s.startswith("heap.write:")})
    assert write_sites, "expected heap.write sites in the trace"
    rng = random.Random(FAULT_SEED)
    for site in rng.sample(write_sites, min(2, len(write_sites))):
        tmp = tmp_path_factory.mktemp("pairtorn")
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


def test_pair_resume_after_completion_reloads_identically(
    tmp_path_factory, instance, baseline
):
    reference, _trace = baseline
    schema, table = instance
    root = tmp_path_factory.mktemp("pairreload")
    engine = _fresh_engine(root, schema, table)
    durable = DurableCubeBuild(
        schema, engine, "fact", pool_capacity=POOL_CAPACITY
    )
    durable.build()
    engine.close()

    engine = Engine(Catalog(root), MemoryManager(BUDGET))
    result = DurableCubeBuild(
        schema, engine, "fact", pool_capacity=POOL_CAPACITY
    ).resume()
    assert cube_bytes(result.storage) == reference
    engine.close()
