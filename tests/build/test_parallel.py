"""Executor construction, the in-memory fast path's worker count, and
what a build reports whatever ``workers`` runs it."""

from __future__ import annotations

import multiprocessing

import pytest

from repro import Engine, build_cube
from repro.cli import main as cli_main
from repro.core.recovery import DurableCubeBuild
from repro.core.signature import SignaturePool
from repro.datasets.synthetic import generate_flat_dataset
from repro.faults import FaultInjector
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryManager
from tests.support.rows import cube_bytes

POOL_CAPACITY = 200


def test_build_cube_rejects_bad_worker_count(tmp_path, capsys):
    from repro.build.parallel import ProcessPoolExecutor

    schema, table = generate_flat_dataset(
        2, 50, cardinalities=(4, 3), aggregates=(("sum", 0),)
    )
    engine = Engine(Catalog(tmp_path / "eng"), MemoryManager())
    engine.store_table("fact", table)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ProcessPoolExecutor(engine, workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            build_cube(schema, table=table, workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            build_cube(schema, engine=engine, relation="fact", workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            DurableCubeBuild(schema, engine, "fact", workers=workers)

        with pytest.raises(SystemExit) as exited:
            cli_main([
                "build", "--csv", str(tmp_path / "fact.csv"),
                "--spec", str(tmp_path / "spec.json"),
                "--out", str(tmp_path / "cube"), "--workers", str(workers),
            ])
        assert exited.value.code == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "cube").exists()
    engine.close()


def test_in_memory_build_ignores_workers():
    schema, table = generate_flat_dataset(
        2, 50, cardinalities=(4, 3), aggregates=(("sum", 0),)
    )
    sequential = build_cube(schema, table=table, pool_capacity=None)
    parallel = build_cube(schema, table=table, pool_capacity=None, workers=4)
    assert sorted(parallel.storage.nodes) == sorted(sequential.storage.nodes)


@pytest.fixture(scope="module")
def skewed_builds(tmp_path_factory):
    """One recorded build per ``workers`` of an instance whose hot base
    member forces a local pair split in whichever process draws it:
    ``workers -> (stats, trace, cube bytes, catalog files)``."""
    schema, table = generate_flat_dataset(
        2,
        1_200,
        zipf=0.0,
        seed=7,
        cardinalities=(12, 8),
        aggregates=(("sum", 0), ("count", 0)),
        hot_member_fraction=0.7,
    )
    budget = (
        SignaturePool.size_bytes(POOL_CAPACITY, schema.n_aggregates)
        + 300 * schema.partition_schema.row_size_bytes
    )
    builds = {}
    for workers in (1, 2, 3):
        root = tmp_path_factory.mktemp(f"skew{workers}")
        engine = Engine(Catalog(root), MemoryManager(budget))
        engine.store_table("fact", table)
        recorder = FaultInjector.recording()
        engine.install_faults(recorder)
        result = build_cube(
            schema,
            engine=engine,
            relation="fact",
            pool_capacity=POOL_CAPACITY,
            partition_strategy="uniform",
            workers=workers,
        )
        # Every helper was joined: its CPU is in RUSAGE_CHILDREN.
        assert multiprocessing.active_children() == []
        engine.close()
        files = {path.name: path.read_bytes() for path in sorted(root.iterdir())}
        builds[workers] = (
            result.stats, list(recorder.trace), cube_bytes(result.storage), files
        )
    return builds


def test_every_worker_count_builds_the_same_cube(skewed_builds):
    stats, _trace, cube, files = skewed_builds[1]
    assert stats.pair_repartitioned_partitions >= 1
    for workers in (2, 3):
        other, _trace, other_cube, other_files = skewed_builds[workers]
        assert other.workers == workers
        assert other.tasks_run == stats.tasks_run
        assert other_cube == cube
        assert other_files == files


def test_recording_trace_is_the_same_for_every_worker_count(skewed_builds):
    """Every fire, not only ``build.worker:*``: a task's slice is merged
    at its replay position whichever process ran it."""
    trace = skewed_builds[1][1]
    assert any(site.startswith("repartition.pair:") for site in trace)
    for workers in (2, 3):
        assert skewed_builds[workers][1] == trace


def test_peak_worker_bytes_is_the_same_for_every_worker_count(skewed_builds):
    peaks = {
        workers: built[0].peak_worker_bytes
        for workers, built in skewed_builds.items()
    }
    assert peaks[1] > 0
    assert peaks == dict.fromkeys((1, 2, 3), peaks[1])
