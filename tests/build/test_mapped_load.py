"""Mapped loads are indistinguishable from full loads: same working set,
same memory accounting, same fault sites, same task outcomes."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Engine, build_cube
from repro.build.runtime import execute_task
from repro.build.tasks import KIND_COARSE_RUN, KIND_PARTITION, TaskSpec
from repro.core.partition import load_coarse_working_set, partition_relation
from repro.core.partition_select import select_partition_level
from repro.core.signature import SignaturePool
from repro.core.workingset import WorkingSet
from repro.datasets.synthetic import generate_flat_dataset
from repro.faults import FaultInjector
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryManager

POOL_CAPACITY = 200


def _partitioned_engine(root):
    """A small engine whose fact relation has been partitioned on disk."""
    schema, table = generate_flat_dataset(
        2,
        600,
        zipf=0.6,
        seed=3,
        cardinalities=(10, 6),
        aggregates=(("sum", 0), ("count", 0)),
    )
    pool_bytes = SignaturePool.size_bytes(POOL_CAPACITY, schema.n_aggregates)
    row_bytes = schema.partition_schema.row_size_bytes
    engine = Engine(Catalog(root), MemoryManager(pool_bytes + 250 * row_bytes))
    engine.store_table("fact", table)
    from repro.core.cure import BuildStats

    decision = select_partition_level(engine, "fact", schema, "uniform")
    written = partition_relation(engine, "fact", schema, decision, BuildStats())
    (coarse_name,) = written.coarse_names
    return engine, schema, decision, written.partition_names, coarse_name


def _assert_same_working_set(a: WorkingSet, b: WorkingSet) -> None:
    assert len(a) == len(b)
    for col_a, col_b in zip(a.dims, b.dims):
        assert np.array_equal(col_a, col_b)
    assert np.array_equal(a.aggs, b.aggs)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.rowids, b.rowids)


def test_partition_array_equals_partition_table(tmp_path):
    engine, schema, _decision, partitions, _coarse = _partitioned_engine(
        tmp_path / "eng"
    )
    for name in partitions:
        with engine.load(name) as table:
            via_table = WorkingSet.from_partition_table(schema, table)
        with engine.load_mapped(name) as records:
            via_array = WorkingSet.from_partition_array(schema, records)
        _assert_same_working_set(via_table, via_array)
    engine.close()


def test_coarse_array_equals_row_loader(tmp_path):
    engine, schema, _decision, _partitions, coarse_name = _partitioned_engine(
        tmp_path / "eng"
    )
    via_rows, release = load_coarse_working_set(engine, coarse_name, schema)
    release()
    with engine.load_mapped(coarse_name) as records:
        via_array = WorkingSet.from_coarse_array(schema, records)
    _assert_same_working_set(via_rows, via_array)
    engine.close()


def test_mapped_load_fires_identical_sites_and_bytes(tmp_path):
    engine, schema, _decision, partitions, _coarse = _partitioned_engine(
        tmp_path / "eng"
    )
    name = partitions[0]
    recorder = FaultInjector.recording()
    engine.install_faults(recorder)

    base = len(recorder.trace)
    loaded = engine.load(name)
    loaded.release()
    full_trace = tuple(recorder.trace[base:])
    full_peak = engine.memory.peak_bytes

    base = len(recorder.trace)
    mapped = engine.load_mapped(name)
    mapped.release()
    mapped_trace = tuple(recorder.trace[base:])

    assert mapped_trace == full_trace
    assert engine.memory.peak_bytes == full_peak
    assert engine.memory.used_bytes == 0
    engine.close()


def test_execute_task_mapped_equals_inline(tmp_path):
    """The worker load path (mapped) and the driver load path (full)
    produce identical event streams for every root task kind."""
    engine, schema, decision, partitions, coarse_name = _partitioned_engine(
        tmp_path / "eng"
    )
    floors = [0] * schema.n_dimensions
    floors[0] = decision.levels[0] + 1
    tasks = [
        TaskSpec(f"u{i}:{name}", KIND_PARTITION, name, levels=decision.levels, unit=i)
        for i, name in enumerate(partitions)
    ]
    tasks.append(
        TaskSpec(
            f"u{len(tasks)}:{coarse_name}",
            KIND_COARSE_RUN,
            coarse_name,
            base_floor=tuple(floors),
            unit=len(tasks),
        )
    )
    for task in tasks:
        inline = execute_task(engine, schema, task, 1, use_mapped=False)
        mapped = execute_task(engine, schema, task, 1, use_mapped=True)
        assert np.array_equal(inline.tts, mapped.tts), task.task_id
        assert np.array_equal(inline.sigs, mapped.sigs), task.task_id
        assert inline.stats.nodes_aggregated == mapped.stats.nodes_aggregated
        assert inline.stats.tt_written == mapped.stats.tt_written
    engine.close()


def test_build_cube_rejects_bad_worker_count(tmp_path):
    from repro.build.parallel import ProcessPoolExecutor

    engine = Engine(Catalog(tmp_path / "eng"), MemoryManager())
    with pytest.raises(ValueError):
        ProcessPoolExecutor(engine, 0)
    engine.close()


def test_in_memory_build_ignores_workers():
    schema, table = generate_flat_dataset(
        2, 50, cardinalities=(4, 3), aggregates=(("sum", 0),)
    )
    sequential = build_cube(schema, table=table, pool_capacity=None)
    parallel = build_cube(schema, table=table, pool_capacity=None, workers=4)
    assert sorted(parallel.storage.nodes) == sorted(sequential.storage.nodes)
