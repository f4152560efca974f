"""Executor construction and the in-memory fast path's worker count."""

from __future__ import annotations

import pytest

from repro import Engine, build_cube
from repro.datasets.synthetic import generate_flat_dataset
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryManager


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
