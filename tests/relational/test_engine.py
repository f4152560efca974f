"""Unit tests for the Engine facade."""

import pytest

from repro.relational.catalog import Catalog
from repro.relational.engine import Engine
from repro.relational.memory import MemoryBudgetExceeded, MemoryManager
from repro.relational.schema import TableSchema
from repro.relational.table import Table

SCHEMA = TableSchema.of("a", "b")


def make_engine(tmp_path, budget=None) -> Engine:
    return Engine(Catalog(tmp_path / "cat"), MemoryManager(budget))


def test_store_and_load_roundtrip(tmp_path):
    engine = make_engine(tmp_path)
    table = Table(SCHEMA, [(1, 2), (3, 4)])
    engine.store_table("r", table)
    with engine.load("r") as records:
        assert records.tolist() == table.to_rows()
    engine.close()


def test_load_sees_buffered_appends(tmp_path):
    """A map sees only the file, so a relation with appends still in its
    write buffer is flushed first: every row comes back."""
    engine = make_engine(tmp_path)
    heap = engine.create_relation("r", SCHEMA)
    heap.append_many([(i, -i) for i in range(100)])
    assert heap.unflushed
    with engine.load("r") as records:
        assert records.tolist() == [(i, -i) for i in range(100)]
    assert not heap.unflushed
    engine.close()


def test_load_reserves_and_releases_budget(tmp_path):
    table = Table(SCHEMA, [(i, i) for i in range(10)])
    engine = make_engine(tmp_path, budget=10 * SCHEMA.row_size_bytes)
    engine.store_table("r", table)
    loaded = engine.load("r")
    assert engine.memory.used_bytes == table.size_bytes
    # A second concurrent load must not fit.
    with pytest.raises(MemoryBudgetExceeded):
        engine.load("r")
    loaded.release()
    assert engine.memory.used_bytes == 0
    # Released twice is a no-op.
    loaded.release()
    engine.close()


def test_relation_fits_in_memory(tmp_path):
    table = Table(SCHEMA, [(i, i) for i in range(10)])
    engine = make_engine(tmp_path, budget=5 * SCHEMA.row_size_bytes)
    engine.store_table("r", table)
    assert not engine.relation_fits_in_memory("r")
    engine.memory.budget_bytes = None
    assert engine.relation_fits_in_memory("r")
    engine.close()


def test_temporary_engine_destroy():
    engine = Engine.temporary(memory_budget_bytes=1000)
    root = engine.catalog.root
    engine.create_relation("r", SCHEMA)
    assert root.exists()
    engine.destroy()
    assert not root.exists()
