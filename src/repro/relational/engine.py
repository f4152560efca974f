"""Engine facade: catalog + memory manager + load/store operations.

The :class:`Engine` is what CURE means by "a ROLAP engine": named relations
on disk, loads that respect a memory budget, and bookkeeping of I/O.  All
higher layers (cube construction, partitioning, query answering) go through
it rather than touching files directly.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.relational.catalog import Catalog
from repro.relational.durable import FaultHook, RetryPolicy, with_retries
from repro.relational.heap import HeapFile
from repro.relational.memory import MemoryManager
from repro.relational.schema import TableSchema
from repro.relational.table import Table


@dataclass
class LoadedRelation:
    """A relation mapped read-only under a memory reservation.

    ``records`` is the structured array from :meth:`HeapFile.load_mapped`.
    Use as a context manager so the reservation is released when the
    records go out of scope — mirroring a buffer-pool unpin.
    """

    records: np.ndarray
    _memory: MemoryManager
    _token: int
    _released: bool = False

    def release(self) -> None:
        if not self._released:
            self._memory.release(self._token)
            self._released = True

    def __enter__(self) -> np.ndarray:
        return self.records

    def __exit__(self, *exc_info) -> None:
        self.release()


@dataclass
class Engine:
    """Facade over a catalog directory and a simulated memory budget."""

    catalog: Catalog
    memory: MemoryManager = field(default_factory=MemoryManager)
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)

    @classmethod
    def temporary(cls, memory_budget_bytes: int | None = None) -> "Engine":
        """An engine over a fresh temporary directory (caller may destroy)."""
        root = Path(tempfile.mkdtemp(prefix="repro-rolap-"))
        return cls(Catalog(root), MemoryManager(memory_budget_bytes))

    # -- relation operations -------------------------------------------------

    def create_relation(self, name: str, schema: TableSchema) -> HeapFile:
        return self.catalog.create(name, schema)

    def relation(self, name: str) -> HeapFile:
        return self.catalog.open(name)

    def store_table(self, name: str, table: Table) -> HeapFile:
        """Materialize an in-memory table as a new named relation."""
        heap = self.catalog.create(name, table.schema)
        heap.append_batch(table.as_batch())
        heap.flush()
        return heap

    def load(self, name: str) -> LoadedRelation:
        """Map a relation read-only under a budget reservation.

        The records stay in the OS page cache — shared with a parallel
        build's workers — instead of being unpacked per process, but the
        memory manager accounts the relation's bytes: a mapped working set
        displaces real memory just like a copied one.  A map sees only the
        file, so a relation with buffered appends is flushed first.
        Transient I/O errors are retried with bounded backoff
        (``retry_policy``) — a map is idempotent.  If it still fails (I/O
        error, injected fault) the reservation is released before the
        exception propagates, so a failed load never leaks simulated
        memory.
        """
        heap = self.relation(name)
        if heap.unflushed:
            heap.flush()
        token = self.memory.reserve(heap.size_bytes, what=f"load({name})")
        try:
            records = with_retries(heap.load_mapped, policy=self.retry_policy)
        except BaseException:
            self.memory.release(token)
            raise
        return LoadedRelation(records, self.memory, token)

    def install_faults(self, faults: FaultHook | None) -> None:
        """Install (or clear) a fault-injection hook across the engine."""
        self.catalog.set_faults(faults)
        self.memory.faults = faults

    def close(self) -> None:
        self.catalog.close()

    def destroy(self) -> None:
        self.catalog.destroy()
