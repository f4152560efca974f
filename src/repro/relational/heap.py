"""Disk-backed heap files: fixed-width records addressed by row-id.

This is the substrate's answer to "the fact table lives on disk".  A heap
file stores packed records of a fixed schema; row-id ``i`` lives at byte
offset ``i * row_size``.  The CURE query layer depends on two access
patterns this module makes explicit:

* random fetch by row-id (``read_row`` / ``read_rows``) — what NT/TT/CAT
  row-id dereferencing costs without a cache, and
* a single sequential pass selecting sorted row-ids
  (``read_rows_sequential``) — what CURE+'s sorted row-id lists buy
  (Section 5.3 of the paper).

I/O statistics are counted so benchmarks can report machine-independent
cost numbers alongside wall-clock time.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.relational.batch import ColumnBatch
from repro.relational.durable import (
    FaultHook,
    InjectedCrash,
    TornWrite,
    with_retries,
)
from repro.relational.schema import TableSchema


@dataclass
class HeapStats:
    """I/O counters for one heap file."""

    rows_written: int = 0
    rows_read: int = 0
    random_reads: int = 0
    sequential_passes: int = 0

    def reset(self) -> None:
        self.rows_written = 0
        self.rows_read = 0
        self.random_reads = 0
        self.sequential_passes = 0


@dataclass
class HeapFile:
    """A fixed-width record file with positional row-ids.

    The file is opened lazily and kept open for the object's lifetime; call
    :meth:`close` (or use the object as a context manager) when done.
    """

    path: Path
    schema: TableSchema
    stats: HeapStats = field(default_factory=HeapStats)
    faults: FaultHook | None = field(default=None, repr=False)
    _handle: object | None = field(default=None, repr=False)
    _row_count: int | None = field(default=None, repr=False)
    #: True while a write may sit in the handle's buffer (workers of a
    #: parallel build start only over fully flushed relations).
    unflushed: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        self.path = Path(self.path)
        self._struct = struct.Struct(self.schema.struct_format)

    # -- lifecycle ---------------------------------------------------------

    def _file(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            mode = "r+b" if self.path.exists() else "w+b"
            self._handle = open(self.path, mode)
        return self._handle

    def close(self) -> None:
        if self._handle is not None:
            handle, self._handle = self._handle, None
            handle.close()
        self.unflushed = False

    def _abort_write(self) -> None:
        """Error-path cleanup: drop the cached row count and the handle.

        After a failed (possibly partial) write the cached ``_row_count``
        no longer matches the file, so it is invalidated and re-derived
        from the on-disk size at the next access; closing the handle
        flushes whatever was buffered so that size is well defined.
        """
        self._row_count = None
        try:
            self.close()
        except OSError:
            self._handle = None

    def __enter__(self) -> "HeapFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- geometry ----------------------------------------------------------

    @property
    def row_size(self) -> int:
        return self._struct.size

    def __len__(self) -> int:
        if self._row_count is None:
            if self.path.exists():
                self._row_count = os.path.getsize(self.path) // self.row_size
            else:
                self._row_count = 0
        return self._row_count

    @property
    def size_bytes(self) -> int:
        return len(self) * self.row_size

    # -- writing -----------------------------------------------------------

    def _fire_retrying(self, site: str) -> None:
        """Announce an injection point, absorbing transient faults.

        Transient I/O errors at a site that has not moved data yet are
        retried with bounded backoff; anything else propagates.
        """
        faults = self.faults
        if faults is not None:
            with_retries(lambda: faults.fire(site))

    def _write_burst(self, handle, payload: bytes) -> None:
        """One buffered write, routed through the fault hook.

        A :class:`TornWrite` fault persists only a prefix of the payload
        (a power loss mid-``write``), then escalates to
        :class:`InjectedCrash`; the caller's error path re-derives the row
        count from the on-disk size.  Transient faults are retried — the
        payload has not reached the file yet, so the retry is idempotent.
        """
        self.unflushed = True
        faults = self.faults
        if faults is not None:
            try:
                with_retries(
                    lambda: faults.fire(f"heap.write:{self.path.name}")
                )
            except TornWrite as torn:
                handle.write(payload[: torn.keep_bytes(len(payload))])
                raise InjectedCrash(
                    f"torn write in {self.path.name}"
                ) from torn
        handle.write(payload)

    def append(self, row: tuple) -> int:
        """Append one record; returns its row-id."""
        rowid = len(self)
        handle = self._file()
        try:
            handle.seek(0, os.SEEK_END)
            self._write_burst(handle, self._struct.pack(*row))
        except Exception:
            self._abort_write()
            raise
        self.stats.rows_written += 1
        self._row_count = rowid + 1
        return rowid

    def append_many(self, rows: Iterable[tuple]) -> int:
        """Append many records; returns the count written."""
        # Resolve the current count before buffering writes: the file size
        # on disk lags the handle's buffer, so it must not be consulted
        # afterwards.
        current = len(self)
        handle = self._file()
        pack = self._struct.pack
        written = 0
        buffer: list[bytes] = []
        try:
            handle.seek(0, os.SEEK_END)
            for row in rows:
                buffer.append(pack(*row))
                written += 1
                if len(buffer) >= 4096:
                    self._write_burst(handle, b"".join(buffer))
                    buffer.clear()
            if buffer:
                self._write_burst(handle, b"".join(buffer))
        except Exception:
            # Close-on-exception: a partial burst may have reached the
            # file, so the cached count is stale and the handle's buffer
            # must be flushed out before anyone re-reads the size.
            self._abort_write()
            raise
        self.stats.rows_written += written
        self._row_count = current + written
        return written

    def append_batch(self, batch: ColumnBatch) -> int:
        """Append a columnar batch; returns the count written.

        The batch is packed through the schema's structured dtype (one
        ``astype``-free field copy per column) and written in the same
        4096-row bursts as :meth:`append_many`, so the fault-injection
        surface (torn writes, transient errors per burst) is identical.
        """
        if batch.schema.names != self.schema.names:
            raise ValueError(
                f"batch schema {batch.schema.names} does not match "
                f"heap schema {self.schema.names}"
            )
        current = len(self)
        records = np.empty(batch.length, dtype=self.schema.numpy_dtype)
        for name, array in zip(self.schema.names, batch.arrays):
            records[name] = array
        handle = self._file()
        try:
            handle.seek(0, os.SEEK_END)
            for start in range(0, batch.length, 4096):
                self._write_burst(
                    handle, records[start : start + 4096].tobytes()
                )
        except Exception:
            self._abort_write()
            raise
        self.stats.rows_written += batch.length
        self._row_count = current + batch.length
        return batch.length

    def flush(self) -> None:
        if self._handle is not None:
            self._fire_retrying(f"heap.flush:{self.path.name}")
            self._handle.flush()
            self.unflushed = False

    # -- reading -----------------------------------------------------------

    def read_row(self, rowid: int) -> tuple:
        """Random fetch of one record by row-id."""
        if rowid < 0 or rowid >= len(self):
            raise IndexError(f"row-id {rowid} out of range [0, {len(self)})")
        handle = self._file()
        handle.seek(rowid * self.row_size)
        data = handle.read(self.row_size)
        self.stats.rows_read += 1
        self.stats.random_reads += 1
        return self._struct.unpack(data)

    def read_rows(self, rowids: Iterable[int]) -> list[tuple]:
        """Random fetches of several records, in the given order."""
        return [self.read_row(rowid) for rowid in rowids]

    def read_rows_sequential(self, sorted_rowids: list[int]) -> list[tuple]:
        """One sequential pass selecting ``sorted_rowids`` (must ascend).

        This models the access pattern CURE+ achieves by sorting row-ids:
        a single scan instead of random seeks.
        """
        if not sorted_rowids:
            return []
        if any(b < a for a, b in zip(sorted_rowids, sorted_rowids[1:])):
            raise ValueError("read_rows_sequential requires ascending row-ids")
        handle = self._file()
        self.stats.sequential_passes += 1
        result: list[tuple] = []
        unpack = self._struct.unpack
        row_size = self.row_size
        # Read the covered range in chunks, picking out the wanted rows.
        first, last = sorted_rowids[0], sorted_rowids[-1]
        handle.seek(first * row_size)
        wanted = iter(sorted_rowids)
        next_wanted = next(wanted)
        chunk_rows = 8192
        rowid = first
        while rowid <= last:
            data = handle.read(min(chunk_rows, last - rowid + 1) * row_size)
            if not data:
                break
            for offset in range(0, len(data), row_size):
                if rowid == next_wanted:
                    result.append(unpack(data[offset : offset + row_size]))
                    self.stats.rows_read += 1
                    try:
                        next_wanted = next(wanted)
                        while next_wanted == rowid:  # tolerate duplicates
                            result.append(result[-1])
                            next_wanted = next(wanted)
                    except StopIteration:
                        return result
                rowid += 1
        return result

    def scan(self) -> Iterator[tuple]:
        """Sequential scan of every record."""
        self._fire_retrying(f"heap.read:{self.path.name}")
        handle = self._file()
        handle.seek(0)
        self.stats.sequential_passes += 1
        unpack = self._struct.unpack
        row_size = self.row_size
        while True:
            data = handle.read(row_size * 8192)
            if not data:
                return
            for offset in range(0, len(data), row_size):
                self.stats.rows_read += 1
                yield unpack(data[offset : offset + row_size])

    def scan_batches(self, chunk_rows: int = 8192) -> Iterator[ColumnBatch]:
        """Sequential scan yielding columnar batches.

        Record bytes are reinterpreted through the schema's structured
        dtype, so each batch's columns are zero-copy views of one read
        buffer.  I/O accounting matches :meth:`scan` row for row.
        """
        self._fire_retrying(f"heap.read:{self.path.name}")
        handle = self._file()
        handle.seek(0)
        self.stats.sequential_passes += 1
        dtype = self.schema.numpy_dtype
        row_size = self.row_size
        while True:
            data = handle.read(row_size * chunk_rows)
            if not data:
                return
            records = np.frombuffer(data, dtype=dtype)
            self.stats.rows_read += len(records)
            arrays = tuple(records[name] for name in self.schema.names)
            yield ColumnBatch(self.schema, arrays, len(records))

    def load_mapped(self) -> np.ndarray:
        """Map the whole file read-only as a structured record array.

        The schema's packed numpy dtype reinterprets the record bytes in
        place (the same equivalence :meth:`scan_batches` relies on), so
        every reader — the driver and parallel build workers alike — gets
        zero-copy views of a file the OS page cache shares across
        processes.  Fires the same ``heap.read`` site and counts the same
        I/O statistics as a :meth:`scan`.  A map sees only what reached the
        file, so buffered appends must be flushed first.
        """
        self._fire_retrying(f"heap.read:{self.path.name}")
        n = len(self)
        self.stats.sequential_passes += 1
        self.stats.rows_read += n
        if n == 0:
            return np.empty(0, dtype=self.schema.numpy_dtype)
        return np.memmap(
            self.path, dtype=self.schema.numpy_dtype, mode="r", shape=(n,)
        )
