"""Disk-backed heap files: fixed-width records addressed by row-id.

This is the substrate's answer to "the fact table lives on disk".  A heap
file stores packed records of a fixed schema — the schema's structured
numpy dtype, byte for byte; row-id ``i`` lives at byte offset
``i * row_size``.  Records move in and out as columnar batches only:
``append_batch`` writes, ``scan_batches`` / ``load_mapped`` read every
record, and ``read_batch`` gathers row-ids — what dereferencing NT/TT/CAT
row-ids costs without a cache.  Over ascending row-ids ``read_batch``
makes each run of consecutive row-ids one positioned read, a single
forward pass: what CURE+'s sorted row-id lists buy (Section 5.3 of the
paper).

I/O statistics are counted so benchmarks can report machine-independent
cost numbers alongside wall-clock time.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence
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
    #: Positioned reads :meth:`HeapFile.read_batch` issued, one per run.
    runs: int = 0

    def reset(self) -> None:
        self.rows_written = 0
        self.rows_read = 0
        self.random_reads = 0
        self.sequential_passes = 0
        self.runs = 0


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
        return self.schema.row_size_bytes

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

    def append_batch(self, batch: ColumnBatch) -> int:
        """Append a columnar batch; returns the count written.

        The batch is packed through the schema's structured dtype (one
        field copy per column) and written in 4096-row bursts, each one
        fault-injection event (a torn write or a transient error).
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

    def read_batch(
        self, rowids: Sequence[int] | np.ndarray, sorted_hint: bool = False
    ) -> ColumnBatch:
        """The records at ``rowids``, in that order, as one batch.

        With ``sorted_hint`` the row-ids must strictly ascend: each run of
        consecutive row-ids is one positioned read, in a single forward
        pass over the file.  Without it every row-id is its own run — a
        random seek per row.  ``stats.runs`` counts the positioned reads.
        """
        rowids = np.asarray(rowids, dtype=np.int64)
        if not len(rowids):
            return ColumnBatch.empty(self.schema)
        count = len(self)
        outside = (rowids < 0) | (rowids >= count)
        if outside.any():
            bad = int(rowids[np.argmax(outside)])
            raise IndexError(f"row-id {bad} out of range [0, {count})")
        if sorted_hint:
            step = np.diff(rowids)
            if (step <= 0).any():
                raise ValueError("sorted_hint requires ascending row-ids")
            starts = np.concatenate(([0], np.flatnonzero(step != 1) + 1))
            self.stats.sequential_passes += 1
        else:
            starts = np.arange(len(rowids), dtype=np.int64)
            self.stats.random_reads += len(rowids)
        stops = np.append(starts[1:], len(rowids))
        row_size = self.row_size
        buffer = np.empty(len(rowids) * row_size, dtype=np.uint8)
        handle = self._file()
        runs = zip(rowids[starts].tolist(), starts.tolist(), stops.tolist())
        for first, start, stop in runs:
            handle.seek(first * row_size)
            chunk = buffer[start * row_size : stop * row_size]
            if handle.readinto(chunk) != len(chunk):
                raise OSError(f"short read in {self.path.name}")
        self.stats.runs += len(starts)
        self.stats.rows_read += len(rowids)
        records = buffer.view(self.schema.numpy_dtype)
        arrays = tuple(records[name] for name in self.schema.names)
        return ColumnBatch(self.schema, arrays, len(rowids))

    def scan_batches(self, chunk_rows: int = 8192) -> Iterator[ColumnBatch]:
        """Sequential scan yielding columnar batches.

        Record bytes are reinterpreted through the schema's structured
        dtype, so each batch's columns are zero-copy views of one read
        buffer.  One pass counts one ``sequential_passes`` and every
        record in ``rows_read``.
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
        I/O statistics as a :meth:`scan_batches` pass.  A map sees only
        what reached the file, so buffered appends must be flushed first.
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
