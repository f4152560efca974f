"""Fact-table and result caching for query answering (Section 5.3).

CURE's query bottleneck is dereferencing R-rowids (and A-rowids) back to
the fact table and the AGGREGATES relation.  The paper's observation is
that *these two relations* are the only things worth caching — a rule no
other ROLAP format offers.  :class:`FactCache` models a partial cache: a
seeded random ``fraction`` of fact row-ids is resident; misses hit the
disk-backed relation with real I/O.  ``fraction=1.0`` (or an in-memory
fact table) makes every fetch a hit.  :meth:`FactCache.fetch_batch`
serves bulk dereferences as one columnar
:class:`~repro.relational.batch.ColumnBatch` — over an in-memory fact
table that is a single fancy-index gather.

:class:`ResultCache` sits one level up: whole materialized node answers,
stored as :class:`~repro.query.column_answer.ColumnAnswer` values keyed
by ``(node, predicate, tag)``, so repeated group-by requests skip
answering entirely — no tuple re-encoding on either the put or the get
side — and, once a server has rendered an entry, its canonical JSON
body beside the answer, so a repeated *HTTP* request skips encoding as
well.  It is sized for real serving traffic: entries account their
matrix and body bytes against an optional ``max_bytes`` budget, recency
is tracked LRU (a hit refreshes the entry), answers larger than the
whole budget are rejected at admission instead of flushing everything
else, and every operation holds an internal lock so the cache can be
shared across the serving layer's request threads.

The disk-backed source is typed as the structural
:class:`~repro.relational.batch.RowSource` protocol — the query layer
never touches heap-file internals (cubelint R1).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.model import CubeSchema
from repro.query.column_answer import ColumnAnswer
from repro.relational.batch import ColumnBatch, RowSource
from repro.relational.table import Table

if TYPE_CHECKING:
    from repro.query.slice import DimensionSlice


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    #: Admissions refused because the entry alone exceeds the byte budget.
    rejected: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.rejected = 0


@dataclass
class FactCache:
    """A partial in-memory cache over the fact relation.

    Exactly one of ``heap`` / ``table`` must be given.  With ``table`` the
    whole relation is trivially resident (the paper's in-memory case, where
    query results are "orders of magnitude better, due to caching").
    ``heap`` is any :class:`~repro.relational.batch.RowSource` — in
    practice a heap file handed over by the relational layer.
    """

    schema: CubeSchema
    heap: RowSource | None = None
    table: Table | None = None
    fraction: float = 1.0
    seed: int = 7
    stats: CacheStats = field(default_factory=CacheStats)
    _cached: dict[int, tuple] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if (self.heap is None) == (self.table is None):
            raise ValueError("provide exactly one of heap= or table=")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("cache fraction must be within [0, 1]")
        if self.heap is not None and self.fraction > 0.0:
            self._warm()

    def _warm(self) -> None:
        """Pin a seeded random sample of rows, as a buffer pool would."""
        n = len(self.heap)
        target = int(n * self.fraction)
        if target <= 0:
            return
        rng = random.Random(self.seed)
        if target >= n:
            chosen: object = range(n)
        else:
            chosen = rng.sample(range(n), target)
        for rowid in sorted(chosen):
            self._cached[rowid] = self.heap.read_row(rowid)

    @property
    def row_count(self) -> int:
        return len(self.table) if self.table is not None else len(self.heap)

    def fetch(self, rowid: int) -> tuple:
        """Fetch one fact row, through the cache."""
        if self.table is not None:
            return self.fetch_many([rowid])[0]
        row = self._cached.get(rowid)
        if row is not None:
            self.stats.hits += 1
            return row
        self.stats.misses += 1
        return self.heap.read_row(rowid)

    def fetch_many(self, rowids, sorted_hint: bool = False) -> list[tuple]:
        """Fetch several rows; sorted misses coalesce into a sequential pass.

        ``sorted_hint=True`` is what CURE+ buys by sorting TT row-id lists
        (or using bitmaps): the uncached remainder is read in one scan.
        """
        if self.table is not None:
            return self.fetch_batch(rowids).to_rows()
        if not sorted_hint:
            return [self.fetch(rowid) for rowid in rowids]
        result: dict[int, tuple] = {}
        missing: list[int] = []
        for rowid in rowids:
            row = self._cached.get(rowid)
            if row is not None:
                self.stats.hits += 1
                result[rowid] = row
            else:
                missing.append(rowid)
        if missing:
            self.stats.misses += len(missing)
            unique_missing = sorted(set(missing))
            fetched = self.heap.read_rows_sequential(unique_missing)
            result.update(zip(unique_missing, fetched))
        return [result[rowid] for rowid in rowids]

    def fetch_batch(self, rowids, sorted_hint: bool = False) -> ColumnBatch:
        """Fetch several rows as one columnar batch.

        Over an in-memory table this is a single fancy-index gather of
        the table's cached columnar view; over a disk-backed source it
        bridges through :meth:`fetch_many` (same hit/miss accounting,
        same sequential-pass coalescing).
        """
        if self.table is not None:
            self.stats.hits += len(rowids)
            indices = np.asarray(rowids, dtype=np.int64)
            return self.table.as_batch().take(indices)
        rows = self.fetch_many(list(rowids), sorted_hint=sorted_hint)
        return ColumnBatch.from_rows(self.schema.fact_schema, rows)


#: What distinguishes entries over the same ``(node, slices)``: ``()`` for
#: a plain node/slice answer, ``("rollup",)`` or ``("iceberg", min_count)``
#: for the derived answers the serving layer caches beside them.
ResultTag = tuple[object, ...]

#: A result-cache key: node id, member predicates, kind/parameter tag.
ResultKey = tuple[int, "tuple[DimensionSlice, ...]", ResultTag]


@dataclass(frozen=True)
class CachedResult:
    """One resident entry: the answer and, once rendered, its body.

    ``body`` is the canonical JSON a server shipped for ``answer``
    (:func:`repro.server.encoding.encode_answer`).  It lives *in* the
    entry, so whatever drops or replaces the answer — LRU eviction,
    :meth:`ResultCache.invalidate`, :meth:`ResultCache.clear` — drops
    the bytes with it: a stale body cannot outlive its answer.
    """

    answer: ColumnAnswer
    body: bytes | None = None

    @property
    def nbytes(self) -> int:
        """The entry's charge against ``max_bytes``."""
        return ResultCache.entry_bytes(self.answer, self.body)


@dataclass
class ResultCache:
    """Materialized answers, cached as :class:`ColumnAnswer` values.

    Keys are ``(node_id, slices, tag)`` — the node, the request's member
    predicates and a kind/parameter tag (empty for node and slice
    answers).  Each entry holds the answer's aligned dims/aggregates
    matrices directly, so neither producer nor consumer pays an encode
    or decode cost (a pair list must come in through
    :meth:`ColumnAnswer.from_pairs`, with the schema's widths).  A server
    that has rendered an entry's answer attaches the encoded body with
    :meth:`attach_body`, after which a hit costs one dictionary lookup.

    Eviction is LRU over both limits: beyond ``max_entries`` entries, or
    — when ``max_bytes`` is set — beyond that many bytes of matrices and
    bodies (:meth:`entry_bytes` per entry), least-recently-used entries
    drop first and a hit refreshes recency.  An answer larger than the
    whole byte budget is *rejected at admission* (counted in
    ``stats.rejected``) rather than evicting every resident entry for a
    single oversized tenant; a body that does not fit the budget beside
    its own answer is likewise not attached.  All operations hold an
    internal lock, so one instance can be shared by many serving
    threads.
    """

    max_entries: int = 128
    max_bytes: int | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: dict[ResultKey, CachedResult] = field(
        default_factory=dict, repr=False
    )
    _bytes: int = field(default=0, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    @staticmethod
    def entry_bytes(answer: ColumnAnswer, body: bytes | None = None) -> int:
        """The bytes an entry occupies: both matrices plus its body."""
        return (
            int(answer.dims.nbytes)
            + int(answer.aggregates.nbytes)
            + (len(body) if body is not None else 0)
        )

    def lookup(
        self,
        node_id: int,
        slices: tuple[DimensionSlice, ...] = (),
        tag: ResultTag = (),
        record: bool = True,
    ) -> CachedResult | None:
        """The resident entry, refreshed as most recently used.

        Counts one hit or miss in ``stats`` unless ``record`` is false —
        for a read that is part of a request which already registered
        its own (a roll-up fetching its base answer).
        """
        key = (node_id, slices, tag)
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                if record:
                    self.stats.misses += 1
                return None
            # Re-insert at the tail: dict order is the LRU order.
            self._entries[key] = entry
            if record:
                self.stats.hits += 1
            return entry

    def get(
        self,
        node_id: int,
        slices: tuple[DimensionSlice, ...] = (),
        tag: ResultTag = (),
    ) -> ColumnAnswer | None:
        entry = self.lookup(node_id, slices, tag)
        return None if entry is None else entry.answer

    def put(
        self,
        node_id: int,
        slices: tuple[DimensionSlice, ...],
        answer: ColumnAnswer,
        tag: ResultTag = (),
    ) -> bool:
        """Admit one answer; returns whether it is now resident."""
        if not isinstance(answer, ColumnAnswer):
            raise TypeError(
                "ResultCache.put takes a ColumnAnswer, not "
                f"{type(answer).__name__}"
            )
        with self._lock:
            resident = self._admit((node_id, slices, tag), CachedResult(answer))
            if not resident:
                self.stats.rejected += 1
            return resident

    def attach_body(
        self,
        node_id: int,
        slices: tuple[DimensionSlice, ...],
        tag: ResultTag,
        answer: ColumnAnswer,
        body: bytes,
    ) -> bool:
        """Keep ``body`` beside the resident ``answer`` it was rendered from.

        Nothing happens unless the entry still holds that very answer
        object: one evicted, invalidated or replaced since the caller
        read it must not get bytes rendered from its predecessor.  The
        body is charged to ``max_bytes`` and makes room like any
        admission — least-recently-used entries drop — except that an
        entry which would exceed the budget on its own stays bodiless.
        Returns whether the body is now resident.
        """
        key = (node_id, slices, tag)
        with self._lock:
            resident = self._entries.get(key)
            if resident is None or resident.answer is not answer:
                return False
            return self._admit(key, CachedResult(answer, body))

    def _admit(self, key: ResultKey, entry: CachedResult) -> bool:
        """Make ``entry`` the newest one unless it alone exceeds the byte
        budget, then enforce both limits by dropping least-recently-used
        entries (lock held).  Returns whether ``entry`` is resident."""
        size = entry.nbytes
        if self.max_bytes is not None and size > self.max_bytes:
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        self._entries[key] = entry
        self._bytes += size
        while len(self._entries) > self.max_entries or (
            self.max_bytes is not None and self._bytes > self.max_bytes
        ):
            victim = next(iter(self._entries))
            if victim == key and len(self._entries) == 1:
                break  # the admission check bounds the newest entry
            self._bytes -= self._entries.pop(victim).nbytes
        return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def invalidate(self, stale) -> int:
        """Drop every entry for which ``stale(node_id, slices)`` is true.

        The fine-grained path after incremental maintenance: the planner
        supplies a predicate derived from the delta's dimension codes, and
        entries the delta provably cannot have changed stay resident.
        Tagged entries (roll-ups, icebergs) carry no slices, so under
        the planner's predicate they drop exactly as unsliced node
        answers do.  Returns the number of entries dropped.
        """
        with self._lock:
            doomed = [
                key for key in self._entries if stale(key[0], key[1])
            ]
            for key in doomed:
                self._bytes -= self._entries.pop(key).nbytes
            return len(doomed)

    @property
    def total_bytes(self) -> int:
        """Current byte footprint of every resident answer and body."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
