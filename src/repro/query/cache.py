"""Fact-table and result caching for query answering (Section 5.3).

CURE's query bottleneck is dereferencing R-rowids (and A-rowids) back to
the fact table and the AGGREGATES relation.  The paper's observation is
that *these two relations* are the only things worth caching — a rule no
other ROLAP format offers.  :class:`FactCache` models a partial cache: a
seeded random ``fraction`` of fact row-ids is resident; misses hit the
disk-backed relation with real I/O.  ``fraction=1.0`` (or an in-memory
fact table) makes every fetch a hit.  :meth:`FactCache.fetch_batch` is
the one way in: a dereference is one columnar
:class:`~repro.relational.batch.ColumnBatch` of the columns the caller
names — over an in-memory fact table one fancy-index gather per column,
over a heap a gather from the warm columns plus one
:meth:`~repro.relational.heap.HeapFile.read_batch` of the misses.

:class:`ResultCache` sits one level up: whole materialized node answers,
stored as :class:`~repro.query.column_answer.ColumnAnswer` values keyed
by ``(node, predicate, tag)``, so repeated group-by requests skip
answering entirely — no tuple re-encoding on either the put or the get
side — and, once a server has rendered an entry, its canonical JSON
body beside the answer, so a repeated *HTTP* request skips encoding as
well.  A body also keeps the first raw request target that fetched it,
indexed by that target, so the HTTP front finds a repeated request's
bytes by one lookup before it parses anything
(:meth:`ResultCache.body_for`).  It is sized for real serving traffic:
entries account their matrix, body and target bytes against an
optional ``max_bytes`` budget, recency
is tracked LRU (a hit refreshes the entry), answers larger than the
whole budget are rejected at admission instead of flushing everything
else, and every operation holds an internal lock so the cache can be
shared across the serving layer's request threads.
"""

from __future__ import annotations

import random
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.model import CubeSchema
from repro.query.column_answer import ColumnAnswer
from repro.relational.batch import ColumnBatch
from repro.relational.schema import TableSchema
from repro.relational.table import Table

if TYPE_CHECKING:
    from repro.query.slice import DimensionSlice
    from repro.relational import HeapFile


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    #: Admissions refused because the entry alone exceeds the byte budget.
    rejected: int = 0
    #: Positioned heap reads a fact cache's misses cost: one per run of
    #: consecutive row-ids when sorted, one per row-id otherwise.
    runs: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.rejected = 0
        self.runs = 0


@dataclass
class FactCache:
    """A partial in-memory cache over the fact relation.

    Exactly one of ``heap`` / ``table`` must be given.  With ``table`` the
    whole relation is trivially resident (the paper's in-memory case, where
    query results are "orders of magnitude better, due to caching").
    Over a ``heap`` a seeded random ``fraction`` of the row-ids is
    resident: a boolean mask over warm fact columns, read in one pass as
    a buffer pool would pin them.  Every other row-id is a miss.
    """

    schema: CubeSchema
    heap: HeapFile | None = None
    table: Table | None = None
    fraction: float = 1.0
    seed: int = 7
    stats: CacheStats = field(default_factory=CacheStats)
    _resident: np.ndarray | None = field(default=None, repr=False)
    _warm: ColumnBatch | None = field(default=None, repr=False)
    #: Column positions → the schema of a batch of those fact columns.
    _schemas: dict[tuple[int, ...], TableSchema] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if (self.heap is None) == (self.table is None):
            raise ValueError("provide exactly one of heap= or table=")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("cache fraction must be within [0, 1]")
        if self.heap is not None:
            self._pin()

    def _pin(self) -> None:
        """Pin a seeded random sample of rows, as a buffer pool would."""
        n = len(self.heap)
        self._resident = np.zeros(n, dtype=np.bool_)
        target = int(n * self.fraction)
        if target >= n:
            rowids = np.arange(n, dtype=np.int64)
        else:
            chosen = random.Random(self.seed).sample(range(n), target)
            rowids = np.sort(np.asarray(chosen, dtype=np.int64))
        self._resident[rowids] = True
        pinned = self.heap.read_batch(rowids, sorted_hint=True)
        warm = tuple(np.zeros(n, dtype=a.dtype) for a in pinned.arrays)
        for column, values in zip(warm, pinned.arrays):
            column[rowids] = values
        self._warm = ColumnBatch(pinned.schema, warm, n)

    @property
    def row_count(self) -> int:
        return len(self.table) if self.table is not None else len(self.heap)

    def fetch_batch(
        self, rowids, sorted_hint: bool = False, columns: Sequence[int] | None = None
    ) -> ColumnBatch:
        """The fact rows at ``rowids``, in that order, as one batch.

        It holds the fact columns at positions ``columns`` (default all),
        in that order, and reads no other.  Over an in-memory table this
        is one fancy-index gather per column, every row-id a hit.  Over a
        heap the resident rows gather from the warm columns and the
        misses cost one :meth:`~repro.relational.heap.HeapFile.read_batch`.
        ``sorted_hint=True`` is what CURE+ buys by sorting its row-id
        lists: the distinct misses are read in ascending order, one
        forward pass with a positioned read per run of consecutive
        row-ids; otherwise each miss is its own random read.
        """
        indices = np.asarray(rowids, dtype=np.int64)
        fact_schema = self.schema.fact_schema
        columns = tuple(range(fact_schema.arity) if columns is None else columns)
        schema = self._schemas.get(columns)
        if schema is None:
            schema = TableSchema(tuple(fact_schema.columns[p] for p in columns))
            self._schemas[columns] = schema
        if self.table is not None:
            self.stats.hits += len(indices)
            arrays = [self.table.column_at(p)[indices] for p in columns]
            return ColumnBatch(schema, tuple(arrays), len(indices))
        missed = ~self._resident[indices]
        n_missed = int(np.count_nonzero(missed))
        self.stats.hits += len(indices) - n_missed
        self.stats.misses += n_missed
        arrays = [self._warm.arrays[p][indices] for p in columns]
        if n_missed:
            fetched = self._read(indices[missed], sorted_hint)
            for array, p in zip(arrays, columns):
                array[missed] = fetched.arrays[p]
        return ColumnBatch(schema, tuple(arrays), len(indices))

    def _read(self, rowids: np.ndarray, sorted_hint: bool) -> ColumnBatch:
        """Read missed row-ids from the heap, counting its runs."""
        runs = self.heap.stats.runs
        if sorted_hint:
            distinct, inverse = np.unique(rowids, return_inverse=True)
            batch = self.heap.read_batch(distinct, sorted_hint=True)
            if not np.array_equal(distinct, rowids):
                batch = batch.take(inverse)
        else:
            batch = self.heap.read_batch(rowids)
        self.stats.runs += self.heap.stats.runs - runs
        return batch


#: What distinguishes entries over the same ``(node, slices)``: ``()`` for
#: a plain node/slice answer, ``("rollup",)`` or ``("iceberg", min_count)``
#: for the two derived kinds (:attr:`repro.query.planner.QueryRequest.tag`).
ResultTag = tuple[object, ...]

#: A result-cache key: node id, member predicates, kind/parameter tag.
ResultKey = tuple[int, "tuple[DimensionSlice, ...]", ResultTag]


@dataclass(frozen=True)
class CachedResult:
    """One resident entry: the answer and, once rendered, its body.

    ``body`` is the canonical JSON a server shipped for ``answer``
    (:func:`repro.server.encoding.encode_answer`), and ``target`` the
    first raw HTTP request target that fetched that body, under which
    the cache indexes it.  Both live *in* the entry, so whatever drops
    or replaces the answer — LRU eviction, a replacing
    :meth:`ResultCache.put`, :meth:`ResultCache.clear` after a delta —
    drops the bytes and the target's index entry with it: a stale body
    cannot outlive its answer.
    """

    answer: ColumnAnswer
    body: bytes | None = None
    target: str | None = None

    @property
    def nbytes(self) -> int:
        """The entry's charge against ``max_bytes``."""
        return ResultCache.entry_bytes(self.answer, self.body, self.target)


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

    A body is also found by the raw request target that fetched it: the
    entry keeps the first such target (:meth:`attach_body` or
    :meth:`add_target`) and the cache a ``target → key`` index, so
    :meth:`body_for` answers a repeated request before anything is
    parsed.  Other targets naming the same answer (``where`` clauses in
    another order, say) take the parse path.  An index entry leaves
    with its cache entry — evicted, replaced or cleared — so the index
    never holds more targets than there are entries.

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

    A delta empties the cache: the ingestor calls :meth:`clear` after
    every applied record and every compaction.  Each appended fact
    row lands in every group-by, so every unsliced answer is stale
    anyway; keeping the sliced answers a delta missed would cost a
    staleness test per entry per record, and no measured workload reads
    such an entry across a delta.
    """

    max_entries: int = 128
    max_bytes: int | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: dict[ResultKey, CachedResult] = field(
        default_factory=dict, repr=False
    )
    #: Request target → the key of the entry whose body it fetched.
    _targets: dict[str, ResultKey] = field(default_factory=dict, repr=False)
    _bytes: int = field(default=0, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    @staticmethod
    def entry_bytes(
        answer: ColumnAnswer,
        body: bytes | None = None,
        target: str | None = None,
    ) -> int:
        """The bytes an entry occupies: both matrices plus its body and
        its target (one byte a character: a target is ISO-8859-1)."""
        return (
            int(answer.dims.nbytes)
            + int(answer.aggregates.nbytes)
            + (len(body) if body is not None else 0)
            + (len(target) if target is not None else 0)
        )

    def holds(self, entry: CachedResult) -> bool:
        """Whether ``entry`` fits the byte budget at all."""
        return self.max_bytes is None or entry.nbytes <= self.max_bytes

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

    def body_for(self, target: str) -> bytes | None:
        """The body fetched by request ``target``, or ``None``.

        A found body counts one hit and refreshes its entry as most
        recently used; a target not indexed counts nothing — the caller
        answers the request the long way, which registers its one hit
        or miss.
        """
        with self._lock:
            key = self._targets.get(target)
            if key is None:
                return None
            entry = self._entries.pop(key)
            self._entries[key] = entry
            self.stats.hits += 1
            return entry.body

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
        target: str | None = None,
    ) -> bool:
        """Keep ``body`` beside the resident ``answer`` it was rendered from.

        Nothing happens unless the entry still holds that very answer
        object: one evicted, cleared or replaced since the caller
        read it must not get bytes rendered from its predecessor.  The
        body is charged to ``max_bytes`` and makes room like any
        admission — least-recently-used entries drop — except that an
        entry which would exceed the budget on its own stays bodiless.
        ``target``, the raw request target that fetched the body, is
        indexed beside it (:meth:`body_for`).  Returns whether the body
        is now resident.
        """
        key = (node_id, slices, tag)
        with self._lock:
            resident = self._entries.get(key)
            if resident is None or resident.answer is not answer:
                return False
            return self._admit(key, CachedResult(answer, body, target))

    def add_target(self, key: ResultKey, entry: CachedResult, target: str) -> bool:
        """Index ``target`` as fetching ``entry``'s body.

        Only a resident entry (that very object) with a body and no
        target yet takes one, so an entry is found by the first target
        that fetched it and never by more than one.  The target's bytes
        are charged like an admission.  Returns whether it is indexed.
        """
        with self._lock:
            if (
                entry.body is None
                or entry.target is not None
                or self._entries.get(key) is not entry
            ):
                return False
            return self._admit(
                key, CachedResult(entry.answer, entry.body, target)
            )

    def _admit(self, key: ResultKey, entry: CachedResult) -> bool:
        """Make ``entry`` the newest one unless it alone exceeds the byte
        budget, then enforce both limits by dropping least-recently-used
        entries (lock held).  Returns whether ``entry`` is resident."""
        if not self.holds(entry):
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self._drop(key, old)
        self._entries[key] = entry
        self._bytes += entry.nbytes
        if entry.target is not None:
            self._targets[entry.target] = key
        while len(self._entries) > self.max_entries or (
            self.max_bytes is not None and self._bytes > self.max_bytes
        ):
            victim = next(iter(self._entries))
            if victim == key and len(self._entries) == 1:
                break  # the admission check bounds the newest entry
            self._drop(victim, self._entries.pop(victim))
        return True

    def _drop(self, key: ResultKey, entry: CachedResult) -> None:
        """Account for ``entry`` leaving the cache (lock held)."""
        self._bytes -= entry.nbytes
        if entry.target is not None and self._targets.get(entry.target) == key:
            del self._targets[entry.target]

    def clear(self) -> int:
        """Drop every entry; returns how many were resident."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._targets.clear()
            self._bytes = 0
            return dropped

    @property
    def total_bytes(self) -> int:
        """Current byte footprint of every resident answer and body."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
