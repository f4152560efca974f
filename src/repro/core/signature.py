"""Signatures and the bounded signature pool (Section 5.2 of the paper).

A **signature** is the minimal metadata CURE keeps per aggregated
(non-trivial) cube tuple: the aggregate value vector, the minimum source
R-rowid, and the node id.  Nothing else is needed — an NT tuple
``⟨R-rowid, Aggr…⟩`` can be produced from the signature itself, and CAT
bookkeeping only compares aggregates and source rowids.

The **pool** is bounded.  While it has room, signatures accumulate; when it
fills (and once more at the very end), it is *flushed*: signatures are
sorted by ``(aggregates, R-rowid)``, runs with equal aggregates are
classified — singleton run → NT, longer run → CATs — and handed to the
storage layer.  Because classification only sees what is resident, a small
pool may store some repeated aggregates redundantly; the paper's Figure 18
measures exactly this trade-off, and :mod:`benchmarks.bench_fig18_pool_size`
reproduces it.

During the first flush the pool also gathers the ``(m, k, n)`` statistics
of Section 5.1 and fixes the CAT storage format once, globally.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.segments import stable_order


class Signature(NamedTuple):
    """Metadata of one aggregated, non-trivial cube tuple (Figure 12).

    The pool holds signatures as rows ``(node_id, rowid, aggregates…)`` of
    one int64 array; this is the one-row form.
    """

    aggregates: tuple[int, ...]
    rowid: int
    node_id: int


@dataclass
class PoolStats:
    """Counters describing pool behaviour across a whole build."""

    flushes: int = 0
    signatures_added: int = 0
    nt_runs: int = 0
    cat_runs: int = 0
    cat_signatures: int = 0

    def reset(self) -> None:
        self.flushes = 0
        self.signatures_added = 0
        self.nt_runs = 0
        self.cat_runs = 0
        self.cat_signatures = 0


@dataclass
class FormatStatistics:
    """The Section 5.1 quantities measured over one flush.

    ``m`` aggregate-value combinations appear among CAT runs; on average
    each is shared by ``k`` CATs produced by ``n`` distinct source sets
    (proxied by distinct minimum R-rowids within the run).  Format (a)
    wins when ``k/n > Y + 1``.
    """

    m: int = 0
    total_cats: int = 0
    total_sources: int = 0

    @property
    def mean_k(self) -> float:
        return self.total_cats / self.m if self.m else 0.0

    @property
    def mean_n(self) -> float:
        return self.total_sources / self.m if self.m else 0.0

    def common_source_prevails(self, n_aggregates: int) -> bool:
        """The ``k/n > Y + 1`` criterion."""
        if self.m == 0 or self.total_sources == 0:
            return False
        return self.mean_k / self.mean_n > n_aggregates + 1


def cat_members(run_lengths: np.ndarray) -> np.ndarray:
    """Row mask of a classified flush: True for members of runs of ≥ 2."""
    return np.repeat(run_lengths > 1, run_lengths)


@dataclass
class SignaturePool:
    """A bounded pool of signatures with sort-classify-flush semantics.

    Parameters
    ----------
    capacity:
        Maximum resident signatures; ``None`` means unbounded (the
        idealized algorithm that identifies every CAT).
    on_flush:
        Called once per flush with ``(rows, run_lengths)``: the resident
        signatures as an ``(n, 2 + Y)`` array of ``(node_id, rowid,
        aggregates…)`` rows sorted by ``(aggregates, rowid)`` — ties in
        arrival order — and the lengths of its maximal runs of equal
        aggregates.  A run of one is a normal tuple, a longer run a run
        of CATs.
    on_statistics:
        Called before the first flush is handed over, with its
        :class:`FormatStatistics`.
    n_aggregates:
        ``Y``.  Columns after the aggregates (a ``CURE_DR`` row's codes)
        ride along: no sort key, and capacity counts rows, so flush windows
        and NT/CAT runs do not depend on them.  ``None``: all of them.
    """

    capacity: int | None
    on_flush: Callable[[np.ndarray, np.ndarray], None]
    on_statistics: Callable[[FormatStatistics], None] | None = None
    n_aggregates: int | None = None
    stats: PoolStats = field(default_factory=PoolStats)
    first_flush_statistics: FormatStatistics | None = None
    _window: list[np.ndarray] = field(default_factory=list, repr=False)
    _resident: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("pool capacity must be >= 1 (or None)")

    def __len__(self) -> int:
        return self._resident

    @property
    def full(self) -> bool:
        return self.capacity is not None and self._resident >= self.capacity

    def add(self, signature: Signature) -> None:
        """Add one signature: the one-row form of :meth:`add_batch`."""
        row = (signature.node_id, signature.rowid, *signature.aggregates)
        self.add_batch(np.asarray([row], dtype=np.int64))

    def add_batch(self, rows: np.ndarray) -> None:
        """Add ``(node_id, rowid, aggregates…)`` rows in emission order.

        Exactly the windows of adding them one at a time under lines 6–7
        of ``ExecutePlan`` in Figure 13: the fullness check precedes each
        insert, so the pool never exceeds capacity and a pool that ends a
        batch exactly full is flushed only when the next signature
        arrives.
        """
        taken = 0
        while taken < len(rows):
            if self.full:
                self.flush()
            room = len(rows) - taken
            if self.capacity is not None:
                room = min(room, self.capacity - self._resident)
            self._window.append(rows[taken : taken + room])
            self._resident += room
            taken += room
        self.stats.signatures_added += len(rows)

    def flush(self) -> None:
        """Sort, classify into NTs and CAT runs, and empty the pool.

        On the first flush the Section 5.1 statistics are computed over the
        resident CAT runs and reported (via ``on_statistics``) *before* the
        flush is handed over, so the storage layer can fix the CAT format
        first — "the decision on the format can be made once and used
        globally".
        """
        if not self._resident:
            return
        self.stats.flushes += 1
        rows = np.concatenate(self._window)
        self._window.clear()
        self._resident = 0
        # One stable sort on (aggregates…, rowid).
        stop = None if self.n_aggregates is None else 2 + self.n_aggregates
        order = stable_order(*rows[:, 2:stop].T, rows[:, 1])
        rows = np.take(rows, order, axis=0)
        new_run = np.zeros(len(rows), dtype=np.bool_)
        new_run[0] = True
        for column in rows[:, 2:stop].T:
            new_run[1:] |= column[1:] != column[:-1]
        starts = np.flatnonzero(new_run)
        run_lengths = np.diff(starts, append=len(rows))
        is_cat_run = run_lengths > 1
        n_cat_runs = int(is_cat_run.sum())
        n_cats = int(run_lengths[is_cat_run].sum())
        if self.first_flush_statistics is None:
            # Within a run rows ascend by rowid, so a source set starts
            # wherever the run or the rowid changes.
            new_source = new_run.copy()
            new_source[1:] |= rows[1:, 1] != rows[:-1, 1]
            n_sources = int((new_source & cat_members(run_lengths)).sum())
            statistics = FormatStatistics(n_cat_runs, n_cats, n_sources)
            self.first_flush_statistics = statistics
            if self.on_statistics is not None:
                self.on_statistics(statistics)
        self.stats.nt_runs += len(run_lengths) - n_cat_runs
        self.stats.cat_runs += n_cat_runs
        self.stats.cat_signatures += n_cats
        self.on_flush(rows, run_lengths)

    @staticmethod
    def size_bytes(capacity: int, n_aggregates: int) -> int:
        """The paper's pool footprint estimate: ``(Y + 2) * 4`` per entry."""
        return capacity * (n_aggregates + 2) * 4
