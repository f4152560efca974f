"""CURE+ post-processing (Section 5.3 of the paper).

One cheap pass over the finished cube sorts every row-id list it
stores in the order of the relation the list references, so
dereferencing a node's lists at query time is one sequential scan
instead of random seeks:

* every TT relation's R-rowids;
* every non-DR NT relation by its R-rowid (the first column), the rows
  kept whole;
* every CAT relation by its first column — under format (a) the
  A-rowids, under format (b) the R-rowids of its ⟨R-rowid, A-rowid⟩
  rows.

The paper leaves NTs "not touched at all"; sorting them too costs one
more packed sort and lets ``cube.v2`` store their R-rowid column as
LEB128 gaps (:mod:`repro.storage2.codecs`), the largest relation at
every scale.  Nothing reads an NT or CAT in row order: answers are
re-sorted on every miss, and the delta merger finds groups by row-id.

The NT and CAT matrices of each kind are ordered by one
:func:`~repro.core.segments.stable_order` over the rows of every
relation not already in order, keyed by (relation, first column); a TT
list is sorted on its own.  A relation already in order is left as it
is, so re-running the pass after a delta (as the streaming ingestor
does) costs one pass over the first columns: the delta merger inserts
each added row at its row-id's place (:mod:`repro.core.incremental`).

The paper also stores a list as a bitmap over the referenced relation
when the bitmap is smaller.  Here the lists stay sorted int64 arrays:
:meth:`~repro.core.storage.CubeStorage.size_report` charges a CURE+ list
at the smaller of the two sizes, and ``cube.v2`` stores a long sorted
list as a Roaring bitmap whenever that beats its delta encoding
(:mod:`repro.storage2.codecs`).

The paper observes the pass "is inexpensive compared to the cube
construction time and results into great savings during cube usage"; the
Figure 14/16 benchmarks reproduce both halves of that claim.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.segments import stable_order
from repro.core.storage import ArrayRelation, CubeStorage


@dataclass
class PlusReport:
    """What the CURE+ pass did: how many relations of each kind it found
    out of order and sorted."""

    tt_lists_sorted: int = 0
    nts_sorted: int = 0
    cats_sorted: int = 0
    elapsed_seconds: float = 0.0


def postprocess_plus(storage: CubeStorage) -> PlusReport:
    """Turn a CURE cube into a CURE+ cube, in place."""
    report = PlusReport()
    started = time.perf_counter()
    stores = list(storage.nodes.values())
    report.tt_lists_sorted = _sort_by_first_column(
        [store.tt for store in stores if store.tt_count]
    )
    if not storage.dr_mode:
        report.nts_sorted = _sort_by_first_column(
            [store.nt for store in stores if store.nt_count]
        )
    report.cats_sorted = _sort_by_first_column(
        [store.cat for store in stores if store.cat_count]
    )
    storage.plus_processed = True
    report.elapsed_seconds = time.perf_counter() - started
    return report


def _sort_by_first_column(relations: Sequence[ArrayRelation]) -> int:
    """Stably sort each relation's rows by their first column, replacing
    those not already in that order; returns how many were replaced.

    One pass over every relation's first column finds the ones that
    fall somewhere.  A row-id list (1-D) is sorted as it is; the rows of
    the matrices are ordered by one packed sort on (relation, first
    column), and each relation takes its rows by its slice of that order.
    """
    arrays = [relation.array() for relation in relations]
    if not arrays:
        return 0
    keys = [array if array.ndim == 1 else array[:, 0] for array in arrays]
    lengths = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
    starts = np.cumsum(lengths) - lengths
    stacked = np.concatenate(keys)
    falls = np.empty(len(stacked), dtype=np.bool_)
    np.less(stacked[1:], stacked[:-1], out=falls[1:])
    falls[starts] = False
    unsorted = np.flatnonzero(np.logical_or.reduceat(falls, starts)).tolist()
    if not unsorted:
        return 0
    if arrays[0].ndim == 1:
        for i in unsorted:
            relations[i].replace(np.sort(arrays[i]))
        return len(unsorted)
    counts = lengths[unsorted]
    owner = np.repeat(np.arange(len(unsorted), dtype=np.int64), counts)
    if len(unsorted) < len(arrays):
        stacked = np.concatenate([keys[i] for i in unsorted])
    order = stable_order(owner, stacked)
    bounds = np.cumsum(counts).tolist()
    for i, start, stop in zip(unsorted, [0, *bounds], bounds):
        local = order[start:stop]
        local -= start
        relations[i].replace(np.take(arrays[i], local, axis=0))
    return len(unsorted)
