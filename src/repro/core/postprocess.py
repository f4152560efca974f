"""CURE+ post-processing (Section 5.3 of the paper).

One cheap pass over the finished cube: every TT relation's row-ids — and,
under CAT format (a), every node's A-rowid list — are sorted in the order
of the relation they reference, so dereferencing them at query time
becomes one sequential scan instead of random seeks.

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
from dataclasses import dataclass

import numpy as np

from repro.core.storage import CatFormat, CubeStorage


@dataclass
class PlusReport:
    """What the CURE+ pass did."""

    tt_lists_sorted: int = 0
    elapsed_seconds: float = 0.0


def postprocess_plus(storage: CubeStorage) -> PlusReport:
    """Turn a CURE cube into a CURE+ cube, in place."""
    report = PlusReport()
    started = time.perf_counter()
    cat_format_a = storage.cat_format is CatFormat.COMMON_SOURCE
    for store in storage.nodes.values():
        # A sorted relation replaces the stored one; NT relations are not
        # touched at all.
        if store.tt_count:
            store.tt.replace(np.sort(store.tt_array()))
            report.tt_lists_sorted += 1
        if cat_format_a and store.cat_count:
            store.cat.replace(np.sort(store.cat_matrix()[:, 0]).reshape(-1, 1))
    storage.plus_processed = True
    report.elapsed_seconds = time.perf_counter() - started
    return report
