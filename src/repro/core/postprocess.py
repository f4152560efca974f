"""CURE+ post-processing (Section 5.3 of the paper).

Two cheap passes over the finished cube:

1. **Row-id sorting** — every TT relation's row-ids are sorted in fact
   table order, so dereferencing them at query time becomes one sequential
   scan instead of random seeks.
2. **Bitmap conversion** — row-id lists long enough that a bitmap over the
   referenced relation is smaller are converted: TT lists over the fact
   table, and (under CAT format (a)) node CAT lists over AGGREGATES.
   Bitmaps imply sortedness, so they get the sequential-scan benefit too.

The paper observes the pass "is inexpensive compared to the cube
construction time and results into great savings during cube usage"; the
Figure 14/16 benchmarks reproduce both halves of that claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.storage import CatFormat, CubeStorage
from repro.relational.bitmap import Bitmap


@dataclass
class PlusReport:
    """What the CURE+ pass did."""

    tt_lists_sorted: int = 0
    tt_bitmaps: int = 0
    cat_bitmaps: int = 0
    elapsed_seconds: float = 0.0


def postprocess_plus(
    storage: CubeStorage, convert_bitmaps: bool = True
) -> PlusReport:
    """Turn a CURE cube into a CURE+ cube, in place."""
    report = PlusReport()
    started = time.perf_counter()
    fact_universe = storage.fact_row_count
    aggregates_universe = storage.aggregates_count
    cat_format_a = storage.cat_format is CatFormat.COMMON_SOURCE
    for store in storage.nodes.values():
        # A sorted relation replaces the stored one (or a bitmap does, and
        # the relation empties); NT relations are not touched at all.
        if store.tt_bitmap is None and store.tt_count:
            rowids = np.sort(store.tt_array())
            report.tt_lists_sorted += 1
            if convert_bitmaps and Bitmap.beneficial(
                len(rowids), fact_universe
            ):
                store.tt_bitmap = Bitmap.from_rowids(rowids, fact_universe)
                rowids = np.empty(0, dtype=np.int64)
                report.tt_bitmaps += 1
            store.tt.replace(rowids)
        if cat_format_a and store.cat_bitmap is None and store.cat_count:
            arowids = np.sort(store.cat_matrix()[:, 0])
            # Format (a) CAT rows are bare ⟨A-rowid⟩ singletons, but a
            # bitmap can only represent a *set*; duplicates (several
            # cube tuples of one node sharing an AGGREGATES row) would
            # be lost, so only duplicate-free lists convert.
            if (
                convert_bitmaps
                and Bitmap.beneficial(len(arowids), aggregates_universe)
                and bool((arowids[1:] != arowids[:-1]).all())
            ):
                store.cat_bitmap = Bitmap.from_rowids(
                    arowids, aggregates_universe
                )
                arowids = np.empty(0, dtype=np.int64)
                report.cat_bitmaps += 1
            store.cat.replace(arowids.reshape(-1, 1))
    storage.plus_processed = True
    report.elapsed_seconds = time.perf_counter() - started
    return report
