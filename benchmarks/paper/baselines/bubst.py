"""BU-BST (Wang et al., ICDE 2002): the condensed-cube baseline.

BU-BST runs the same bottom-up recursion as BUC — here, like BUC, one
:class:`~repro.core.cure.CureBuilder` over the flat plan
(:class:`~repro.lattice.plan.FlatShape`) — and recognizes **base single
tuples** (BSTs) exactly as CURE recognizes trivial tuples: when a
partition shrinks to one fact tuple, that tuple is stored once, at the
least detailed node, and shared with the whole plan sub-tree.  That
removes the same tuple-count redundancy CURE's TTs remove; the kernel's
TTs are the BSTs and its signatures are the other rows.

What still differs from CURE is the sink, which the paper's Figures 15/16
punish:

* everything lands in **one monolithic relation** of fixed-width rows
  (dimension values with an ALL marker, then aggregates), so
* answering any node query requires a sequential scan of the entire cube
  (2–3 orders of magnitude slower than BUC/CURE in Figure 16), and
* no dimensional or aggregational redundancy is removed from non-BST rows
  (no NT/CAT classification of the signatures).

The logical size model is ``(D + Y) · 4`` bytes per row, matching the
"single relation of fix-sized tuples" the paper describes; at Z = 2 in
Figure 22 (no BSTs at all) this lands near BUC's size, as the paper notes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from paper.baselines.buc import VALUE_BYTES, positional_working_set
from repro.core.cure import CureBuilder
from repro.core.model import CubeSchema
from repro.lattice.plan import FlatShape
from repro.relational.sortops import SortStats
from repro.relational.table import Table

ALL_MARKER = -1


@dataclass
class BuBstStats:
    """Construction counters for one BU-BST run."""

    nodes_aggregated: int = 0
    bst_written: int = 0
    rows_written: int = 0
    sort: SortStats = field(default_factory=SortStats)
    elapsed_seconds: float = 0.0


@dataclass
class BuBstCube:
    """The condensed cube: one monolithic int64 relation.

    Columns are ``(node_id, is_bst, dims…, aggs…)``.  ``dims`` has one
    entry per dimension (``ALL_MARKER`` outside the grouping set; for
    BSTs, the base tuple's full dimension vector).  ``node_id`` records
    where the row was produced, which the query layer needs to resolve
    BST sub-tree sharing.  Row order is not significant.
    """

    schema: CubeSchema
    rows: np.ndarray

    @property
    def total_tuples(self) -> int:
        return len(self.rows)

    def size_report_bytes(self) -> int:
        width = (
            self.schema.n_dimensions + self.schema.n_aggregates
        ) * VALUE_BYTES
        return len(self.rows) * width


def build_bubst_cube(
    schema: CubeSchema, table: Table
) -> tuple[BuBstCube, BuBstStats]:
    """Run BU-BST over an in-memory fact table (flat, base levels only)."""
    started = time.perf_counter()
    working = positional_working_set(schema, table)
    builder = CureBuilder(schema, FlatShape(schema.lattice))
    tts, sigs = builder.run(working)
    d = schema.n_dimensions
    events = np.concatenate((sigs[:, :2], tts))
    rows = np.zeros((len(events), 2 + d + schema.n_aggregates), np.int64)
    rows[:, 0] = events[:, 0]
    rows[len(sigs) :, 1] = 1
    for i, column in enumerate(working.dims):
        rows[:, 2 + i] = column[events[:, 1]]
    rows[: len(sigs), 2 + d :] = sigs[:, 2:]
    rows[len(sigs) :, 2 + d :] = working.aggs[tts[:, 1]]
    # A non-BST row keeps only its grouping set's values.
    node_ids, inverse = np.unique(sigs[:, 0], return_inverse=True)
    grouped = np.zeros((len(node_ids), d), dtype=np.bool_)
    for j, node_id in enumerate(node_ids.tolist()):
        node = schema.decode_node(node_id)
        grouped[j, list(node.grouping_dims(schema.dimensions))] = True
    outside = ~grouped[inverse.reshape(-1)]
    rows[: len(sigs), 2 : 2 + d][outside] = ALL_MARKER
    stats = BuBstStats(
        nodes_aggregated=len(sigs),
        bst_written=len(tts),
        rows_written=len(rows),
        sort=builder.stats.sort,
    )
    stats.elapsed_seconds = time.perf_counter() - started
    return BuBstCube(schema, rows), stats
