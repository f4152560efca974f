"""BUC (Beyer & Ramakrishnan, SIGMOD 1999): the flat full-cube baseline.

BUC's bottom-up depth-first traversal is where CURE's execution plan comes
from, so BUC runs on CURE's kernel: one
:class:`~repro.core.cure.CureBuilder` over the flat plan
(:class:`~repro.lattice.plan.FlatShape`), whose event streams a small sink
turns into BUC's cube.  What still differs from CURE is what the paper
says differs — BUC identifies **no redundancy**:

* **no TT sharing**: a segment of one fact tuple (CURE's trivial tuple)
  is written out in full to its node and to every node of its plan
  sub-tree — BUC's singleton-partition optimization — instead of once, as
  a row-id, at the least detailed node; and
* **a relation per node**: every cube tuple is stored with its dimension
  values and aggregates (no NT/CAT signatures, no AGGREGATES relation).

Two consequences the paper's figures rely on:

* storage is much larger than CURE's (Figures 15, 20, 22 — "the BUC cubes
  exceed the ranges of the graph"), and
* node queries are fast (per-node relations can be read directly), though
  CURE catches up via caching and smaller size (Figure 16).

For high dimensionalities, where the singleton sub-trees are
exponentially large, ``materialize=False`` sizes the same expansion in
closed form from the per-node TT counts, so Figure 19/20-style sweeps can
report BUC sizes beyond what is feasible to materialize.

``min_count > 1`` builds BUC's iceberg cube: segments below the support
threshold are pruned and nothing is stored for them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.cure import CureBuilder
from repro.core.model import CubeSchema
from repro.core.storage import node_chunks
from repro.core.workingset import WorkingSet
from repro.lattice.plan import FlatShape, plan_ancestors
from repro.relational.sortops import SortStats
from repro.relational.table import Table

VALUE_BYTES = 4


@dataclass
class BucStats:
    """Construction counters for one BUC run."""

    nodes_aggregated: int = 0
    tuples_written: int = 0
    sort: SortStats = field(default_factory=SortStats)
    elapsed_seconds: float = 0.0


@dataclass
class BucCube:
    """A full BUC cube: one int64 relation ``(dims…, aggs…)`` per node
    (the node's grouping dimensions only; nodes without tuples absent)."""

    schema: CubeSchema
    nodes: dict[int, np.ndarray] = field(default_factory=dict)
    analytic_tuples: int = 0
    analytic_bytes: int = 0
    materialized: bool = True

    def node_rows(self, node_id: int) -> np.ndarray:
        rows = self.nodes.get(node_id)
        if rows is None:
            node = self.schema.decode_node(node_id)
            width = len(node.grouping_dims(self.schema.dimensions))
            rows = np.empty((0, width + self.schema.n_aggregates), np.int64)
        return rows

    @property
    def total_tuples(self) -> int:
        if not self.materialized:
            return self.analytic_tuples
        return sum(len(rows) for rows in self.nodes.values())

    def size_report_bytes(self) -> int:
        """Logical size: each tuple stores its grouping values + aggregates."""
        if not self.materialized:
            return self.analytic_bytes
        return sum(rows.size for rows in self.nodes.values()) * VALUE_BYTES


def positional_working_set(schema: CubeSchema, table: Table) -> WorkingSet:
    """The fact table as a working set whose row-ids are row positions, so
    an emitted row-id indexes the working set's own columns."""
    working = WorkingSet.from_fact_table(schema, table)
    return replace(working, rowids=np.arange(len(working), dtype=np.int64))


def build_buc_cube(
    schema: CubeSchema,
    table: Table,
    min_count: int = 1,
    materialize: bool = True,
) -> tuple[BucCube, BucStats]:
    """Run BUC over an in-memory fact table (flat, base levels only)."""
    started = time.perf_counter()
    working = positional_working_set(schema, table)
    builder = CureBuilder(schema, FlatShape(schema.lattice), min_count)
    tts, sigs = builder.run(working)
    tuples, values = _expansion_size(schema, tts, sigs)
    cube = BucCube(schema, materialized=materialize)
    if materialize:
        cube.nodes = _expand(working, tts, sigs)
    else:
        cube.analytic_tuples = tuples
        cube.analytic_bytes = values * VALUE_BYTES
    # Every tuple written is one aggregated node tuple, in both modes.
    stats = BucStats(
        nodes_aggregated=tuples, tuples_written=tuples, sort=builder.stats.sort
    )
    stats.elapsed_seconds = time.perf_counter() - started
    return cube, stats


def _expansion_size(
    schema: CubeSchema, tts: np.ndarray, sigs: np.ndarray
) -> tuple[int, int]:
    """BUC's tuple and stored-value counts, in closed form.

    A signature of a node with ``a`` grouping dimensions is one tuple of
    ``a + Y`` values.  A TT there is one tuple in each of the ``2^k``
    nodes of its flat-plan sub-tree (``k`` dimensions follow the node's
    last one), which together hold ``2^k · (a + Y) + k · 2^(k-1)`` values.
    """
    y = schema.n_aggregates
    tuples = values = 0
    for rows, shared in ((sigs, False), (tts, True)):
        node_ids, counts = np.unique(rows[:, 0], return_counts=True)
        for node_id, count in zip(node_ids.tolist(), counts.tolist()):
            node = schema.decode_node(node_id)
            grouping = node.grouping_dims(schema.dimensions)
            a = len(grouping)
            k = 0
            if shared:
                k = schema.n_dimensions - 1 - max(grouping, default=-1)
            tuples += count << k
            values += count * (((a + y) << k) + ((k << k) >> 1))
    return tuples, values


def _expand(
    working: WorkingSet, tts: np.ndarray, sigs: np.ndarray
) -> dict[int, np.ndarray]:
    """Each node's relation: its own signatures plus the TTs of the node
    and of its flat-plan ancestors, dimension values and singleton
    aggregates gathered from the working set at each row-id."""
    schema = working.schema
    tt_rowids = dict(node_chunks(tts[:, 0], tts[:, 1]))
    sigs_of = dict(node_chunks(sigs[:, 0], sigs))
    nodes: dict[int, np.ndarray] = {}
    for node in schema.lattice.flat_nodes():
        node_id = schema.node_id(node)
        sources = [node] + plan_ancestors(schema.lattice, node, flat=True)
        shared = [
            tt_rowids[source_id]
            for source_id in map(schema.node_id, sources)
            if source_id in tt_rowids
        ]
        own = sigs_of.get(node_id, sigs[:0])
        rowids = np.concatenate([own[:, 1], *shared])
        if not len(rowids):
            continue
        grouping = node.grouping_dims(schema.dimensions)
        a = len(grouping)
        rows = np.empty((len(rowids), a + schema.n_aggregates), np.int64)
        for i, d in enumerate(grouping):
            rows[:, i] = working.dims[d][rowids]
        rows[: len(own), a:] = own[:, 2:]
        rows[len(own) :, a:] = working.aggs[rowids[len(own) :]]
        nodes[node_id] = rows
    return nodes
