"""Node-query answering over CURE, BUC and BU-BST cubes.

A **node query** asks for every tuple of one cube node (a group-by with no
selection) — the workload of Figures 16, 25 and 28.  Every format answers
with a :class:`~repro.query.column_answer.ColumnAnswer`, so correctness
tests can compare them directly against :func:`reference_group_by`, a
naive re-aggregation of the fact data.

Per format:

* **CURE** — read the node's NT/CAT relations (dereferencing R-rowids into
  the fact cache and A-rowids into AGGREGATES), then collect shared TTs
  from the node itself and its plan ancestors.  CURE+ cubes benefit from
  sorted row-id lists via the cache's sequential path.
* **BUC** — read the per-node relation directly; the fast baseline.
* **BU-BST** — scan the whole monolithic relation, keeping exact-node rows
  and the BSTs whose storing node lies on this node's plan path; this full
  scan is why Figure 16 shows it orders of magnitude slower.

:func:`read_node_relations` is the one place that knows how a CURE node
is stored (Section 5.3): stored rows are int64 matrices, R-rowids
dereference through :meth:`FactCache.fetch_batch` as one columnar gather,
hierarchy roll-up and singleton aggregates run as whole batch kernels
(:mod:`repro.query.vector`), and the A-rowid join against AGGREGATES is
a single fancy-index into the cached matrix view — no answer tuple ever
becomes a Python object.  Node queries, index-assisted slices
(:mod:`repro.query.slice`) and count-icebergs (:mod:`repro.query.iceberg`)
all go through it and differ only in the pre-fetch filter they hand over.
The tuple-at-a-time engine this replaced lives on as the test oracle
``tests/support/row_engine.py``: the differential suite holds answers,
node-query row order and every work counter to it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.baselines.bubst import BuBstCube
from repro.baselines.buc import BucCube
from repro.core.model import CubeSchema
from repro.core.storage import CatFormat, CubeStorage
from repro.lattice.node import CubeNode
from repro.lattice.plan import plan_ancestors
from repro.query.cache import FactCache
from repro.query.column_answer import ColumnAnswer, Pairs
from repro.query.vector import (
    project_fact_dims,
    singleton_aggregates,
)
from repro.relational.aggregates import aggregate_singleton

#: A pre-fetch filter over one stored relation: given its fact row-ids
#: (``None`` for DR NTs, which carry their dimension values inline) and
#: its stored aggregate vectors (``None`` for TTs, whose aggregates come
#: out of the fact row), the boolean mask of rows worth dereferencing.
PrefetchFilter = Callable[
    [np.ndarray | None, np.ndarray | None], np.ndarray
]


@dataclass
class QueryStats:
    """Work counters for one (or many) query executions."""

    rows_scanned: int = 0
    fact_fetches: int = 0
    tuples_returned: int = 0

    def reset(self) -> None:
        self.rows_scanned = 0
        self.fact_fetches = 0
        self.tuples_returned = 0


# -- CURE -------------------------------------------------------------------------


def answer_cure_query(
    storage: CubeStorage,
    cache: FactCache,
    node: CubeNode,
    stats: QueryStats | None = None,
) -> ColumnAnswer:
    """Answer one node query over a CURE(-family) cube."""
    return read_node_relations(storage, cache, node, stats)


def read_node_relations(
    storage: CubeStorage,
    cache: FactCache,
    node: CubeNode,
    stats: QueryStats | None = None,
    keep: PrefetchFilter | None = None,
    with_tts: bool = True,
) -> ColumnAnswer:
    """Read ``node``'s NT, CAT and shared TT relations into one answer.

    ``keep`` drops stored rows *before* their fact fetch — the index
    pre-filter of a slice, the stored-count test of an iceberg — and
    ``with_tts=False`` leaves the TT relations unread (a TT's count is
    always 1).  ``rows_scanned`` counts every stored row looked at,
    ``fact_fetches`` those that survived ``keep`` and were dereferenced,
    ``tuples_returned`` the answer's rows.  Rows come out relation by
    relation (NT, CAT, then TTs down the plan path), each in stored order.
    """
    schema = storage.schema
    parts = []
    for rowids, dims, aggregates, sorted_hint in _stored_relations(
        storage, node, with_tts
    ):
        if stats is not None:
            stats.rows_scanned += len(dims if rowids is None else rowids)
        if keep is not None:
            mask = keep(rowids, aggregates)
            if rowids is None:
                dims = dims[mask]
            else:
                rowids = rowids[mask]
            if aggregates is not None:
                aggregates = aggregates[mask]
        if rowids is not None:
            if not len(rowids):
                continue
            if stats is not None:
                stats.fact_fetches += len(rowids)
            fact = cache.fetch_batch(rowids, sorted_hint=sorted_hint)
            dims = project_fact_dims(schema, fact, node)
            if aggregates is None:
                aggregates = singleton_aggregates(schema, fact)
        parts.append((dims, aggregates))
    answer = ColumnAnswer.from_parts(
        len(node.grouping_dims(schema.dimensions)), schema.n_aggregates, parts
    )
    if stats is not None:
        stats.tuples_returned += len(answer)
    return answer


def _stored_relations(
    storage: CubeStorage, node: CubeNode, with_tts: bool
) -> Iterator[
    tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None, bool]
]:
    """How ``node`` is stored (Section 5.1), one relation at a time.

    Yields ``(rowids, dims, aggregates, sorted_hint)`` per non-empty
    relation: the fact row-ids its tuples dereference (``sorted_hint``
    says whether they ascend), or — DR NTs only — ``rowids=None`` and
    the ``dims`` stored inline; and the stored aggregate vectors, or
    ``None`` for TTs, whose aggregates are the fact row's own.
    """
    schema = storage.schema
    y = schema.n_aggregates
    store = storage.get_node_store(schema.node_id(node))
    if store is not None:
        if store.nt_count:
            nt = store.nt_matrix()
            if storage.dr_mode:
                arity = len(node.grouping_dims(schema.dimensions))
                yield None, nt[:, :arity], nt[:, arity : arity + y], False
            else:
                yield nt[:, 0], None, nt[:, 1 : 1 + y], storage.plus_processed
        if store.cat_count:
            cat = store.cat_matrix()
            shared = storage.aggregates_matrix()
            if storage.cat_format is CatFormat.COMMON_SOURCE:
                # Format (a): node rows are A-rowids; AGGREGATES rows are
                # ⟨R-rowid, aggregates⟩.
                entries = shared[cat[:, 0]]
                yield (
                    entries[:, 0],
                    None,
                    entries[:, 1 : 1 + y],
                    storage.plus_processed,
                )
            else:
                # Format (b): node rows are ⟨R-rowid, A-rowid⟩, AGGREGATES
                # is bare; one fancy-index joins the A-rowids against it.
                yield cat[:, 0], None, shared[cat[:, 1]], False
    if not with_tts:
        return
    for source in tt_source_nodes(storage, node):
        tt_store = storage.get_node_store(schema.node_id(source))
        if tt_store is not None and tt_store.tt_count:
            yield tt_store.tt_array(), None, None, storage.plus_processed


def _construction_phase(storage: CubeStorage, node: CubeNode) -> str:
    """Which construction phase produced ``node``'s tuples?

    ``"P"`` — the partition phase (dimension 0 present at level ≤ L, and
    for pair partitioning also dimension 1 present at level ≤ M);
    ``"N2"`` — the second coarse node of pair partitioning (dimension 0
    present ≤ L, dimension 1 above M or absent);
    ``"N1"`` — the (first) coarse node (dimension 0 above L or absent).
    """
    schema = storage.schema
    level = storage.partition_level
    all0 = schema.dimensions[0].all_level
    if node.levels[0] == all0 or node.levels[0] > level:
        return "N1"
    level2 = storage.partition_level2
    if level2 is None:
        return "P"
    all1 = schema.dimensions[1].all_level
    if node.levels[1] != all1 and node.levels[1] <= level2:
        return "P"
    return "N2"


def tt_source_nodes(storage: CubeStorage, node: CubeNode) -> list[CubeNode]:
    """The node itself plus every plan ancestor whose TT relation may hold
    trivial tuples shared with ``node``.

    For a cube built with external partitioning, each node's tuples were
    produced by one construction phase (partitions, the coarse node N —
    or, with pair partitioning, one of two coarse nodes), and TT sharing
    only spans nodes of the same phase: each phase's recursion re-finds
    the trivial tuples of its own region, so crossing a phase boundary
    would double-count them.
    """
    schema = storage.schema
    chain = [node] + plan_ancestors(schema.lattice, node, flat=storage.flat)
    if storage.partition_level is None:
        return chain
    phase = _construction_phase(storage, node)
    return [
        candidate
        for candidate in chain
        if _construction_phase(storage, candidate) == phase
    ]


# -- BUC ---------------------------------------------------------------------------


def answer_buc_query(
    cube: BucCube, node: CubeNode, stats: QueryStats | None = None
) -> ColumnAnswer:
    """Answer one node query over a BUC cube (direct per-node read)."""
    if not cube.materialized:
        raise ValueError("cannot query an analytically-sized BUC cube")
    schema = cube.schema
    rows = cube.node_rows(schema.node_id(node))
    arity = len(node.grouping_dims(schema.dimensions))
    answer = ColumnAnswer(
        arity, schema.n_aggregates, rows[:, :arity], rows[:, arity:]
    )
    if stats is not None:
        stats.rows_scanned += len(rows)
        stats.tuples_returned += len(answer)
    return answer


# -- BU-BST -------------------------------------------------------------------------


def answer_bubst_query(
    cube: BuBstCube, node: CubeNode, stats: QueryStats | None = None
) -> ColumnAnswer:
    """Answer one node query over a BU-BST cube (full monolithic scan).

    Every row is looked at: exact-node non-BST rows are kept, and BSTs
    whose storing node lies on this node's plan path.
    """
    schema = cube.schema
    rows = cube.rows
    node_id = schema.node_id(node)
    grouping = node.grouping_dims(schema.dimensions)
    sharing_ids = [node_id] + [
        schema.node_id(source)
        for source in plan_ancestors(schema.lattice, node, flat=True)
    ]
    keep = np.where(
        rows[:, 1] == 1,
        np.isin(rows[:, 0], sharing_ids),
        rows[:, 0] == node_id,
    )
    kept = rows[keep]
    answer = ColumnAnswer(
        len(grouping),
        schema.n_aggregates,
        kept[:, [2 + d for d in grouping]],
        kept[:, 2 + schema.n_dimensions :],
    )
    if stats is not None:
        stats.rows_scanned += len(rows)
        stats.tuples_returned += len(answer)
    return answer


# -- reference ------------------------------------------------------------------------


def reference_group_by(
    schema: CubeSchema, fact_rows: list[tuple], node: CubeNode
) -> Pairs:
    """Naive re-aggregation of the fact data: ground truth for tests."""
    groups: dict[tuple[int, ...], tuple[int, ...]] = {}
    for row in fact_rows:
        dims = schema.project_to_node(schema.dim_values(row), node)
        partial = aggregate_singleton(schema.aggregates, schema.measures(row))
        existing = groups.get(dims)
        if existing is None:
            groups[dims] = partial
        else:
            groups[dims] = tuple(
                spec.function.merge(a, b)
                for spec, a, b in zip(schema.aggregates, existing, partial)
            )
    return sorted(groups.items())


def normalize_answer(answer: ColumnAnswer) -> Pairs:
    """``answer.normalized().to_pairs()``: sorted tuple pairs, the shape
    :func:`reference_group_by` returns (formats answer in arbitrary
    orders)."""
    return answer.normalized().to_pairs()
