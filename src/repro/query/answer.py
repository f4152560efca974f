"""Node-query answering over CURE, BUC and BU-BST cubes.

A **node query** asks for every tuple of one cube node (a group-by with no
selection) — the workload of Figures 16, 25 and 28.  Every format answers
with a :class:`~repro.query.column_answer.ColumnAnswer`, so correctness
tests can compare them directly against :func:`reference_group_by`, a
naive re-aggregation of the fact data.

Per format:

* **CURE** — read the node's NT/CAT relations (dereferencing R-rowids into
  the fact cache and A-rowids into AGGREGATES), then collect shared TTs
  from the node itself and its plan ancestors — every build, partitioned
  or not, stores a TT once.  CURE+ cubes benefit from sorted row-id
  lists via the cache's sequential path.
* **BUC** — read the per-node relation directly; the fast baseline.
* **BU-BST** — scan the whole monolithic relation, keeping exact-node rows
  and the BSTs whose storing node lies on this node's plan path; this full
  scan is why Figure 16 shows it orders of magnitude slower.

:func:`read_node_relations` is the one place that knows how a CURE node
is stored (Section 5.3).  What the schema decides about a node is its
:class:`NodeShape` (memoized on the schema), and the nodes whose TTs it
shares, which the plan decides, are :func:`tt_source_ids`
(memoized on the storage); neither memo holds stored data, which
incremental maintenance replaces between queries.  A read is one pass: every relation's
surviving row-ids dereference in one :meth:`FactCache.fetch_batch`,
and the codes (rolled up through the level maps) and aggregates fill
one preallocated ``(n, arity + Y)`` int64 matrix — no answer tuple
becomes a Python object.  Node queries, slices
(:mod:`repro.query.slice`) and count-icebergs
(:mod:`repro.query.iceberg`) differ only in the pre-fetch filter they
hand over: a test of the stored row-ids, or of the stored aggregates.  The tuple-at-a-time engine this replaced is the test
oracle ``tests/support/row_engine.py``, which the differential suite
holds answers, node-query row order and every work counter to.
"""

from __future__ import annotations

import json
from collections.abc import Callable
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
from repro.relational.aggregates import aggregate_singleton

#: A pre-fetch filter: given stored fact row-ids (a slice's test), or
#: stored ``(n, Y)`` aggregate rows (an iceberg's), the boolean mask of
#: the rows worth dereferencing.
RowFilter = Callable[[np.ndarray], np.ndarray]


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


# -- node shapes ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NodeShape:
    """What the schema and the lattice decide about one node's answers.

    ``maps`` has one level map per grouping dimension (``None`` at the
    base level) and ``cardinalities`` its level's member count;
    ``columns_with_measures`` are the fact columns a read with a TT tail
    fetches; ``body`` is the constant canonical JSON of the node's
    encoded answers, split where ``count`` and ``kind`` go.
    """

    node_id: int
    grouping: tuple[int, ...]
    base: CubeNode
    columns_with_measures: tuple[int, ...]
    maps: tuple[np.ndarray | None, ...]
    cardinalities: tuple[int, ...]
    body: tuple[bytes, bytes, bytes]

    @classmethod
    def of(cls, schema: CubeSchema, node: CubeNode) -> "NodeShape":
        grouping = node.grouping_dims(schema.dimensions)
        node_id = schema.node_id(node)
        levels = [(schema.dimensions[d], node.levels[d]) for d in grouping]
        groups = [f"{dim.name}.{dim.level(level).name}" for dim, level in levels]
        return cls(
            node_id,
            grouping,
            CubeNode(
                tuple(
                    0 if d in grouping else dimension.all_level
                    for d, dimension in enumerate(schema.dimensions)
                )
            ),
            (*grouping, *range(schema.n_dimensions, schema.fact_schema.arity)),
            tuple(dim.level_maps[level] if level else None for dim, level in levels),
            tuple(dim.cardinality(level) for dim, level in levels),
            (
                b'{"aggregates":%s,"count":'
                % _json([spec.name for spec in schema.aggregates]),
                b',"groups":%s,"kind":' % _json(groups),
                b',"levels":%s,"node":%d' % (_json(list(node.levels)), node_id),
            ),
        )


def _json(value: object) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode("ascii")


def node_shape(schema: CubeSchema, node: CubeNode) -> NodeShape:
    """``node``'s :class:`NodeShape`, built on first ask and memoized on
    ``schema``; two threads that build it together store equal values."""
    shape = schema.node_shapes.get(node)
    if shape is None:
        shape = schema.node_shapes[node] = NodeShape.of(schema, node)
    return shape


def tt_source_ids(
    storage: CubeStorage, node: CubeNode, node_id: int
) -> tuple[int, ...]:
    """The ids of ``node`` and its plan ancestors, whose TT lists hold
    ``node``'s trivial tuples: every build stores a TT once, at the least
    detailed node where its group is one fact row (Section 5.1).
    Memoized on ``storage``: only the lattice and ``flat`` decide them,
    never a stored relation, so two request threads that miss together
    store equal tuples."""
    sources = storage.tt_source_ids.get(node_id)
    if sources is None:
        schema = storage.schema
        ancestors = plan_ancestors(schema.lattice, node, flat=storage.flat)
        sources = (node_id, *map(schema.node_id, ancestors))
        storage.tt_source_ids[node_id] = sources
    return sources


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
    keep: RowFilter | None = None,
    having: RowFilter | None = None,
) -> ColumnAnswer:
    """Read ``node``'s NT, CAT and shared TT relations into one answer.

    Two filters drop stored rows *before* their fact fetch: ``keep``
    tests the stored fact row-ids (the cube must store row-ids, not DR
    NTs), and ``having`` the stored aggregates of the NT and CAT rows —
    a test no TT row may pass, for the TT relations are left unread.
    ``rows_scanned`` counts every stored row looked at,
    ``fact_fetches`` those that survived and were dereferenced,
    ``tuples_returned`` the answer's rows.  Rows come out relation by
    relation (NT, CAT, then TTs down the plan path), each in stored
    order, as views of one ``(n, arity + Y)`` matrix: a DR NT's inline
    rows first, then the rows whose row-ids dereference in one
    :meth:`FactCache.fetch_batch` — of the grouping dimensions' columns,
    and the measures only for a TT tail, whose aggregates are the fact
    row's own.
    """
    schema, y = storage.schema, storage.schema.n_aggregates
    shape = node_shape(schema, node)
    arity = len(shape.grouping)
    inline: np.ndarray | None = None  # a DR NT: codes, then aggregates
    # The relations whose rows dereference row-ids: their row-ids, and
    # for all but the TTs (which come last) the stored matrix and its
    # first aggregate column.  CURE+ sorts every one of them by row-id.
    rowid_parts: list[np.ndarray] = []
    stored: list[tuple[np.ndarray, int]] = []
    store = storage.get_node_store(shape.node_id)
    if store is not None:
        if store.nt_count:
            nt = store.nt_matrix()
            if storage.dr_mode:
                inline = nt
            else:
                rowid_parts.append(nt[:, 0])
                stored.append((nt, 1))
        if store.cat_count:
            cat = store.cat_matrix()
            shared = storage.aggregates_matrix()
            if storage.cat_format is CatFormat.COMMON_SOURCE:
                # Format (a): node rows are A-rowids; AGGREGATES rows are
                # ⟨R-rowid, aggregates⟩.
                entries = np.take(shared, cat[:, 0], axis=0)
                rowid_parts.append(entries[:, 0])
                stored.append((entries, 1))
            else:
                # Format (b): node rows are ⟨R-rowid, A-rowid⟩, AGGREGATES
                # is bare; one gather joins the A-rowids against it.
                rowid_parts.append(cat[:, 0])
                stored.append((np.take(shared, cat[:, 1], axis=0), 0))
    if having is None:
        for source_id in tt_source_ids(storage, node, shape.node_id):
            tt_store = storage.get_node_store(source_id)
            if tt_store is not None and tt_store.tt_count:
                rowid_parts.append(tt_store.tt_array())
    rowids = np.concatenate(rowid_parts) if rowid_parts else np.empty(0, dtype=np.int64)
    if stats is not None:
        stats.rows_scanned += len(rowids) + (0 if inline is None else len(inline))
    mask: np.ndarray | None = None
    if having is not None:
        if inline is not None:
            passed = having(inline[:, arity : arity + y])
            inline = np.compress(passed, inline, axis=0)
        if stored:
            aggregates = [m[:, first : first + y] for m, first in stored]
            mask = having(np.concatenate(aggregates))
    elif keep is not None and len(rowids):
        mask = keep(rowids)
    if mask is not None:
        rowids = rowids[mask]
        start = 0
        for i, (matrix, first) in enumerate(stored):
            kept = mask[start : start + len(matrix)]
            start += len(matrix)
            stored[i] = np.compress(kept, matrix, axis=0), first
    start = 0 if inline is None else len(inline)
    rows = np.empty((start + len(rowids), arity + y), dtype=np.int64)
    if inline is not None:
        rows[:start] = inline[:, : arity + y]
    if len(rowids):
        if stats is not None:
            stats.fact_fetches += len(rowids)
        end = start + sum(len(matrix) for matrix, _ in stored)
        tail = end < len(rows)  # TT rows: aggregates from the measures
        fact = cache.fetch_batch(
            rowids,
            storage.plus_processed,
            shape.columns_with_measures if tail else shape.grouping,
        )
        for i, (codes, level_map) in enumerate(zip(fact.arrays, shape.maps)):
            rows[start:, i] = codes if level_map is None else level_map[codes]
        for matrix, first in stored:
            rows[start : start + len(matrix), arity:] = matrix[:, first : first + y]
            start += len(matrix)
        if tail:
            measures = fact.arrays[arity:]
            for j, spec in enumerate(schema.aggregates):
                rows[end:, arity + j] = spec.function.from_column(
                    measures[spec.measure_index][end - len(rows) :]
                )
    if stats is not None:
        stats.tuples_returned += len(rows)
    return ColumnAnswer.of_rows(arity, rows)


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
    kept = np.compress(keep, rows, axis=0)
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
