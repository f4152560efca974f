"""Node, roll-up and count-iceberg queries over the BUC and BU-BST cubes.

Every function answers with a :class:`~repro.query.column_answer.ColumnAnswer`
and counts its work in a :class:`~repro.query.answer.QueryStats`, as the
CURE readers in :mod:`repro.query` do, so the figures compare the formats
row for row:

* **BUC** — read the per-node relation directly; the fast baseline.
* **BU-BST** — scan the whole monolithic relation, keeping exact-node rows
  and the BSTs whose storing node lies on this node's plan path; this full
  scan is why Figure 16 shows it orders of magnitude slower.

A roll-up (Figure 28) reads the base-level node and re-aggregates it with
:func:`~repro.query.rollup.rollup_base_answer`; an iceberg reads the node
and filters every tuple on its count, where CURE skips its TTs.
"""

from __future__ import annotations

import numpy as np

from paper.baselines.bubst import BuBstCube
from paper.baselines.buc import BucCube
from repro.lattice.node import CubeNode
from repro.lattice.plan import plan_ancestors
from repro.query.answer import QueryStats
from repro.query.column_answer import ColumnAnswer
from repro.query.iceberg import count_filter
from repro.query.rollup import base_node_of, rollup_base_answer

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


# -- roll-ups -----------------------------------------------------------------------


def answer_rollup_from_buc(
    cube: BucCube, node: CubeNode, stats: QueryStats | None = None
) -> ColumnAnswer:
    """Answer a hierarchical node query from a (flat) BUC cube."""
    base = base_node_of(cube.schema, node)
    base_answer = answer_buc_query(cube, base, stats)
    if node == base:
        return base_answer
    return rollup_base_answer(cube.schema, base_answer, node)


def answer_rollup_from_bubst(
    cube: BuBstCube, node: CubeNode, stats: QueryStats | None = None
) -> ColumnAnswer:
    """Answer a hierarchical node query from a (flat) BU-BST cube."""
    base = base_node_of(cube.schema, node)
    base_answer = answer_bubst_query(cube, base, stats)
    if node == base:
        return base_answer
    return rollup_base_answer(cube.schema, base_answer, node)


# -- icebergs -----------------------------------------------------------------------


def iceberg_over_buc(
    cube: BucCube,
    node: CubeNode,
    min_count: int,
    stats: QueryStats | None = None,
) -> ColumnAnswer:
    """Iceberg query over BUC: read the node, then filter every tuple."""
    return count_filter(cube.schema, answer_buc_query(cube, node, stats), min_count)


def iceberg_over_bubst(
    cube: BuBstCube,
    node: CubeNode,
    min_count: int,
    stats: QueryStats | None = None,
) -> ColumnAnswer:
    """Iceberg query over BU-BST: full monolithic scan, then filter."""
    full = answer_bubst_query(cube, node, stats)
    return count_filter(cube.schema, full, min_count)
