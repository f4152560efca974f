"""Roll-up / drill-down answering: hierarchical queries over flat cubes.

Figure 28 of the paper compares answering hierarchical node queries from a
hierarchical cube (direct node read) against flat cubes, where "the
underlying system must further aggregate materialized aggregates on the
fly".  The on-the-fly path works over any flat format: fetch the
base-level node with the same grouping dimensions, roll every tuple's
codes up to the requested levels, and re-aggregate
(:func:`rollup_base_answer`).  Over CURE the planner does this
(:class:`~repro.query.planner.CubePlanner`, strategy ``rollup``);
wrappers exist for BUC and BU-BST.

Only distributive aggregates can be rolled up from materialized partials;
a holistic aggregate raises, mirroring the real limitation.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.bubst import BuBstCube
from repro.baselines.buc import BucCube
from repro.core.model import CubeSchema
from repro.core.segments import (
    aggregate_ufuncs,
    reduce_columns,
    rollup_key,
    sort_groups,
)
from repro.lattice.node import CubeNode
from repro.query.answer import (
    QueryStats,
    answer_bubst_query,
    answer_buc_query,
)
from repro.query.column_answer import ColumnAnswer
from repro.query.vector import level_map


def base_node_of(schema: CubeSchema, node: CubeNode) -> CubeNode:
    """The base-level node with the same grouping dimensions as ``node``."""
    grouping = set(node.grouping_dims(schema.dimensions))
    return CubeNode(
        tuple(
            0 if d in grouping else schema.dimensions[d].all_level
            for d in range(schema.n_dimensions)
        )
    )


def rollup_base_answer(
    schema: CubeSchema, base_answer: ColumnAnswer, node: CubeNode
) -> ColumnAnswer:
    """Re-aggregate a base-level node answer up to ``node``'s levels.

    The build's group-by kernel does it (:mod:`repro.core.segments`):
    grouping codes map up through the dimensions' level maps into one
    packed key, one stable sort groups it, and each aggregate column
    merges with its function's segmented ``ufunc.reduceat`` — the batch
    dual of pairwise ``merge``.  Groups come out in key order, which is
    the canonical order of the answer.
    """
    if not schema.all_distributive:
        raise ValueError(
            "on-the-fly roll-up needs distributive aggregates; a holistic "
            "aggregate cannot be recomputed from base-level partials"
        )
    grouping = node.grouping_dims(schema.dimensions)
    y = schema.n_aggregates
    if not len(base_answer):
        return ColumnAnswer.empty(len(grouping), y)
    dimensions = [schema.dimensions[d] for d in grouping]
    levels = [node.levels[d] for d in grouping]
    key_of = rollup_key(dimensions, levels)
    order, _, starts = sort_groups(key_of(base_answer.dims))
    first = base_answer.dims[order[starts]]  # one base row per group
    rolled = np.empty_like(first)
    for i, (dimension, level) in enumerate(zip(dimensions, levels)):
        rolled[:, i] = level_map(dimension, level)[first[:, i]]
    merged = reduce_columns(
        aggregate_ufuncs(schema), base_answer.aggregates[order], starts
    )
    return ColumnAnswer(len(grouping), y, rolled, merged)


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
