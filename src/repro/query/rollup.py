"""Roll-up / drill-down answering: hierarchical queries from base levels.

Figure 28 of the paper compares answering hierarchical node queries from a
hierarchical cube (direct node read) against flat cubes, where "the
underlying system must further aggregate materialized aggregates on the
fly".  The on-the-fly path: fetch the base-level node with the same
grouping dimensions, roll every tuple's codes up to the requested levels,
and re-aggregate (:func:`rollup_base_answer`).  The planner does this over
a flat CURE cube (:class:`~repro.query.planner.CubePlanner`, strategy
``rollup``).

Only distributive aggregates can be rolled up from materialized partials;
a holistic aggregate raises, mirroring the real limitation.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import CubeSchema
from repro.core.segments import (
    aggregate_ufuncs,
    pack_keys,
    reduce_columns,
    sort_groups,
)
from repro.lattice.node import CubeNode
from repro.query.answer import node_shape
from repro.query.column_answer import ColumnAnswer


def base_node_of(schema: CubeSchema, node: CubeNode) -> CubeNode:
    """The base-level node with the same grouping dimensions as ``node``."""
    return node_shape(schema, node).base


def rollup_base_answer(
    schema: CubeSchema, base_answer: ColumnAnswer, node: CubeNode
) -> ColumnAnswer:
    """Re-aggregate a base-level node answer up to ``node``'s levels.

    The build's group-by kernel does it (:mod:`repro.core.segments`):
    grouping codes map up through the node's level maps into one packed
    key, one stable sort groups it, and each aggregate column merges
    with its function's segmented ``ufunc.reduceat`` — the batch dual of
    pairwise ``merge``.  Groups come out in key order, which is the
    canonical order of the answer.
    """
    if not schema.all_distributive:
        raise ValueError(
            "on-the-fly roll-up needs distributive aggregates; a holistic "
            "aggregate cannot be recomputed from base-level partials"
        )
    shape = node_shape(schema, node)
    arity = len(shape.grouping)
    if not len(base_answer):
        return ColumnAnswer.empty(arity, schema.n_aggregates)
    columns = [
        codes if level_map is None else level_map[codes]
        for codes, level_map in zip(base_answer.dims.T, shape.maps)
    ]
    key = (
        pack_keys(columns, shape.cardinalities) if columns
        else np.zeros(len(base_answer), dtype=np.int64)
    )
    order, _, starts = sort_groups(key)
    first = order[starts]  # one base row per group
    rows = np.empty((len(starts), arity + schema.n_aggregates), dtype=np.int64)
    for i, codes in enumerate(columns):
        rows[:, i] = codes[first]
    ordered = np.take(base_answer.matrix(), order, axis=0)  # whole rows: faster
    rows[:, arity:] = reduce_columns(
        aggregate_ufuncs(schema), ordered[:, arity:], starts
    )
    return ColumnAnswer.of_rows(arity, rows)
