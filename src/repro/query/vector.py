"""Vectorized helpers shared by the query-answering layer.

Query answering over the per-node relations of Section 5 is dominated by
two per-tuple operations: rolling fact dimension codes up to a node's
levels and forming singleton aggregate vectors for TTs.  These helpers
run each of them as one numpy kernel over a whole
:class:`~repro.relational.batch.ColumnBatch` (or row matrix); the
resulting matrices feed straight into
:class:`~repro.query.column_answer.ColumnAnswer` — no tuple-pair bridge
exists on the answering path.

Hierarchy roll-up maps (``Dimension.base_maps``) are plain tuples on the
dimension objects; their array form is memoized on the dimension itself
(``Dimension.level_maps``), so the hot path pays the conversion once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.relational.batch import ColumnBatch

if TYPE_CHECKING:
    from repro.core.model import CubeSchema
    from repro.hierarchy.dimension import Dimension
    from repro.lattice.node import CubeNode


def level_map(dimension: "Dimension", level: int) -> np.ndarray:
    """``dimension.base_maps[level]`` as a shared int64 lookup array."""
    return dimension.level_maps[level]


def project_fact_dims(
    schema: "CubeSchema", fact: ColumnBatch, node: "CubeNode"
) -> np.ndarray:
    """Roll a fact batch's dimension columns up to ``node``'s levels.

    The vectorized dual of ``schema.project_to_node(schema.dim_values(r),
    node)`` per row: one ``(n, grouping_arity)`` matrix for the batch.
    """
    names = schema.fact_schema.names
    columns = []
    for d, dimension in enumerate(schema.dimensions):
        level = node.levels[d]
        if level == dimension.all_level:
            continue
        values = fact.column(names[d]).astype(np.int64, copy=False)
        if level != 0:
            values = level_map(dimension, level)[values]
        columns.append(values)
    if not columns:
        return np.empty((fact.length, 0), dtype=np.int64)
    return np.stack(columns, axis=1)


def singleton_aggregates(
    schema: "CubeSchema", fact: ColumnBatch
) -> np.ndarray:
    """Vectorized ``aggregate_singleton`` over a fact batch's measure
    columns → ``(n, Y)``."""
    measure_names = schema.fact_schema.names[schema.n_dimensions :]
    columns = []
    for spec in schema.aggregates:
        measures = fact.column(measure_names[spec.measure_index])
        values = spec.function.from_column(measures)
        columns.append(values.astype(np.int64, copy=False))
    if not columns:
        return np.empty((fact.length, 0), dtype=np.int64)
    return np.stack(columns, axis=1)
